"""Exact integer polynomial arithmetic and the delta-basis transforms.

Univariate polynomials of degree <= d are dense coefficient tuples of
length d+1, index k = coefficient of x^k (trailing zeros allowed).
Multivariate polynomials of multidegree <= a are sparse dicts mapping
exponent tuples b (componentwise b <= a) to integer coefficients.

Besides the monomial basis, both spaces carry a second basis in which the
Dehn-Sommerville identities are diagonal:

    univariate:    delta_i = (x+1)^i * x^(d-i),        0 <= i <= d
    multivariate:  delta_b = x^b * (x+1)^(a-b),        b <= a

Every change between them is one routine, _binomial_transform, on the
lattice b <= a with one of two mutually inverse kernels: C(a-b, e-b) takes
delta coefficients to monomial ones, (-1)^(|e|-|b|) C(a-b, e-b) goes back.
Both factor over the coordinates, so it runs one axis at a time (Yates'
method). The univariate index is the power of (x+1), not of x (it matches
how the h-vector enumerates the basis), so the univariate transforms run
it with a = (d,) on the reversed vector.

All arithmetic uses Python's arbitrary-precision integers, so results are
exact at any size.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, ValidationError

ExponentVec = tuple[int, ...]


def _sign(k: int) -> int:
    """(-1)^k as an int, for any integer k."""
    return -1 if k % 2 else 1


class IntPoly:
    """Dense exact-integer univariate polynomial with an explicit degree bound.

    Equality compares polynomial values (padding with trailing zeros is
    irrelevant); the degree bound only fixes the storage length.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int], degree_bound: int | None = None):
        cs = tuple(int(c) for c in coeffs)
        if degree_bound is not None:
            if degree_bound < 0:
                raise ValidationError("degree bound must be >= 0")
            if len(cs) > degree_bound + 1:
                raise ValidationError(
                    f"{len(cs)} coefficients exceed degree bound {degree_bound}"
                )
            cs = cs + (0,) * (degree_bound + 1 - len(cs))
        elif not cs:
            cs = (0,)
        self.coeffs = cs

    @property
    def degree_bound(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k]:
                return k
        return -1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def _stripped(self) -> tuple[int, ...]:
        return self.coeffs[: self.degree + 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self._stripped() == other._stripped()

    def __hash__(self) -> int:
        return hash(self._stripped())

    def __add__(self, other: IntPoly) -> IntPoly:
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: IntPoly) -> IntPoly:
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self) -> IntPoly:
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other: IntPoly) -> IntPoly:
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return IntPoly(out)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    @staticmethod
    def monomial(k: int, c: int = 1, degree_bound: int | None = None) -> IntPoly:
        return IntPoly([0] * k + [c], degree_bound)

    def __repr__(self) -> str:
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                terms.append(f"{c:+d}")
            else:
                x = "x" if k == 1 else f"x^{k}"
                if c == 1:
                    terms.append(f"+{x}")
                elif c == -1:
                    terms.append(f"-{x}")
                else:
                    terms.append(f"{c:+d}{x}")
        body = "".join(terms).lstrip("+") or "0"
        return f"IntPoly({body}, d={self.degree_bound})"


class DeltaCoeffs:
    """Coefficients on the univariate delta basis (x+1)^i x^(d-i), 0 <= i <= d."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(int(c) for c in coeffs)
        if not cs:
            raise ValidationError("delta coefficients need degree bound >= 0")
        self.coeffs = cs

    @property
    def degree_bound(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeltaCoeffs):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"DeltaCoeffs({list(self.coeffs)})"


def _binomial_transform(
    values: Sequence[int], a: ExponentVec, inverse: bool = False
) -> list[int]:
    """out_e = sum_{b<=e} prod_i C(a_i-b_i, e_i-b_i) v_b, signed (-1)^(|e|-|b|) if inverse.

    values and the result are listed in exponents_below(a) order. Each axis
    is transformed along every lattice line parallel to it; zeros are skipped.
    """
    out = list(values)
    stride = len(out)
    for ai in a:
        block, stride = stride, stride // (ai + 1)
        rows = _binomial_rows(ai, inverse)
        for start in range(0, len(out), block):
            for first in range(start, start + stride):
                line = out[first : first + block : stride]
                if not any(line):
                    continue
                new = [0] * (ai + 1)
                for b, vb in enumerate(line):
                    if vb:
                        for k, w in enumerate(rows[b]):
                            new[b + k] += w * vb
                out[first : first + block : stride] = new
    return out


@cache
def _binomial_rows(ai: int, inverse: bool) -> tuple[tuple[int, ...], ...]:
    """rows[b][k]: weight of v_b in out_{b+k} along an axis of length ai + 1."""
    sign = -1 if inverse else 1
    return tuple(
        tuple(sign**k * comb(ai - b, k) for k in range(ai + 1 - b)) for b in range(ai + 1)
    )


def delta_expand(c: DeltaCoeffs) -> IntPoly:
    """Expand sum_i c_i (x+1)^i x^(d-i) into the monomial basis."""
    d = c.degree_bound
    # c_i multiplies the lattice element x^(d-i) (x+1)^i, hence the reversal
    return IntPoly(_binomial_transform(c.coeffs[::-1], (d,)), d)


def monomial_to_delta(p: IntPoly) -> DeltaCoeffs:
    """Write p on the delta basis: x^k = sum_i (-1)^(d-k-i) C(d-k,i) (x+1)^i x^(d-i)."""
    d = p.degree_bound
    return DeltaCoeffs(_binomial_transform(p.coeffs, (d,), inverse=True)[::-1])


def exponents_below(a: ExponentVec) -> Iterator[ExponentVec]:
    """All exponent vectors b with 0 <= b <= a componentwise, lexicographic."""
    return product(*(range(ai + 1) for ai in a))


def _vec_leq(u: ExponentVec, v: ExponentVec) -> bool:
    return all(x <= y for x, y in zip(u, v))


def _nonzero_below(
    coeffs: Mapping[ExponentVec, int], bound: ExponentVec, what: str
) -> dict[ExponentVec, int]:
    """The nonzero coefficients, each key checked to satisfy 0 <= b <= bound."""
    clean: dict[ExponentVec, int] = {}
    for b, cb in coeffs.items():
        b = tuple(int(x) for x in b)
        if len(b) != len(bound) or any(x < 0 for x in b) or not _vec_leq(b, bound):
            raise DomainError(f"{what} {b} outside bound {bound}")
        if cb:
            clean[b] = int(cb)
    return clean


class MPoly:
    """Sparse exact-integer multivariate polynomial with multidegree bound a."""

    __slots__ = ("coeffs", "bound")

    def __init__(self, coeffs: Mapping[ExponentVec, int], bound: ExponentVec):
        bound = tuple(int(x) for x in bound)
        if any(x < 0 for x in bound):
            raise ValidationError("multidegree bound must be componentwise >= 0")
        self.coeffs = _nonzero_below(coeffs, bound, "exponent")
        self.bound = bound

    def coeff(self, b: ExponentVec) -> int:
        return self.coeffs.get(tuple(b), 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def _joint_bound(self, other: MPoly) -> ExponentVec:
        if len(self.bound) != len(other.bound):
            raise DomainError(
                f"variable count mismatch: {len(self.bound)} vs {len(other.bound)}"
            )
        return tuple(max(x, y) for x, y in zip(self.bound, other.bound))

    def __add__(self, other: MPoly) -> MPoly:
        bound = self._joint_bound(other)
        out = dict(self.coeffs)
        for b, cb in other.coeffs.items():
            out[b] = out.get(b, 0) + cb
        return MPoly(out, bound)

    def __sub__(self, other: MPoly) -> MPoly:
        bound = self._joint_bound(other)
        out = dict(self.coeffs)
        for b, cb in other.coeffs.items():
            out[b] = out.get(b, 0) - cb
        return MPoly(out, bound)

    def scaled(self, c: int) -> MPoly:
        return MPoly({b: c * cb for b, cb in self.coeffs.items()}, self.bound)

    def items_sorted(self) -> list[tuple[ExponentVec, int]]:
        return sorted(self.coeffs.items())

    def __repr__(self) -> str:
        return f"MPoly({dict(self.items_sorted())}, bound={self.bound})"


class MDeltaCoeffs:
    """Coefficients on the multivariate delta basis x^b (x+1)^(a-b), b <= a."""

    __slots__ = ("coeffs", "bound")

    def __init__(self, coeffs: Mapping[ExponentVec, int], bound: ExponentVec):
        bound = tuple(int(x) for x in bound)
        self.coeffs = _nonzero_below(coeffs, bound, "delta key")
        self.bound = bound

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MDeltaCoeffs):
            return NotImplemented
        return self.coeffs == other.coeffs and self.bound == other.bound

    def __repr__(self) -> str:
        return f"MDeltaCoeffs({dict(sorted(self.coeffs.items()))}, bound={self.bound})"


def mdelta_expand(c: MDeltaCoeffs) -> MPoly:
    """Expand sum_b c_b x^b (x+1)^(a-b) into the monomial basis."""
    lattice = list(exponents_below(c.bound))
    out = _binomial_transform([c.coeffs.get(b, 0) for b in lattice], c.bound)
    return MPoly(dict(zip(lattice, out)), c.bound)


def mmonomial_to_delta(p: MPoly) -> MDeltaCoeffs:
    """Write p on the multivariate delta basis.

    A single monomial x^b expands as
    sum over b <= b' <= a of (-1)^(|b'|-|b|) C(a-b, a-b') x^b' (x+1)^(a-b').
    """
    lattice = list(exponents_below(p.bound))
    out = _binomial_transform([p.coeffs.get(b, 0) for b in lattice], p.bound, inverse=True)
    return MDeltaCoeffs(dict(zip(lattice, out)), p.bound)

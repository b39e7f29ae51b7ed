"""Exact integer polynomials and the binomial change of basis.

Univariate polynomials of degree <= d are dense coefficient tuples of
length d+1, index k = coefficient of x^k (trailing zeros allowed).
Multivariate polynomials of multidegree <= a are sparse dicts mapping
exponent tuples b (componentwise b <= a) to integer coefficients.

Every change of basis in the library is one routine, _binomial_transform,
on the lattice b <= a with one of two mutually inverse kernels: C(a-b, e-b)
takes coefficients on x^b (x+1)^(a-b) to monomial ones, and
(-1)^(|e|-|b|) C(a-b, e-b) goes back. Both factor over the coordinates, so
it runs one axis at a time (Yates' method). At a = (d,) they are the two
evaluations of the h-polynomial: the signed kernel takes an f-vector to its
h-vector, the forward one takes it back.

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

    def _stripped(self) -> tuple[int, ...]:
        return self.coeffs[: self.degree + 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self._stripped() == other._stripped()

    def __hash__(self) -> int:
        return hash(self._stripped())

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


def exponents_below(a: ExponentVec) -> Iterator[ExponentVec]:
    """All exponent vectors b with 0 <= b <= a componentwise, lexicographic."""
    return product(*(range(ai + 1) for ai in a))


class MPoly:
    """Sparse exact-integer multivariate polynomial with multidegree bound a."""

    __slots__ = ("coeffs", "bound")

    def __init__(self, coeffs: Mapping[ExponentVec, int], bound: ExponentVec):
        bound = tuple(int(x) for x in bound)
        if any(x < 0 for x in bound):
            raise ValidationError("multidegree bound must be componentwise >= 0")
        clean: dict[ExponentVec, int] = {}
        for b, cb in coeffs.items():
            b = tuple(int(x) for x in b)
            if len(b) != len(bound) or not all(0 <= x <= y for x, y in zip(b, bound)):
                raise DomainError(f"exponent {b} outside bound {bound}")
            if cb:
                clean[b] = int(cb)
        self.coeffs = clean
        self.bound = bound

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def items_sorted(self) -> list[tuple[ExponentVec, int]]:
        return sorted(self.coeffs.items())

    def __repr__(self) -> str:
        return f"MPoly({dict(self.items_sorted())}, bound={self.bound})"

"""Exact integer polynomials and the binomial change of basis.

Univariate polynomials of degree <= d are plain int tuples of length d+1,
index k = coefficient of x^k (f, h, the m_F sums by cardinality, 2Q); the
length is part of the value. Multivariate polynomials of multidegree <= a
are sparse dicts mapping exponent tuples b (componentwise b <= a) to
integer coefficients, held with their bound in MPoly.

Every change of basis in the library is one routine, _binomial_transform,
on the lattice b <= a with one of two mutually inverse kernels: C(a-b, e-b)
takes coefficients on x^b (x+1)^(a-b) to monomial ones, and
(-1)^(|e|-|b|) C(a-b, e-b) goes back. Both factor over the coordinates, so
it runs one axis at a time (Yates' method), each axis over all of its
lattice lines at once: whole list slices, one map per weight. An axis that
is the lattice's only line, as in every univariate call, keeps a scalar
loop, which is faster at that size. At a = (d,) the kernels are the two
evaluations of the h-polynomial: the signed kernel takes an f-vector to its
h-vector, the forward one takes it back.

All arithmetic uses Python's arbitrary-precision integers, so results are
exact at any size.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import comb
from operator import add, sub
from typing import Iterator, Mapping, Sequence

from .errors import DomainError, ValidationError

ExponentVec = tuple[int, ...]


def _sign(k: int) -> int:
    """(-1)^k as an int, for any integer k."""
    return -1 if k % 2 else 1


def _binomial_transform(
    values: Sequence[int], a: ExponentVec, inverse: bool = False
) -> list[int]:
    """out_e = sum_{b<=e} prod_i C(a_i-b_i, e_i-b_i) v_b, signed (-1)^(|e|-|b|) if inverse.

    values and the result are listed in exponents_below(a) order. An axis
    of length a_i + 1 with stride s has block (a_i + 1) s, and the entries
    at coordinate b on it are n / block runs of length s, or s extended
    slices of step block: the axis takes whichever layout has fewer
    slices. For e from a_i down to 1, rows[b][e-b] times slice b is added
    into slice e for every b < e, one map per weight, with weights +-1 a
    plain add or sub; all-zero slices are skipped. A step reads only
    coordinates below e, which still hold the input, so the update is in
    place. An axis that is the only lattice line keeps a scalar loop.
    """
    out = list(values)
    n = stride = len(out)
    for ai in a:
        block, stride = stride, stride // (ai + 1)
        if not ai:
            continue
        rows = _binomial_rows(ai, inverse)
        if n == ai + 1:  # the one lattice line: a scalar loop
            new = [0] * (ai + 1)
            for b, vb in enumerate(out):
                if vb:
                    for k, w in enumerate(rows[b]):
                        new[b + k] += w * vb
            out = new
            continue
        # the entries at coordinate b of the line or lines starting at o
        # are out[o + b * stride : o + b * stride + span : step]
        if n // block <= stride:
            starts, span, step = range(0, n, block), stride, 1
        else:
            starts, span, step = range(stride), n - block + 1, block
        for o in starts:
            below = []
            for b in range(ai):
                at = o + b * stride
                vb = out[at : at + span : step]
                if any(vb):
                    below.append((b, vb))
            for e in range(ai, below[0][0] if below else ai, -1):
                at = o + e * stride
                acc = out[at : at + span : step]
                for b, vb in below:
                    if b >= e:
                        break
                    w = rows[b][e - b]
                    if w == 1:
                        acc = map(add, acc, vb)
                    elif w == -1:
                        acc = map(sub, acc, vb)
                    else:
                        acc = map(add, acc, map(w.__mul__, vb))
                out[at : at + span : step] = list(acc)
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

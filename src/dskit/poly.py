"""Exact integer polynomials and the binomial change of basis.

Univariate polynomials of degree <= d are plain int tuples of length d+1,
index k = coefficient of x^k (f, h, the m_F sums by cardinality, 2Q); the
length is part of the value. Multivariate polynomials of multidegree <= a
are sparse dicts mapping exponent tuples b (componentwise b <= a) to
integer coefficients, held with their bound in MPoly.

Every change of basis in the library is one routine, _binomial_transform,
on the lattice b <= a with one of two mutually inverse kernels: C(a-b, e-b)
takes coefficients on x^b (x+1)^(a-b) to monomial ones, and
(-1)^(|e|-|b|) C(a-b, e-b) goes back. At a = (d,) they are the two
evaluations of the h-polynomial: the signed kernel takes an f-vector to
its h-vector, the forward one takes it back. Both factor over the axes, so
they run through _lattice_transform, one axis at a time (Yates' method),
which the multiplicity sweep's color-class grid uses too.

All arithmetic uses Python's arbitrary-precision integers, so results are
exact at any size.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import comb
from operator import add, sub
from typing import Callable, Iterator, Mapping, Sequence

from .errors import DomainError, ValidationError

ExponentVec = tuple[int, ...]
_Kernel = tuple[tuple[tuple[int, int], ...], ...]


def _sign(k: int) -> int:
    """(-1)^k as an int, for any integer k."""
    return -1 if k % 2 else 1


def _binomial_transform(values: Sequence[int], a: ExponentVec, inverse: bool = False) -> list[int]:
    """out_e = sum_{b<=e} prod_i C(a_i-b_i, e_i-b_i) v_b, signed (-1)^(|e|-|b|) if inverse.

    values and the result are listed in exponents_below(a) order.
    """
    return _lattice_transform(list(values), a, lambda ai: _binomial_rows(ai, inverse))


@cache
def _binomial_rows(ai: int, inverse: bool) -> _Kernel:
    """rows[e]: the pairs (b, C(ai-b, e-b)), signed (-1)^(e-b) if inverse, for b < e."""
    sign = -1 if inverse else 1
    return tuple(tuple((b, sign ** (e - b) * comb(ai - b, e - b)) for b in range(e)) for e in range(ai + 1))


def _lattice_transform(values: list[int], a: ExponentVec, kernel: Callable[[int], _Kernel]) -> list[int]:
    """values, listed in exponents_below(a) order, times a unit
    lower-triangular kernel on every axis: updated in place and returned.

    kernel(a_i)[e], cached by the caller per axis length, lists the pairs
    (b, w), b < e, w != 0: along each axis the entry at coordinate e gains w
    times the one at b. Each axis runs over all of its lattice lines at
    once: with stride s and block (a_i + 1) s, the entries at coordinate b
    are n / block runs of length s, or s extended slices of step block,
    whichever are fewer. For e from a_i down to 1, slice e gains w times
    slice b per pair, one map per weight, +-1 a plain add or sub, and
    all-zero slices are skipped; a step reads only coordinates below e, which
    still hold their old values. An axis that is the lattice's only line, as
    in every univariate call, keeps a scalar loop over the same pairs, which
    is faster at that size.
    """
    n = stride = len(values)
    for ai in a:
        block, stride = stride, stride // (ai + 1)
        if not ai:
            continue
        rows = kernel(ai)
        if n == ai + 1:  # the one lattice line: a scalar loop
            for e in range(ai, 0, -1):
                acc = values[e]
                for b, w in rows[e]:
                    acc += w * values[b]
                values[e] = acc
            continue
        # coordinate b of the lines at o: values[at : at + span : step], at = o + b * stride
        if n // block <= stride:
            starts, span, step = range(0, n, block), stride, 1
        else:
            starts, span, step = range(stride), n - block + 1, block
        for o in starts:
            below = []
            for at in range(o, o + ai * stride, stride):
                vb = values[at : at + span : step]
                below.append(vb if any(vb) else None)
            for e in range(ai, 0, -1):
                acc = None  # slice e, read once a nonzero slice adds into it
                for b, w in rows[e]:
                    vb = below[b]
                    if vb is None:
                        continue
                    if acc is None:
                        at = o + e * stride
                        acc = values[at : at + span : step]
                    if w == 1:
                        acc = map(add, acc, vb)
                    elif w == -1:
                        acc = map(sub, acc, vb)
                    else:
                        acc = map(add, acc, map(w.__mul__, vb))
                if acc is not None:
                    values[at : at + span : step] = list(acc)
    return values


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

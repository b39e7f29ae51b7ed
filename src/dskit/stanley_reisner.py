"""Hilbert-series identities for the face ring, in exact closed form.

The single-graded Hilbert series of the face ring of a complex is
h(L)/(1-L)^d; with a balanced coloring, the color-graded series is
h(w)/prod_i (1-w_i)^(a_i) with the flag h-polynomial on top. Denominators
stay symbolic (just the exponent), so every equality check clears them and
compares integer polynomials. No ring or ideal machinery is involved: the
series are computed from face counts directly.

The reciprocity route: substituting L = x/(x+1) into the series (after the
sign-twisted 1/L evaluation) lands exactly on the face-multiplicity count
sum_F m_F x^|F|, which the verifiers here compare with the direct
multiplicity computation. Both verifiers are relations._reciprocity_kernel
on the numerator, as the plain and flag reciprocity verifiers are on h,
reported with the numerator. The single-graded numerator is the h-vector,
an int tuple of length d + 1; its face-count reference
sum_i f_{i-1} L^i (1-L)^(d-i) lives in tests/test_stanley_reisner.py
(test_hilbert_numerator_is_h_vector).
The colored numerator is the closed-form balanced.flag_h, the single
runtime flag-h route; its reference sum_F w^b(F) (1-w)^(a-b(F)) is
flag_h_from_expansion in tests/test_balanced.py, compared there and in
test_sr_colored_on_balanced_corpus.
"""

from __future__ import annotations

from .balanced import Coloring, _flag_sums, _mvar_report, _terms, flag_h
from .complexes import Complex
from .enumeration import f_vector, h_vector, multiplicities
from .errors import _FrozenRecord
from .poly import ExponentVec, MPoly
from .relations import RelationReport, _poly_report, _reciprocity_kernel


class RationalSeries(_FrozenRecord):
    """numerator / (1-L)^e, an int tuple on top, or an MPoly over
    prod (1-w_i)^(e_i) when graded."""

    __slots__ = ("numerator", "denominator_exponent")

    def __init__(self, numerator: tuple | MPoly, denominator_exponent: int | ExponentVec):
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator_exponent", denominator_exponent)


def hilbert_series(cx: Complex) -> RationalSeries:
    """Hilbert series h(L)/(1-L)^d of the face ring.

    The numerator is the h-vector, d + 1 ints; the cleared-denominator
    face-count sum is its reference in tests/test_stanley_reisner.py.
    """
    return RationalSeries(h_vector(f_vector(cx)), cx.d)


def hilbert_series_colored(cx: Complex, coloring: Coloring) -> RationalSeries:
    """Color-graded series: numerator sum_F w^b(F) (1-w)^(a-b(F)), the flag h."""
    a = coloring.a
    return RationalSeries(MPoly(flag_h(cx, coloring), a), a)


def verify_sr_reciprocity(cx: Complex) -> RelationReport:
    """Series route of the f=h reciprocity equals the multiplicity route.

    Clearing denominators in the 1/L evaluation of the series at
    L = x/(x+1) turns the numerator n into sum_i n_i (x+1)^i x^(d-i);
    that polynomial must match sum_F m_F x^|F| coefficientwise.
    """
    series = hilbert_series(cx)
    n, e = series.numerator, series.denominator_exponent
    lhs, rhs = _reciprocity_kernel((cx.d,), n, multiplicities(cx).poly())
    return _poly_report("sr-reciprocity", cx, lhs, rhs, numerator=n, denominator_exponent=e)


def verify_sr_reciprocity_colored(cx: Complex, coloring: Coloring) -> RelationReport:
    """Color-graded series route equals the multivariate multiplicity route.

    Both sides come from one walk over the faces: the series numerator is
    the flag h, the inverse transform of the flag f-numbers, and the other
    side sums m_F by b(F). This is the flag reciprocity check of
    balanced.verify_flag_reciprocity, reported with the numerator.
    """
    a = coloring.a
    _, h, msum = _flag_sums(cx, coloring)
    return _mvar_report(
        "sr-reciprocity-colored", cx, a, *_reciprocity_kernel(a, h, msum),
        numerator=_terms(a, h),
    )

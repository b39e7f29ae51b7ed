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
multiplicity computation. The single-graded numerator is the h-vector;
its face-count reference sum_i f_{i-1} L^i (1-L)^(d-i) lives in
tests/test_stanley_reisner.py (test_hilbert_numerator_is_h_vector).
The colored numerator is the closed-form balanced.flag_h, the single
runtime flag-h route; its reference sum_F w^b(F) (1-w)^(a-b(F)) is
flag_h_from_expansion in tests/test_balanced.py, compared there and in
test_sr_colored_on_balanced_corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .balanced import Coloring, _mvar_report, flag_h, multiplicity_mpoly
from .complexes import Complex
from .enumeration import MultiplicityTable, f_vector, h_vector, multiplicities
from .poly import (
    DeltaCoeffs,
    ExponentVec,
    IntPoly,
    MDeltaCoeffs,
    MPoly,
    _vec_sub,
    delta_expand,
    mdelta_expand,
)
from .relations import RelationReport, _base_context, _report


@dataclass(frozen=True)
class RationalSeries:
    """numerator / (1-L)^e, or numerator / prod (1-w_i)^(e_i) when graded."""

    numerator: IntPoly | MPoly
    denominator_exponent: int | ExponentVec


def hilbert_series(cx: Complex) -> RationalSeries:
    """Hilbert series h(L)/(1-L)^d of the face ring.

    The numerator is the h-vector; the cleared-denominator face-count sum
    is its reference in tests/test_stanley_reisner.py.
    """
    return RationalSeries(IntPoly(h_vector(f_vector(cx)), cx.d), cx.d)


def hilbert_series_colored(cx: Complex, coloring: Coloring) -> RationalSeries:
    """Color-graded series: numerator sum_F w^b(F) (1-w)^(a-b(F)), the flag h."""
    a = coloring.a
    return RationalSeries(MPoly(flag_h(cx, coloring), a), a)


def verify_sr_reciprocity(
    cx: Complex, table: MultiplicityTable | None = None
) -> RelationReport:
    """Series route of the f=h reciprocity equals the multiplicity route.

    Clearing denominators in the 1/L evaluation of the series at
    L = x/(x+1) turns the numerator n into sum_i n_i (x+1)^i x^(d-i);
    that polynomial must match sum_F m_F x^|F| coefficientwise.
    """
    if table is None:
        table = multiplicities(cx)
    series = hilbert_series(cx)
    d = cx.d
    lhs = delta_expand(DeltaCoeffs(series.numerator.coeffs))
    rhs = table.poly()
    ctx = _base_context(cx)
    ctx.update(
        {
            "numerator": series.numerator.coeffs,
            "denominator_exponent": series.denominator_exponent,
            "lhs": lhs.coeffs,
            "rhs": rhs.coeffs,
        }
    )
    return _report(
        "sr-reciprocity",
        [f"x^{k}" for k in range(d + 1)],
        [lhs.coeff(k) - rhs.coeff(k) for k in range(d + 1)],
        ctx,
    )


def verify_sr_reciprocity_colored(
    cx: Complex, coloring: Coloring, table: MultiplicityTable | None = None
) -> RelationReport:
    """Color-graded series route equals the multivariate multiplicity route."""
    if table is None:
        table = multiplicities(cx)
    a = coloring.a
    series = hilbert_series_colored(cx, coloring)
    n = series.numerator
    # n_b (x+1)^b x^(a-b): delta element indexed by a-b
    swapped = {_vec_sub(a, b): nb for b, nb in n.coeffs.items()}
    lhs = mdelta_expand(MDeltaCoeffs(swapped, a))
    rhs = multiplicity_mpoly(cx, coloring, table)
    return _mvar_report(
        "sr-reciprocity-colored", cx, a, lhs, rhs, numerator=n.items_sorted()
    )

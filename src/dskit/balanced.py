"""Balanced complexes: colorings, flag f/h vectors, multivariate identities.

A coloring kappa assigns each vertex a color in 1..m; the complex is
balanced of type a when every facet has exactly a_i vertices of color i
(hence |a| = d and the complex is pure). For a face F, b(F) counts its
vertices per color; flag vectors refine face counts by b(F).

Flag h-numbers have two routes: the inclusion-exclusion closed form
h_b = sum_{c<=b} (-1)^(|b|-|c|) C(a-c, b-c) f_c (flag_h), and coefficient
extraction from sum_F x^b(F) (1-x)^(a-b(F)) (flag_h_from_expansion, which
also gives the colored Hilbert numerator). Neither calls the other; their
agreement is checked in tests/test_balanced.py by
test_flag_h_closed_form_equals_expansion, test_flag_h_monochromatic_type_is_h_vector
and test_flag_h_type_two_one_suspended_triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .complexes import Complex, mask_vertices
from .enumeration import MultiplicityTable, multiplicities, reduced_euler
from .errors import PreconditionError, ValidationError
from .poly import (
    ExponentVec,
    MDeltaCoeffs,
    MPoly,
    _sign,
    _vec_add,
    _vec_leq,
    _vec_sub,
    exponents_below,
    mcomb,
    mdelta_expand,
)
from .relations import RelationReport, _base_context, _report


@dataclass(frozen=True)
class Coloring:
    """Validated vertex coloring of a balanced complex of type a."""

    kappa: Mapping[int, int]
    a: ExponentVec

    @property
    def m(self) -> int:
        return len(self.a)


def b_of(face: Iterable[int], kappa: Mapping[int, int], m: int) -> ExponentVec:
    """Color-count vector of a face: entry i-1 counts vertices of color i."""
    counts = [0] * m
    for v in face:
        color = kappa.get(v)
        if color is None:
            raise ValidationError(f"vertex {v} has no color")
        if not 1 <= color <= m:
            raise ValidationError(f"vertex {v} has color {color} outside 1..{m}")
        counts[color - 1] += 1
    return tuple(counts)


def validate_balanced(
    cx: Complex, kappa: Mapping[int, int], a: Iterable[int] | None = None
) -> Coloring:
    """Check that every facet has exactly a_i vertices of color i.

    When a is omitted it is inferred from the lexicographically first
    facet and then validated globally.
    """
    for v in cx.vertices:
        if v not in kappa:
            raise ValidationError(f"vertex {v} has no color")
    if a is not None:
        a = tuple(int(x) for x in a)
        m = len(a)
    else:
        m = max((kappa[v] for v in cx.vertices), default=0)
        if m == 0:
            raise ValidationError("cannot infer a type vector without vertices")
        a = b_of(cx.facets[0], kappa, m)
    for facet in cx.facets:
        bf = b_of(facet, kappa, m)
        if bf != a:
            raise ValidationError(
                f"facet {facet} has color counts {bf}, expected type {a}"
            )
    return Coloring(kappa=dict(kappa), a=a)


def _face_b_vectors(cx: Complex, coloring: Coloring) -> list[tuple[int, ExponentVec]]:
    """(mask, b(F)) for every face, in cardinality-then-mask order."""
    out = []
    for group in cx.masks_by_card:
        for mask in group:
            out.append((mask, b_of(mask_vertices(mask), coloring.kappa, coloring.m)))
    return out


def flag_f(cx: Complex, coloring: Coloring) -> dict[ExponentVec, int]:
    """Flag f-numbers: f_b = #faces with b(F) = b, complete over b <= a."""
    out = {b: 0 for b in exponents_below(coloring.a)}
    for _, bf in _face_b_vectors(cx, coloring):
        out[bf] += 1
    return out


def flag_f_mpoly(cx: Complex, coloring: Coloring) -> MPoly:
    """sum_F x^b(F) as an exact multivariate polynomial."""
    return MPoly(flag_f(cx, coloring), coloring.a)


def flag_h_from_expansion(cx: Complex, coloring: Coloring) -> dict[ExponentVec, int]:
    """Flag h-numbers as coefficients of sum_F x^b(F) (1-x)^(a-b(F))."""
    a = coloring.a
    out = {b: 0 for b in exponents_below(a)}
    for _, bf in _face_b_vectors(cx, coloring):
        rest = _vec_sub(a, bf)
        for extra in exponents_below(rest):
            out[_vec_add(bf, extra)] += _sign(sum(extra)) * mcomb(rest, extra)
    return out


def flag_h(cx: Complex, coloring: Coloring) -> dict[ExponentVec, int]:
    """Flag h-numbers via the inclusion-exclusion closed form.

    h_b = sum_{c<=b} (-1)^(|b|-|c|) C(a-c, b-c) f_c. The multi-binomial
    weight is 1 whenever the type vector is 0/1 (completely balanced), where
    the formula takes its familiar weightless shape. The polynomial-expansion
    route, flag_h_from_expansion, is its reference in tests/test_balanced.py
    (test_flag_h_closed_form_equals_expansion).
    """
    a = coloring.a
    f = flag_f(cx, coloring)
    return {
        b: sum(
            _sign(sum(b) - sum(c)) * mcomb(_vec_sub(a, c), _vec_sub(b, c)) * f[c]
            for c in exponents_below(b)
        )
        for b in exponents_below(a)
    }


def multiplicity_mpoly(
    cx: Complex, coloring: Coloring, table: MultiplicityTable
) -> MPoly:
    """sum_F m_F x^b(F)."""
    out: dict[ExponentVec, int] = {}
    for mask, bf in _face_b_vectors(cx, coloring):
        out[bf] = out.get(bf, 0) + table.by_mask[mask]
    return MPoly(out, coloring.a)


def _mvar_labels(a: ExponentVec, prefix: str = "x^") -> list[str]:
    return [
        prefix + "(" + ",".join(str(x) for x in e) + ")" for e in exponents_below(a)
    ]


def _mvar_residuals(lhs: MPoly, rhs: MPoly, a: ExponentVec) -> list[int]:
    return [lhs.coeff(e) - rhs.coeff(e) for e in exponents_below(a)]


def _balanced_context(cx: Complex, coloring: Coloring, table: MultiplicityTable) -> dict:
    ctx = _base_context(cx, table)
    ctx["a"] = coloring.a
    return ctx


def verify_flag_fh_tilde(
    cx: Complex, coloring: Coloring, table: MultiplicityTable | None = None
) -> RelationReport:
    """sum_b h_b x^b (x+1)^(a-b) recovers the flag f-polynomial (always holds)."""
    if table is None:
        table = multiplicities(cx)
    a = coloring.a
    h = flag_h(cx, coloring)
    lhs = mdelta_expand(MDeltaCoeffs(h, a))
    rhs = flag_f_mpoly(cx, coloring)
    ctx = _balanced_context(cx, coloring, table)
    ctx.update({"lhs": lhs.items_sorted(), "rhs": rhs.items_sorted()})
    return _report(
        "flag-fh-tilde", _mvar_labels(a), _mvar_residuals(lhs, rhs, a), ctx
    )


def verify_flag_reciprocity(
    cx: Complex, coloring: Coloring, table: MultiplicityTable | None = None
) -> RelationReport:
    """sum_b h_b (x+1)^b x^(a-b) counts faces with multiplicity (always holds)."""
    if table is None:
        table = multiplicities(cx)
    a = coloring.a
    h = flag_h(cx, coloring)
    # (x+1)^b x^(a-b) is the delta element indexed by a-b
    swapped = {_vec_sub(a, b): hb for b, hb in h.items()}
    lhs = mdelta_expand(MDeltaCoeffs(swapped, a))
    rhs = multiplicity_mpoly(cx, coloring, table)
    ctx = _balanced_context(cx, coloring, table)
    ctx.update({"lhs": lhs.items_sorted(), "rhs": rhs.items_sorted()})
    return _report(
        "flag-reciprocity", _mvar_labels(a), _mvar_residuals(lhs, rhs, a), ctx
    )


def verify_balanced_ds(
    cx: Complex, coloring: Coloring, table: MultiplicityTable | None = None
) -> RelationReport:
    """Balanced Dehn-Sommerville, polynomial and scalar forms (always holds).

    Polynomial: sum_b (h_b - h_{a-b}) x^b (x+1)^(a-b) = sum_F (1-m_F) x^b(F).
    Scalar, for every b <= a:
    h_b - h_{a-b} = (-1)^(|a|-|b|) sum over faces with b(F) <= b of
    C(a-b(F), a-b) eps_F.
    """
    if table is None:
        table = multiplicities(cx)
    a = coloring.a
    h = flag_h(cx, coloring)
    diffs = {b: h[b] - h[_vec_sub(a, b)] for b in exponents_below(a)}
    lhs = mdelta_expand(MDeltaCoeffs(diffs, a))
    rhs = flag_f_mpoly(cx, coloring) - multiplicity_mpoly(cx, coloring, table)
    labels = _mvar_labels(a) + _mvar_labels(a, "b=")
    residuals = _mvar_residuals(lhs, rhs, a)
    faces = [
        (mask, bf, table.epsilon_mask(mask)) for mask, bf in _face_b_vectors(cx, coloring)
    ]
    for b in exponents_below(a):
        acc = 0
        ab = _vec_sub(a, b)
        for _, bf, eps in faces:
            if eps and _vec_leq(bf, b):
                acc += mcomb(_vec_sub(a, bf), ab) * eps
        residuals.append(diffs[b] - _sign(sum(a) - sum(b)) * acc)
    ctx = _balanced_context(cx, coloring, table)
    ctx.update({"lhs": lhs.items_sorted(), "rhs": rhs.items_sorted()})
    return _report("balanced-ds", labels, residuals, ctx)


def verify_balanced_semi_eulerian(
    cx: Complex, coloring: Coloring, table: MultiplicityTable | None = None
) -> RelationReport:
    """h_{a-b} - h_b = (-1)^|b| (chi_reduced - (-1)^(d-1)) C(a,b), semi-Eulerian only."""
    if table is None:
        table = multiplicities(cx)
    witness = table.semi_eulerian_witness()
    if witness is not None:
        raise PreconditionError("complex is not semi-Eulerian", witness)
    a = coloring.a
    h = flag_h(cx, coloring)
    gap = reduced_euler(cx) - _sign(cx.d - 1)
    residuals = [
        (h[_vec_sub(a, b)] - h[b]) - _sign(sum(b)) * gap * mcomb(a, b)
        for b in exponents_below(a)
    ]
    ctx = _balanced_context(cx, coloring, table)
    ctx.update(
        {
            "eulerian": table.m_empty == 1,
            "palindrome": gap == 0,
            "completely_balanced": all(x == 1 for x in a),
        }
    )
    return _report("balanced-semi-eulerian", _mvar_labels(a, "b="), residuals, ctx)

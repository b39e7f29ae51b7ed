"""Balanced complexes: colorings, flag f/h vectors, multivariate identities.

A coloring kappa assigns each vertex a color in 1..m; the complex is
balanced of type a when every facet has exactly a_i vertices of color i
(hence |a| = d and the complex is pure). For a face F, b(F) counts its
vertices per color; flag vectors refine face counts by b(F).

Every flag object needs only two numbers per color-count vector b: f_b and
msum_b, the sum of m_F over faces with b(F) = b. One walk over the faces
(_flag_counts) yields both, as lists in exponents_below(a) order, and is
kept on the complex, so all flag objects of a complex and coloring share it
(a second walk adds the m_F sums if an f-only call came before the
multiplicity sweep). The flag verifiers hand these lists to the kernels in
relations that also check the plain identities, the one-color case.
The flag h-numbers have a single runtime route, the inclusion-exclusion
closed form h_b = sum_{c<=b} (-1)^(|b|-|c|) C(a-c, b-c) f_c (flag_h),
which is also the colored Hilbert numerator. It is the inverse binomial
transform of f on the lattice b <= a, poly._binomial_transform with its
signed kernel, run one color at a time. The coefficient-extraction
route from sum_F x^b(F) (1-x)^(a-b(F)), flag_h_from_expansion, lives in
tests/test_balanced.py as its independent reference
(test_flag_h_closed_form_equals_expansion).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Mapping, Sequence

from .complexes import Complex
from .enumeration import _kept_rows, multiplicities
from .errors import ValidationError
from .poly import ExponentVec, _binomial_transform, exponents_below
from .relations import (
    RelationReport,
    _base_context,
    _ds_kernel,
    _fh_tilde_kernel,
    _reciprocity_kernel,
    _report,
    _semi_eulerian_gap,
    _semi_eulerian_kernel,
)


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


def _check_color_range(cx: Complex, kappa: Mapping[int, int]) -> None:
    """Reject a vertex color above the vertex count.

    Count vectors are sized by the largest color, and n vertices leave a
    color past n unused, so the check comes before any of them is built.
    """
    for v in cx.vertices:
        color = kappa.get(v)
        if color is not None and color > cx.n:
            raise ValidationError(
                f"vertex {v} has color {color}, above the vertex count {cx.n}"
            )


def validate_balanced(
    cx: Complex, kappa: Mapping[int, int], a: Iterable[int] | None = None
) -> Coloring:
    """Check that every facet has exactly a_i vertices of color i.

    When a is omitted it is inferred from the lexicographically first
    facet and then validated globally. No vertex color may exceed the
    vertex count.
    """
    _check_color_range(cx, kappa)
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


def _flag_counts(cx: Complex, coloring: Coloring, sums: bool = False) -> tuple:
    """(f, h, msum): f_b, h_b and the sum of m_F over faces with b(F) = b.

    Lists in exponents_below(a) order. The vertex colors are checked on
    every call. The walk runs once per complex and coloring and is kept on
    the complex, keyed by a and the colors of the complex's own vertices.
    It adds up m_F when asked to or when the m_F rows are kept, else msum
    is None; an entry with the sums serves every later call. Callers must
    not change the lists.
    """
    vertices = cx.vertices
    b_of(vertices, coloring.kappa, coloring.m)  # the checks and messages of b_of
    colors, a = tuple(map(coloring.kappa.__getitem__, vertices)), coloring.a
    key = ("flag counts", colors, a)
    kept = cx._derive(key + (True,))
    if kept is None:
        rows = _kept_rows(cx)
        if rows is None and sums:
            rows = multiplicities(cx).rows
        kept = cx._derive(
            key + (rows is not None,), lambda cx: _face_walk(cx, colors, a, rows)
        )
    return kept


def _face_walk(cx: Complex, colors: tuple[int, ...], a: ExponentVec, rows) -> tuple:
    """The flag counts in one walk over the faces; colors[k] colors vertex bit k.

    b is walked as its place in exponents_below(a), digits b_i in radix
    a_i + 1: the place of F is that of F minus its lowest vertex v, from
    the previous group, plus the place value of v's color. A facet with
    more vertices of a color than a allows would carry, and is rejected,
    and so is a type a whose sum is not d.
    """
    color_masks, place = [0] * len(a), [1] * len(a)
    for i in range(len(a) - 1, 0, -1):
        place[i - 1] = place[i] * (a[i] + 1)
    step, rest = {}, cx.vertex_mask
    for color in colors:
        low = rest & -rest
        color_masks[color - 1] |= low
        step[low] = place[color - 1]
        rest ^= low
    for g in cx.facet_masks:
        bf = tuple((g & cm).bit_count() for cm in color_masks)
        if any(map(int.__gt__, bf, a)):
            raise ValidationError(
                f"facet {cx.mask_vertices(g)} has color counts {bf}, above type {a}"
            )
    if sum(a) != cx.d:
        # flag reciprocity needs |a| = d mod 2; |a| < d leaves a facet above the type
        raise ValidationError(f"type {a} sums to {sum(a)}, not to d={cx.d}")
    f = [0] * prod(x + 1 for x in a)
    msum = None if rows is None else list(f)
    at, previous = [0], ()
    for c, group in enumerate(cx.masks_by_card):
        if c:
            index = dict(zip(previous, at))
            at = [index[g ^ (g & -g)] + step[g & -g] for g in group]
        previous = group
        for i in at:
            f[i] += 1
        if msum is not None:
            for i, m in zip(at, rows[c]):
                msum[i] += m
    return f, _binomial_transform(f, a, inverse=True), msum  # h: the closed form of flag_h


def flag_f(cx: Complex, coloring: Coloring) -> dict[ExponentVec, int]:
    """Flag f-numbers: f_b = #faces with b(F) = b, complete over b <= a."""
    return dict(zip(exponents_below(coloring.a), _flag_counts(cx, coloring)[0]))


def flag_h(cx: Complex, coloring: Coloring) -> dict[ExponentVec, int]:
    """Flag h-numbers via the inclusion-exclusion closed form.

    h_b = sum_{c<=b} (-1)^(|b|-|c|) C(a-c, b-c) f_c, the inverse binomial
    transform of f. The multi-binomial weight is 1 whenever the type vector
    is 0/1 (completely balanced), where the formula takes its familiar
    weightless shape. The polynomial-expansion route is its reference in
    tests/test_balanced.py (test_flag_h_closed_form_equals_expansion).
    """
    return dict(zip(exponents_below(coloring.a), _flag_counts(cx, coloring)[1]))


def _mvar_labels(a: ExponentVec, prefix: str = "x^") -> list[str]:
    return [
        prefix + "(" + ",".join(str(x) for x in e) + ")" for e in exponents_below(a)
    ]


def _terms(a: ExponentVec, values: Sequence[int]) -> list[tuple[ExponentVec, int]]:
    """The nonzero (b, v_b) pairs of a list over exponents_below(a)."""
    return [(b, v) for b, v in zip(exponents_below(a), values, strict=True) if v]


def _mvar_report(
    relation: str, cx: Complex, a: ExponentVec, lhs: Sequence[int], rhs: Sequence[int],
    labels: Sequence[str] = (), residuals: Sequence[int] = (), **context,
) -> RelationReport:
    """lhs == rhs, lists over exponents_below(a), then any scalar residuals."""
    ctx = {**_base_context(cx), "a": a, **context, "lhs": _terms(a, lhs), "rhs": _terms(a, rhs)}
    return _report(
        relation,
        _mvar_labels(a) + list(labels),
        [l - r for l, r in zip(lhs, rhs, strict=True)] + list(residuals),
        ctx,
    )


def verify_flag_fh_tilde(cx: Complex, coloring: Coloring) -> RelationReport:
    """sum_b h_b x^b (x+1)^(a-b) recovers the flag f-polynomial (always holds).

    No multiplicity enters.
    """
    a = coloring.a
    f, h, _ = _flag_counts(cx, coloring)
    return _mvar_report("flag-fh-tilde", cx, a, *_fh_tilde_kernel(a, f, h))


def verify_flag_reciprocity(cx: Complex, coloring: Coloring) -> RelationReport:
    """sum_b h_b (x+1)^b x^(a-b) counts faces with multiplicity (always holds)."""
    a = coloring.a
    _, h, msum = _flag_counts(cx, coloring, sums=True)
    return _mvar_report("flag-reciprocity", cx, a, *_reciprocity_kernel(a, h, msum))


def verify_balanced_ds(cx: Complex, coloring: Coloring) -> RelationReport:
    """Balanced Dehn-Sommerville, polynomial and scalar forms (always holds).

    Polynomial: sum_b (h_b - h_{a-b}) x^b (x+1)^(a-b) = sum_F (1-m_F) x^b(F);
    the scalar forms are in relations._ds_kernel.
    """
    a = coloring.a
    f, h, msum = _flag_counts(cx, coloring, sums=True)
    lhs, rhs, scalar = _ds_kernel(a, cx.d, f, h, msum)
    return _mvar_report("balanced-ds", cx, a, lhs, rhs, _mvar_labels(a, "b="), scalar)


def verify_balanced_semi_eulerian(cx: Complex, coloring: Coloring) -> RelationReport:
    """h_{a-b} - h_b = (-1)^|b| (chi_reduced - (-1)^(d-1)) C(a,b), semi-Eulerian only."""
    gap, eulerian = _semi_eulerian_gap(cx)
    a = coloring.a
    residuals = _semi_eulerian_kernel(a, _flag_counts(cx, coloring)[1], gap)
    ctx = {**_base_context(cx), "a": a, "eulerian": eulerian, "palindrome": gap == 0}
    ctx["completely_balanced"] = all(x == 1 for x in a)
    return _report("balanced-semi-eulerian", _mvar_labels(a, "b="), residuals, ctx)

"""Balanced complexes: colorings, flag f/h vectors, multivariate identities.

A coloring kappa assigns each vertex a color in 1..m; the complex is
balanced of type a when every facet has exactly a_i vertices of color i
(hence |a| = d and the complex is pure). For a face F, b(F) counts its
vertices per color; flag vectors refine face counts by b(F).
validate_balanced counts every facet's colors from one mask per color, as
the face walk does, and lists and sorts the facet tuples only to word a
rejection; the Coloring it returns keeps kappa read-only.

Every flag object needs only two numbers per color-count vector b: f_b and
msum_b, the sum of m_F over faces with b(F) = b. One walk over the faces
(_flag_counts) yields both, as lists in exponents_below(a) order, and is
kept on the complex, so all flag objects of a complex and coloring share it.
The walk adds up the m_F only when the complex keeps its multiplicity
rows; _flag_sums sweeps them first, and every verifier that reads the
sums calls it. The flag verifiers hand these lists to the kernels in
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

from functools import lru_cache
from itertools import chain
from math import prod
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .complexes import Complex, _prefix_walk
from .enumeration import _kept_rows, multiplicities
from .errors import ValidationError, _FrozenRecord
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


class Coloring(_FrozenRecord):
    """Validated vertex coloring of a balanced complex of type a.

    kappa is kept as a read-only copy of the mapping given. The record
    shows, compares, copies and pickles it as a dict, and hashes it by its
    items.
    """

    __slots__ = ("kappa", "a")

    def __init__(self, kappa: Mapping[int, int], a: ExponentVec):
        object.__setattr__(self, "kappa", MappingProxyType(dict(kappa)))
        object.__setattr__(self, "a", a)

    def _fields(self) -> tuple:
        return dict(self.kappa), self.a

    def __hash__(self) -> int:
        return hash((frozenset(self.kappa.items()), self.a))

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

    The facets' colors are counted from one mask per color; when every
    facet has the same counts, and they are a if a is given, they are the
    type. Otherwise, or when a vertex color is outside 1..m, b_of runs on
    every sorted facet tuple to word the rejection.
    """
    _check_color_range(cx, kappa)
    vertices = cx.vertices
    for v in vertices:
        if v not in kappa:
            raise ValidationError(f"vertex {v} has no color")
    colors = tuple(map(kappa.__getitem__, vertices))
    if a is not None:
        a = tuple(int(x) for x in a)
        m = len(a)
    else:
        m = max(colors, default=0)
        if m == 0:
            raise ValidationError("cannot infer a type vector without vertices")
    shared = _shared_color_counts(cx, colors, m)
    if shared is not None and (a is None or a == shared):
        return Coloring(kappa, shared)
    facets = cx.facets
    if a is None:
        a = b_of(facets[0], kappa, m)
    for facet in facets:
        bf = b_of(facet, kappa, m)
        if bf != a:
            raise ValidationError(
                f"facet {facet} has color counts {bf}, expected type {a}"
            )
    return Coloring(kappa, a)


def _shared_color_counts(cx: Complex, colors: tuple[int, ...], m: int) -> ExponentVec | None:
    """The color counts that all facets share, None if two differ or a color
    is outside 1..m; colors[k] colors the vertex of the k-th lowest bit."""
    color_masks, rest = [0] * m, cx.vertex_mask
    for color in colors:
        if not 1 <= color <= m:
            return None
        low = rest & -rest
        color_masks[color - 1] |= low
        rest ^= low
    counts = [set(map(int.bit_count, map(cm.__and__, cx.facet_masks))) for cm in color_masks]
    if any(len(c) != 1 for c in counts):
        return None
    return tuple(c.pop() for c in counts)


def _flag_counts(cx: Complex, coloring: Coloring, rows=None) -> tuple:
    """(f, h, msum): f_b, h_b and the sum of m_F over faces with b(F) = b.

    Lists in exponents_below(a) order. The walk adds up the m_F rows given,
    by default those the complex keeps, if any; without rows msum is None,
    and _flag_sums always has it. The vertex colors are checked on every
    call. The walk runs once per complex and coloring and is kept on the
    complex, keyed by a, the colors of the complex's own vertices and
    whether it added up rows. Callers must not change the lists.
    """
    vertices = cx.vertices
    b_of(vertices, coloring.kappa, coloring.m)  # the checks and messages of b_of
    colors, a = tuple(map(coloring.kappa.__getitem__, vertices)), coloring.a
    rows = rows or _kept_rows(cx)
    key = ("flag counts", colors, a, rows is not None)
    return cx._derive(key, lambda cx: _face_walk(cx, colors, a, rows))


def _flag_sums(cx: Complex, coloring: Coloring) -> tuple:
    """_flag_counts with msum: the m_F rows are swept first."""
    return _flag_counts(cx, coloring, multiplicities(cx).rows)


def _face_walk(cx: Complex, colors: tuple[int, ...], a: ExponentVec, rows) -> tuple:
    """The flag counts in one walk over the faces; colors[k] colors the
    vertex of the k-th lowest bit of cx.vertex_mask.

    b is walked as its place in exponents_below(a), digits b_i in radix
    a_i + 1: the place of F is the sum of its vertices' color place values,
    added up by the prefix walk. A facet with more vertices of a color than
    a allows would carry, and is rejected, and so is a type a whose sum is
    not d.
    """
    color_masks, place = [0] * len(a), [1] * len(a)
    for i in range(len(a) - 1, 0, -1):
        place[i - 1] = place[i] * (a[i] + 1)
    # a link keeps its parent's labels, so its vertex bits can have gaps
    values, rest = [0] * len(cx.labels), cx.vertex_mask
    for color in colors:
        low = rest & -rest
        color_masks[color - 1] |= low
        values[low.bit_length() - 1] = place[color - 1]
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
    # the empty face is at place 0
    for c, at in enumerate(chain([[0]], _prefix_walk(cx, values, 0))):
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


@lru_cache(maxsize=64)
def _mvar_labels(a: ExponentVec, prefix: str = "x^") -> tuple[str, ...]:
    return tuple(
        prefix + "(" + ",".join(str(x) for x in e) + ")" for e in exponents_below(a)
    )


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
        _mvar_labels(a) + tuple(labels),
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
    _, h, msum = _flag_sums(cx, coloring)
    return _mvar_report("flag-reciprocity", cx, a, *_reciprocity_kernel(a, h, msum))


def verify_balanced_ds(cx: Complex, coloring: Coloring) -> RelationReport:
    """Balanced Dehn-Sommerville, polynomial and scalar forms (always holds).

    Polynomial: sum_b (h_b - h_{a-b}) x^b (x+1)^(a-b) = sum_F (1-m_F) x^b(F);
    the scalar forms are in relations._ds_kernel.
    """
    a = coloring.a
    f, h, msum = _flag_sums(cx, coloring)
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

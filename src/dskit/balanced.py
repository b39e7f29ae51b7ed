"""Balanced complexes: colorings, flag f/h vectors, multivariate identities.

A coloring kappa assigns each vertex a color in 1..m; the complex is
balanced of type a when every facet has at most a_i vertices of color i
and |a| = d, the size of its largest facet. On a pure complex every facet
then has exactly a_i vertices of color i (Stanley's notion); a non-pure
complex can be balanced too, and under one color every complex with a
vertex is balanced of type (d,). For a face F, b(F) counts its vertices
per color; flag vectors refine face counts by b(F).
Balance is decided in one place, _balanced_type, which validate_balanced
and the face walk both call: _color_masks builds one vertex mask per
color, rejecting a vertex without an integer color, and every facet's
count of a color is its mask ANDed with the facet's. A type that is not
given is each color's largest count over the facets. The Coloring that
validate_balanced returns keeps kappa read-only.

Every flag object needs only two numbers per color-count vector b: f_b and
msum_b, the sum of m_F over faces with b(F) = b. One walk over the faces
(_flag_counts) yields both, as lists in exponents_below(a) order, and is
kept on the complex, keyed by the color masks, so all flag objects of a
complex and coloring share it. The walk adds up the m_F only when the
complex keeps its multiplicity rows; _flag_sums sweeps them first, and
every verifier that reads the sums calls it. The flag verifiers hand these
lists to the kernels in relations that also check the plain identities,
the one-color case.
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
from operator import index
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .complexes import Complex, _prefix_walk
from .enumeration import _kept_rows, multiplicities
from .errors import ValidationError, _checked_int, _FrozenRecord
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

    def __init__(self, kappa: Mapping[int, int], a: Iterable[int]):
        object.__setattr__(self, "kappa", MappingProxyType(dict(kappa)))
        object.__setattr__(self, "a", _checked_type(a))

    def _fields(self) -> tuple:
        return dict(self.kappa), self.a

    def __hash__(self) -> int:
        return hash((frozenset(self.kappa.items()), self.a))

    @property
    def m(self) -> int:
        return len(self.a)


def _checked_type(a: Iterable[int]) -> ExponentVec:
    """a as a tuple of ints; a ValidationError if a is not iterable or an entry no int."""
    try:
        entries = iter(a)
    except TypeError:
        raise ValidationError(f"type must be a sequence of integers, got {a!r}") from None
    return tuple(_checked_int(x, "type entry") for x in entries)


def b_of(face: Iterable[int], kappa: Mapping[int, int], m: int) -> ExponentVec:
    """Color-count vector of a face: entry i-1 counts vertices of color i."""
    counts = [0] * m
    for v in face:
        color = _color_of(v, kappa)
        if not 1 <= color <= m:
            raise ValidationError(f"vertex {v} has color {color} outside 1..{m}")
        counts[color - 1] += 1
    return tuple(counts)


def _color_of(v: int, kappa: Mapping[int, int]) -> int:
    """kappa[v] by operator.index; a ValidationError if v has no color or
    its color is no integer."""
    color = kappa.get(v)
    try:
        return index(color)
    except TypeError:
        if color is None:
            raise ValidationError(f"vertex {v} has no color") from None
        raise ValidationError(f"color of vertex {v} must be an integer, got {color!r}") from None


def _check_color_range(cx: Complex, kappa: Mapping[int, int]) -> None:
    """Reject a vertex color above the vertex count.

    Count vectors are sized by the largest color, and n vertices leave a
    color past n unused, so the check comes before any of them is built.
    """
    for v in cx.vertices:
        if v in kappa and _color_of(v, kappa) > cx.n:
            raise ValidationError(
                f"vertex {v} has color {kappa[v]}, above the vertex count {cx.n}"
            )


def _color_masks(cx: Complex, kappa: Mapping[int, int], m: int) -> tuple[list[int], int]:
    """One mask per color 1..m over cx's vertex bits, and the mask of the
    vertices colored outside 1..m; every vertex must have an integer color."""
    masks, outside, rest, labels = [0] * m, 0, cx.vertex_mask, cx.labels
    while rest:
        low = rest & -rest
        rest ^= low
        v = labels[low.bit_length() - 1]
        color = _color_of(v, kappa)
        if 1 <= color <= m:
            masks[color - 1] |= low
        else:
            outside |= low
    return masks, outside


def _balanced_type(
    cx: Complex, kappa: Mapping[int, int], masks: list[int], outside: int, a: ExponentVec | None
) -> ExponentVec:
    """The type of the coloring with these color masks: a, or each color's
    largest count over the facets if a is None. outside masks the vertices
    colored outside 1..m. Rejects the lowest of them, then the
    lexicographically first facet above a, then |a| != d: flag reciprocity
    needs |a| = d mod 2, and |a| < d leaves a facet above a."""
    if outside:
        v = cx.labels[(outside & -outside).bit_length() - 1]
        raise ValidationError(f"vertex {v} has color {kappa[v]} outside 1..{len(masks)}")
    # per color, the number of its vertices in each facet, and the largest
    counts = [list(map(int.bit_count, map(cm.__and__, cx.facet_masks))) for cm in masks]
    largest = tuple(max(c, default=0) for c in counts)
    a = largest if a is None else a
    if any(map(int.__gt__, largest, a)):
        facet, bf = min(
            (cx.mask_vertices(g), bf)
            for g, bf in zip(cx.facet_masks, zip(*counts))
            if any(map(int.__gt__, bf, a))
        )
        raise ValidationError(f"facet {facet} has color counts {bf}, above type {a}")
    if sum(a) != cx.d:
        raise ValidationError(f"type {a} sums to {sum(a)}, not to d={cx.d}")
    return a


def validate_balanced(
    cx: Complex, kappa: Mapping[int, int], a: Iterable[int] | None = None
) -> Coloring:
    """Check that kappa makes cx balanced of type a: every facet has at most
    a_i vertices of color i, and |a| = d.

    When a is omitted it is each color's largest count over the facets,
    over the colors 1..m, m the largest color (at least 1); no vertex
    color may then exceed the vertex count, since count vectors are sized
    by m. A given a must fit every facet and sum to d itself. The check is
    _balanced_type's, the one the flag face walk makes.
    """
    if a is not None:
        a = _checked_type(a)
        m = len(a)
    elif cx.n:
        _check_color_range(cx, kappa)
        m = max(1, *(kappa.get(v, 0) for v in cx.vertices))
    else:
        raise ValidationError("cannot infer a type vector without vertices")
    masks, outside = _color_masks(cx, kappa, m)
    return Coloring(kappa, _balanced_type(cx, kappa, masks, outside, a))


def _flag_counts(cx: Complex, coloring: Coloring) -> tuple:
    """(f, h, msum): f_b, h_b and the sum of m_F over faces with b(F) = b.

    Lists in exponents_below(a) order. The walk adds up the m_F rows that
    the complex keeps, if any; otherwise msum is None, and _flag_sums,
    which sweeps the rows first, always has it. The vertex colors are
    checked on every call, as the color masks are built, and the balance
    before the walk. The walk runs once per complex and coloring and is
    kept on the complex, keyed by a, the color masks over the complex's own
    vertices and whether it added up rows. Callers must not change the lists.
    """
    a, kappa = coloring.a, coloring.kappa
    masks, outside = _color_masks(cx, kappa, len(a))
    rows = _kept_rows(cx)
    key = ("flag counts", tuple(masks), a, rows is not None)
    return cx._derive(
        key, lambda cx: _face_walk(cx, masks, _balanced_type(cx, kappa, masks, outside, a), rows)
    )


def _flag_sums(cx: Complex, coloring: Coloring) -> tuple:
    """_flag_counts with msum: the m_F rows are swept first.

    Only the verifiers that read msum call it: flag_f and flag_h walk
    without a sweep, which on a dense sphere costs more than the walk.
    """
    multiplicities(cx)
    return _flag_counts(cx, coloring)


def _face_walk(cx: Complex, masks: list[int], a: ExponentVec, rows) -> tuple:
    """The flag counts in one walk over the faces; masks[i] holds the
    vertex bits of color i + 1.

    b is walked as its place in exponents_below(a), digits b_i in radix
    a_i + 1: the place of F is the sum of its vertices' color place values,
    added up by the prefix walk. a must be the coloring's balanced type, so
    that no facet carries a digit.
    """
    # a link keeps its parent's labels, so its vertex bits can have gaps
    values, place = [0] * len(cx.labels), 1
    for cm, x in zip(reversed(masks), reversed(a)):
        while cm:
            low = cm & -cm
            values[low.bit_length() - 1] = place
            cm ^= low
        place *= x + 1
    f = [0] * place  # the lattice size, prod(a_i + 1)
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

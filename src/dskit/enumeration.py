"""Face-count invariants: f/h vectors, Euler characteristics, multiplicities.

Vectors are plain int tuples: an f-vector is (f_-1, f_0, ..., f_{d-1})
with f_-1 = 1 for the empty face; an h-vector is (h_0, ..., h_d). The
multiplicity of a face F is

    m_F = sum over faces G >= F of (-1)^(d-|G|)
        = (-1)^(d-1-|F|) * chi_reduced(link(F)),

and the error of a face is eps_F = chi_reduced(link(F)) - (-1)^(d-1-|F|)
= (-1)^(d-1-|F|) (m_F - 1). Both quantities come with two independent
computation routes, kept deliberately distinct for differential testing.

multiplicities(cx) sweeps every m_F at once with Yates' superset sum Z,
one of three ways. When sum over facets g of 2^|g| < 1.85 f (f faces,
the empty face counted), it sweeps m = s*[F is a facet] + Z(s*(1 - c)),
where s(G) = (-1)^(d-|G|) and c(G) counts the facets that hold G: only
the faces that two or more facets share are seeded, at most d steps per
pair of a shared face and a facet holding it. Otherwise it colors the
vertices greedily so that no face holds two of one color, as on a
balanced complex, and sums s over a dense grid with one mixed-radix
digit per color class, one class at a time by slice assignment. When
that grid would have more than a few cells per face, every face is
seeded in a table keyed by mask, at sum over G of |G| additions.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from operator import add, or_
from typing import Iterable

from . import complexes
from .complexes import Complex, FaceTuple, _prefix_walk, _stars
from .errors import PreconditionError, ValidationError
from .poly import _binomial_transform, _sign

FVector = tuple[int, ...]
HVector = tuple[int, ...]


def f_vector(cx: Complex) -> FVector:
    """(f_-1, f_0, ..., f_{d-1}): face counts by cardinality."""
    return tuple(len(g) for g in cx.masks_by_card)


def check_f_vector(f: Iterable[int]) -> FVector:
    f = tuple(int(x) for x in f)
    if not f or f[0] != 1:
        raise ValidationError("f-vector must start with f_-1 = 1")
    if f[-1] < 1 and len(f) > 1:
        raise ValidationError("top face count must be >= 1")
    return f


def h_vector(f: Iterable[int]) -> HVector:
    """h-vector from an f-vector: coefficients of sum_i f_{i-1} x^i (1-x)^(d-i).

    h_k = sum_{i<=k} (-1)^(k-i) C(d-i, k-i) f_{i-1}, the inverse binomial
    transform of f with a = (d,).
    """
    f = check_f_vector(f)
    return tuple(_binomial_transform(f, (len(f) - 1,), inverse=True))


def h_to_f(h: Iterable[int]) -> FVector:
    """Inverse transform: sum_i f_{i-1} x^i = sum_i h_i x^i (x+1)^(d-i)."""
    h = tuple(int(x) for x in h)
    if not h:
        raise ValidationError("h-vector needs at least one entry, h_0")
    return tuple(_binomial_transform(h, (len(h) - 1,)))


def euler_from_f(f: Iterable[int]) -> int:
    """chi = f_0 - f_1 + f_2 - ... (empty face excluded)."""
    f = tuple(f)
    return sum(_sign(i - 1) * f[i] for i in range(1, len(f)))


def reduced_euler_from_f(f: Iterable[int]) -> int:
    """chi_reduced = chi - 1 (the empty face contributes -1)."""
    return euler_from_f(f) - 1


def euler(cx: Complex) -> int:
    return euler_from_f(f_vector(cx))


def reduced_euler(cx: Complex) -> int:
    return reduced_euler_from_f(f_vector(cx))


def multiplicity(cx: Complex, face: Iterable[int], method: str = "superset-sum") -> int:
    """m_F by one of the two defining formulas.

    method 'superset-sum': sum of (-1)^(d-|G|) over faces G containing F.
    method 'link-euler':   (-1)^(d-1-|F|) * chi_reduced(link(F)).
    """
    fmask = cx.face_mask(face)
    d = cx.d
    if method == "superset-sum":
        return sum(
            _sign(d - g.bit_count()) for group in cx.masks_by_card for g in group if g & fmask == fmask
        )
    if method == "link-euler":
        return _sign(d - 1 - fmask.bit_count()) * reduced_euler(cx.link_mask(fmask))
    raise ValidationError(f"unknown method {method!r}")


class MultiplicityTable:
    """Multiplicities m_F for every face of a complex, in rows aligned with
    its face index: rows[c][j] is m_F of complex.masks_by_card[c][j]."""

    __slots__ = ("complex", "rows")

    def __init__(self, cx: Complex, rows: tuple[tuple[int, ...], ...]):
        self.complex = cx
        self.rows = rows

    @property
    def m_empty(self) -> int:
        return self.rows[0][0]

    def m(self, face: Iterable[int]) -> int:
        mask = self.complex.face_mask(face)
        return self.rows[mask.bit_count()][self.complex._position(mask)]

    def items(self) -> list[tuple[FaceTuple, int]]:
        """(face, m) pairs ordered by cardinality then mask.

        A face's tuple is the tuple of the face minus its top vertex, one
        cardinality down, plus that vertex's label.
        """
        out = [((), self.m_empty)]
        singles = [(v,) for v in self.complex.labels]
        for faces, row in zip(_prefix_walk(self.complex, singles, ()), self.rows[1:]):
            out += zip(faces, row)
        return out

    def poly(self) -> tuple[int, ...]:
        """sum over faces of m_F x^|F| as its d + 1 coefficients, by cardinality."""
        return tuple(map(sum, self.rows))

    def reciprocity_witness(self) -> FaceTuple | None:
        """A non-empty face with m_F not in {0,1}, or None if reciprocal."""
        return self._first_outside((0, 1))

    def semi_eulerian_witness(self) -> FaceTuple | None:
        """A non-empty face with m_F != 1, or None if semi-Eulerian."""
        return self._first_outside((1,))

    def _first_outside(self, allowed: tuple[int, ...]) -> FaceTuple | None:
        """The first non-empty face in (card, mask) order whose m_F is not allowed."""
        for group, row in zip(self.complex.masks_by_card[1:], self.rows[1:]):
            if sum(map(row.count, allowed)) != len(row):  # C-speed counts; walk a failing row
                j = next(j for j, m in enumerate(row) if m not in allowed)
                return self.complex.mask_vertices(group[j])
        return None


def multiplicities(cx: Complex) -> MultiplicityTable:
    """All m_F, swept once per complex and kept on it as rows.

    Every call returns a new table over the kept rows; the complex keeps
    the rows alone, since a table refers back to it.
    """
    return MultiplicityTable(cx, cx._derive("multiplicities", _superset_sweep))


def _kept_rows(cx: Complex) -> tuple[tuple[int, ...], ...] | None:
    """The m_F rows if multiplicities(cx) has swept them, else None."""
    return cx._derive("multiplicities")


def _superset_sweep(cx: Complex) -> tuple[tuple[int, ...], ...]:
    """Rows of m_F by Yates' superset zeta transform Z, one vertex at a time.

    A table seeded with values on a downward closed family of faces is
    swept with one pass per vertex v: every G in the family that contains
    v adds its entry into G - v. A pass reads only sets that contain v and
    writes only sets that do not, so its order is free. After the last
    pass each G >= F has reached F along exactly one path, dropping the
    vertices of G - F in pass order, so F holds the sum of the seed over
    every G >= F in the family; every set between F and G is in the family
    too, so no step leaves the table. A pass visits its vertex's star,
    listed by one walk of each seeded face's bits. No link is built.

    With s(G) = (-1)^(d-|G|) and c(G) the number of facets that hold G,
    m = Z(s) = s*[F is a facet] + Z(s*(1 - c)). The sum of s over an
    interval [F, g] is zero unless F = g, so Z(s*c), a sum over the facets
    g >= F of such intervals, is s(F) when F is a facet and 0 otherwise.
    The seed s*(1 - c) is zero on every face that one facet holds alone,
    and the faces that two or more facets hold, the shared faces, are
    closed downward: a face that one facet holds alone lies in no shared
    face, so its m is s on a facet and 0 elsewhere.

    The sum over facets g of 2^|g| is the sum of c over the faces, so
    with f faces, the empty face counted, it is below 1.85 f when c is
    below 1.85 on average; near that line the shared seeding and the
    full path cost the same on small random complexes, timed in process.
    Below it the family is the shared faces (_seed_shared), found at
    most d steps per pair of a shared face and a facet that holds it,
    and the facets' entries s are never swept. Otherwise _grid_sweep
    first tries a dense grid over color classes; if the grid would be
    too large, the family is every face, seeded with s. With a family,
    _stars lists its stars, at sum over its faces G of |G| additions,
    and the table, keyed by mask, is read into rows aligned with
    cx.masks_by_card and dropped.
    """
    if 20 * sum(1 << g.bit_count() for g in cx.facet_masks) < 37 * cx.num_faces:
        table, family = _seed_shared(cx)
    else:
        rows = _grid_sweep(cx)
        if rows is not None:
            return rows
        table = family = {}
        for card, group in enumerate(cx.masks_by_card):
            table.update(zip(group, repeat(_sign(cx.d - card))))
    for i, star in enumerate(_stars(family, cx.vertex_mask.bit_length())):
        bit = 1 << i
        for g in star:
            table[g ^ bit] += table[g]
    del family  # before the rows are built, so it does not raise the peak
    get = table.get  # a face the table lacks has m = 0
    return tuple(tuple(map(get, group, repeat(0))) for group in cx.masks_by_card)


# the grid sweep gives up past this many cells per face
_GRID_CELLS_PER_FACE = 4


def _grid_sweep(cx: Complex) -> tuple[tuple[int, ...], ...] | None:
    """Rows of m_F by Yates' superset sum over a dense mixed-radix grid,
    or None if a greedy coloring gives no grid within
    _GRID_CELLS_PER_FACE cells per face.

    The vertices are colored greedily in bit order: each joins the first
    class that holds none of its neighbours, the vertices of its facet
    star. No face then holds two vertices of one class, so a face is a
    number with one digit per class, 0 where it misses the class and
    else its vertex's rank in the class, from 1. Its cell, that number
    in radix |class| + 1, is the sum of its vertices' weights, rank times
    the class's stride, added up by the prefix walk. The grid has
    prod(|class| + 1) cells, one per face on cp_d, and the coloring
    stops as soon as that running product passes the limit.

    The grid holds s(G) = (-1)^(d-|G|) on the faces and 0 elsewhere; a
    cell that is no face has no face above it, so it stays 0. Z is taken
    one class at a time: the cells with digit 0 in the class add those
    that differ from them in that digit alone, by one slice assignment
    per block of the class's zero-digit cells, or per offset in a block
    when the blocks are short and many. Rows are read back by cell.
    """
    limit = _GRID_CELLS_PER_FACE * cx.num_faces
    stars = cx._derive("facet stars", complexes._facet_stars)
    members: list[int] = []  # the vertex bits of each class
    place = [(0, 0)] * len(stars)  # (class, rank) by vertex bit; a link's gaps stay (0, 0)
    size = 1  # prod(|class| + 1) over the classes so far
    for i, star in enumerate(stars):
        if not star:
            continue
        near = reduce(or_, star)
        c = next((c for c, m in enumerate(members) if not m & near), len(members))
        if c == len(members):
            members.append(0)
        members[c] |= 1 << i
        k = members[c].bit_count()
        size = size // k * (k + 1)
        if size > limit:
            return None
        place[i] = (c, k)
    strides = [1]
    for m in members:
        strides.append(strides[-1] * (m.bit_count() + 1))
    d = cx.d
    grid = [0] * size
    grid[0] = _sign(d)
    cells = list(_prefix_walk(cx, [k * strides[c] for c, k in place], 0))
    for card, at in enumerate(cells, 1):
        s = _sign(d - card)
        for i in at:
            grid[i] = s
    for stride, block in zip(strides, strides[1:]):
        if stride < size // block:  # fewer offsets than blocks
            for o in range(stride):
                acc = grid[o::block]
                for j in range(o + stride, block, stride):
                    acc = map(add, acc, grid[j::block])
                grid[o::block] = acc
        else:
            for a in range(0, size, block):
                b = a + stride
                acc = grid[a:b]
                for j in range(b, a + block, stride):
                    acc = map(add, acc, grid[j:j + stride])
                grid[a:b] = acc
    return ((grid[0],),) + tuple(tuple(map(grid.__getitem__, at)) for at in cells)


def _seed_shared(cx: Complex) -> tuple[dict[int, int], list[int]]:
    """(table, shared): s*(1 - c) on the shared faces and s on the facets,
    and the shared faces as a list.

    The shared faces are found one cardinality at a time from the empty
    face, each with the facets that hold it: P + t is shared when two or
    more of P's facets hold t, t above P's top vertex, so each shared face
    is found once, from P = itself minus its top vertex. One pass over P's
    facets finds those t, a second files each facet under every such t it
    holds: a shared face costs at most d steps per facet that holds it, not
    a scan of its facets per child. No set over all faces or all facets is
    built. A facet is never shared, and the sweep writes only below shared
    faces, so the facets' entries stay s.
    """
    d = cx.d
    facets = cx.facet_masks
    table = {g: _sign(d - g.bit_count()) for g in facets}
    shared: list[int] = []
    level = [(0, facets)] if len(facets) > 1 else []
    s = _sign(d)  # of the level's cardinality, from the empty face's
    while level:
        below = []
        for p, holders in level:
            table[p] = s * (1 - len(holders))
            shared.append(p)
            # the vertices above p's top that two or more holders share
            top = p.bit_length()
            seen = twice = 0
            for g in holders:
                g >>= top
                twice |= seen & g
                seen |= g
            if not twice:
                continue
            twice <<= top
            # each holder joins the bucket of every shared vertex it holds
            buckets: dict[int, list[int]] = {}
            for g in holders:
                hits = g & twice
                while hits:
                    low = hits & -hits
                    if low in buckets:
                        buckets[low].append(g)
                    else:
                        buckets[low] = [g]
                    hits ^= low
            below += [(p | low, held) for low, held in buckets.items()]
        level = below
        s = -s
    return table, shared


def epsilon(cx: Complex, face: Iterable[int], method: str = "link-euler") -> int:
    """Error eps_F of a face, by either defining formula.

    method 'link-euler':   chi_reduced(link(F)) - (-1)^(d-1-|F|).
    method 'multiplicity': (-1)^(d-1-|F|) * (m_F - 1).
    """
    fmask = cx.face_mask(face)
    d = cx.d
    if method == "link-euler":
        return reduced_euler(cx.link_mask(fmask)) - _sign(d - 1 - fmask.bit_count())
    if method == "multiplicity":
        m = multiplicity(cx, cx.mask_vertices(fmask), method="superset-sum")
        return _sign(d - 1 - fmask.bit_count()) * (m - 1)
    raise ValidationError(f"unknown method {method!r}")


def _reciprocal_table(cx: Complex) -> MultiplicityTable:
    """multiplicities(cx), once every non-empty m_F is in {0, 1}."""
    table = multiplicities(cx)
    witness = table.reciprocity_witness()
    if witness is not None:
        raise PreconditionError("complex is not reciprocal", witness)
    return table


def interior_f_vector(cx: Complex) -> tuple[int, ...]:
    """(f^int_0, ..., f^int_{d-1}): counts of non-empty faces with m_F = 1.

    Requires a reciprocal complex (every non-empty m_F in {0,1}).
    """
    return tuple(row.count(1) for row in _reciprocal_table(cx).rows[1:])


def boundary_f_vector(cx: Complex) -> tuple[int, ...]:
    """(f^bd_-1, f^bd_0, ..., f^bd_{d-1}) with f^bd_-1 = 1 (empty face)."""
    return (1,) + tuple(row.count(0) for row in _reciprocal_table(cx).rows[1:])

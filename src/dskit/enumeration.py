"""Face-count invariants: f/h vectors, Euler characteristics, multiplicities.

Vectors are plain int tuples: an f-vector is (f_-1, f_0, ..., f_{d-1})
with f_-1 = 1 for the empty face; an h-vector is (h_0, ..., h_d). The
multiplicity of a face F is

    m_F = sum over faces G >= F of (-1)^(d-|G|)
        = (-1)^(d-1-|F|) * chi_reduced(link(F)),

and the error of a face is eps_F = chi_reduced(link(F)) - (-1)^(d-1-|F|)
= (-1)^(d-1-|F|) (m_F - 1). Both quantities come with two independent
computation routes, kept deliberately distinct for differential testing.
"""

from __future__ import annotations

from typing import Iterable

from .complexes import Complex, FaceTuple, _prefix_walk
from .errors import PreconditionError, ValidationError
from .poly import IntPoly, _binomial_transform, _sign

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
    def d(self) -> int:
        return self.complex.d

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

    def poly(self) -> IntPoly:
        """sum over faces of m_F x^|F|, degree bound d."""
        return IntPoly([sum(row) for row in self.rows], self.d)

    def reciprocity_witness(self) -> FaceTuple | None:
        """A non-empty face with m_F not in {0,1}, or None if reciprocal."""
        for group, row in zip(self.complex.masks_by_card[1:], self.rows[1:]):
            if row.count(0) + row.count(1) != len(row):  # C-speed counts; walk a failing row
                j = next(j for j, m in enumerate(row) if m not in (0, 1))
                return self.complex.mask_vertices(group[j])
        return None

    def semi_eulerian_witness(self) -> FaceTuple | None:
        """A non-empty face with m_F != 1, or None if semi-Eulerian."""
        for group, row in zip(self.complex.masks_by_card[1:], self.rows[1:]):
            if row.count(1) != len(row):  # C-speed count; walk a failing row
                j = next(j for j, m in enumerate(row) if m != 1)
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
    """Rows of m_F by Yates' superset zeta transform, one vertex at a time.

    The table starts at m[G] = (-1)^(d-|G|); then, for each vertex v, every
    face G containing v adds m[G] into m[G - v]. A pass reads only sets
    that contain v and writes only sets that do not, so its order is free.
    After the last pass each G >= F has reached F along exactly one path,
    dropping the vertices of G - F in pass order, so m[F] sums the seed
    over every G >= F once. This is exact because the face family is
    closed downward: every set between F and G is a face, so no step
    leaves the table. The cost is sum over G of |G| additions, and no
    link is built. The sweep runs on a dict keyed by mask, which is read
    into rows aligned with cx.masks_by_card and dropped.
    """
    table = {}
    # bit position -> every face containing that vertex, filled by one walk
    # of each face's set bits
    stars: list[list[int]] = [[] for _ in range(cx.vertex_mask.bit_length())]
    for card, group in enumerate(cx.masks_by_card):
        s = _sign(cx.d - card)
        for g in group:
            table[g] = s
            rest = g
            while rest:
                i = rest.bit_length() - 1
                stars[i].append(g)
                rest ^= 1 << i
    for i, star in enumerate(stars):
        bit = 1 << i
        for g in star:
            table[g ^ bit] += table[g]
    del stars  # before the rows are built, so they do not raise the peak
    get = table.__getitem__
    return tuple(tuple(map(get, group)) for group in cx.masks_by_card)


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

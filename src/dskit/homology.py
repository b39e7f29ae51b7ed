"""Reduced simplicial homology over a field, and homology-manifold tests.

Betti numbers come from ranks of the boundary matrices of the augmented
chain complex (the empty face spans the (-1)-dimensional chain group, so
the map from vertices is the augmentation). Signs follow
del [v_0..v_k] = sum_j (-1)^j [v_0..v_hat_j..v_k] with vertex ids
increasing. Boundary matrices are sparse columns built from the face
masks: int bitsets over GF(2), {row: +-1} dicts otherwise. Each rank from
cardinality 3 up is one exact column reduction against a table of pivots
keyed by pivot row, as in Ripser, and the maps are reduced top-down with
clearing (Chen and Kerber, "Persistent homology computation with a twist",
2011; Bauer, Kerber and Reininghaus, "Clear and compress", 2014). The two
lowest ranks take no matrix, over every field: the augmentation has rank 1
when there is a vertex, and the map from edges to vertices is the
incidence matrix of a graph, whose rank is the size of a spanning forest
of the uncleared edges, found by union-find. The dense reference ranks
live in tests/conftest.py.

The homology-manifold scan makes each face F from its parent F - v, v
the lowest vertex of F, in (cardinality, mask) order, and works on link
keys: a link's facets moved onto its own vertices, order kept. Links
with equal keys are equal up to a relabelling and share their Betti
numbers over every field, so each key is computed once per cardinality.
The key of lk(F) follows from the key of lk(F - v) and the position of v
among its vertices: the scan compresses a key once per such pair, and a
face whose pair came before reads no facet. The definitional route, each
link closed from the complex, is the reference in
tests/test_homology.py. Each field's scan is kept on the complex itself,
so classify and then the boundary split of one object scan once; an
equal complex built apart, possibly under other labels, scans for
itself. Over Q the scan computes each link over GF(2) first and keeps
those numbers when they are nonzero in at most one degree. That is exact
by universal coefficients (Hatcher, Algebraic Topology, Thm 3A.3):
beta_i over Q is at most beta_i over GF(2) for every i, and both sum to
the same reduced Euler characteristic.
"""

from __future__ import annotations

from math import gcd
from typing import Container, Sequence

from .complexes import Complex, FaceTuple, _closure, _facet_stars
from .errors import PreconditionError, ValidationError, _FrozenRecord
from .poly import _sign

# Miller-Rabin with the first 13 primes as bases is exact below the smallest
# strong pseudoprime to all of them (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic primality test, exact for p < _MR_EXACT_BELOW."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    odd, s = p - 1, 0
    while odd % 2 == 0:
        odd, s = odd // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldSpec(_FrozenRecord):
    """Coefficient field: characteristic 0 (rationals) or a prime p."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int = 0):
        # an int, not a bool (True == 1) or a float (3.0 == 3)
        if type(characteristic) is not int:
            raise ValidationError(f"field characteristic must be an int, got {characteristic!r}")
        if characteristic >= _MR_EXACT_BELOW:
            raise ValidationError(
                f"field characteristic {characteristic} is out of range:"
                f" primes must be below {_MR_EXACT_BELOW}"
            )
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValidationError(
                f"field characteristic must be 0 or prime, got {characteristic}"
            )
        object.__setattr__(self, "characteristic", characteristic)

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """'q' or 'rationals' in any case, or ASCII decimal digits: 0 or a prime.

        Signs, spaces, underscores and non-ASCII digits, which int() would
        take, are rejected.
        """
        if text.isascii():
            if text.lower() in ("q", "rationals"):
                return cls(0)
            if text.isdigit():
                try:
                    return cls(int(text))
                except ValueError:  # more digits than int() converts
                    pass
        raise ValidationError(f"field must be 'q' or a prime, got {text!r}")

    def __str__(self) -> str:
        return "q" if self.characteristic == 0 else str(self.characteristic)


def rank_mod(cols: list, p: int) -> set[int]:
    """Pivot rows over GF(p) of a matrix given as sparse columns; the rank is their count.

    Over GF(2) a column is an int bitset of its rows, else a dict {row: entry}.
    Each column is reduced by the stored column with its pivot row (largest
    nonzero row) until it vanishes or is stored: by XOR over GF(2), else
    against stored columns with pivot entry 1.
    """
    if p == 2:
        pivots2: dict[int, int] = {}
        for bits in cols:
            while bits:
                low = bits.bit_length() - 1
                piv = pivots2.get(low)
                if piv is None:
                    pivots2[low] = bits
                    break
                bits ^= piv
        return set(pivots2)
    pivots: dict[int, dict[int, int]] = {}
    for col in cols:
        c = {r: x % p for r, x in col.items() if x % p}
        while c:
            low = max(c)
            piv = pivots.get(low)
            if piv is None:
                inv = pow(c[low], p - 2, p)
                pivots[low] = {r: x * inv % p for r, x in c.items()}
                break
            factor = c[low]
            for r, x in piv.items():
                y = (c.get(r, 0) - factor * x) % p
                if y:
                    c[r] = y
                else:
                    del c[r]
    return set(pivots)


def rank_rational(cols: list[dict[int, int]]) -> set[int]:
    """Pivot rows over the rationals of an integer matrix given as sparse columns.

    rank_mod's reduction, fraction-free: c becomes a*c - b*q for the stored
    q, with a = q[low], b = c[low] over their gcd. Stored columns are divided
    by the gcd of their entries, pivot entry positive.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in cols:
        c = {r: x for r, x in col.items() if x}
        while c:
            low = max(c)
            piv = pivots.get(low)
            if piv is None:
                g = gcd(*c.values())
                if c[low] < 0:
                    g = -g
                pivots[low] = {r: x // g for r, x in c.items()} if g != 1 else c
                break
            a, b = piv[low], c[low]
            if a != 1:
                g = gcd(a, b)
                a, b = a // g, b // g
                c = {r: a * x for r, x in c.items()}
            for r, x in piv.items():
                y = c.get(r, 0) - b * x
                if y:
                    c[r] = y
                else:
                    del c[r]
    return set(pivots)


def boundary_matrix(
    masks_by_card: Sequence[Sequence[int]], card: int, p: int = 0, cleared: Container[int] = ()
) -> list:
    """Sparse columns of del from cardinality card to card-1.

    masks_by_card[c] lists the c-faces in mask order. Column j is the j-th
    card-face, row i the i-th (card-1)-face; the card-faces at the positions
    in cleared are left out. card = 1 gives the augmentation (vertices map to
    the empty face). Over GF(2) (p = 2) a column is an int bitset of its
    rows, else a dict {row: +-1}.
    """
    if card < 1 or card >= len(masks_by_card):
        return []
    faces = masks_by_card[card]
    if cleared:
        faces = [g for j, g in enumerate(faces) if j not in cleared]
    index = {m: i for i, m in enumerate(masks_by_card[card - 1])}
    cols: list = []
    if p == 2:
        # a table of row bitsets would hold rows^2/2 bits at once
        for g in faces:
            bits = 0
            rest = g
            while rest:
                low = rest & -rest
                bits |= 1 << index[g ^ low]
                rest ^= low
            cols.append(bits)
        return cols
    for g in faces:
        col = {}
        sign = 1
        rest = g
        while rest:
            low = rest & -rest
            col[index[g ^ low]] = sign
            sign = -sign
            rest ^= low
        cols.append(col)
    return cols


class BettiTable(_FrozenRecord):
    """Reduced Betti numbers indexed from dimension -1 up to dim(complex)."""

    __slots__ = ("betti", "field")

    def __init__(self, betti: tuple[int, ...], field: FieldSpec):
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "field", field)

    def b(self, i: int) -> int:
        """beta_i, zero outside the stored range."""
        j = i + 1
        return self.betti[j] if 0 <= j < len(self.betti) else 0

    @property
    def top_dim(self) -> int:
        return len(self.betti) - 2

    def reduced_euler(self) -> int:
        return sum(_sign(i) * self.b(i) for i in range(-1, self.top_dim + 1))

    def items(self) -> list[tuple[int, int]]:
        return [(i - 1, b) for i, b in enumerate(self.betti)]


def _forest_size(vertices: Sequence[int], edges: Sequence[int], cleared: Container[int]) -> int:
    """Number of edges in a spanning forest of the graph on the vertices,
    the edges at the positions in cleared left out: union-find with path
    halving. It is the rank of that graph's incidence matrix over every field."""
    root = {v: v for v in vertices}
    kept = 0
    for j, e in enumerate(edges):
        if j in cleared:
            continue
        a = e & -e
        b = e ^ a
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a != b:
            root[a] = b
            kept += 1
    return kept


def _betti_numbers(masks_by_card: Sequence[Sequence[int]], p: int) -> tuple[int, ...]:
    """Reduced Betti numbers over GF(p), or Q for p = 0, from dimension -1 up,
    of the complex whose c-faces are masks_by_card[c].

    Top-down with clearing: a pivot row of del_{c+1} is a c-face whose
    column in del_c reduces to zero, so that column is skipped. The rank of
    del_c is still the number of its pivots. Only del_c for c >= 3 is
    column-reduced. del_2 is the incidence matrix of the graph of the
    uncleared edges, whose rank over every field is the number of edges a
    spanning forest keeps (V minus the number of components). del_1, the
    augmentation, has rank 1 when there is a vertex. So a complex of
    dimension 1 or less builds no matrix.
    """
    top = len(masks_by_card) - 1
    ranks = [0] * (top + 2)  # ranks[c] = rank of del: card c -> card c-1
    pivots: set[int] = set()
    for c in range(top, 2, -1):
        cols = boundary_matrix(masks_by_card, c, p, pivots)
        pivots = rank_mod(cols, p) if p else rank_rational(cols)
        ranks[c] = len(pivots)
    if top >= 2:
        ranks[2] = _forest_size(masks_by_card[1], masks_by_card[2], pivots)
    if top >= 1 and masks_by_card[1]:
        ranks[1] = 1
    return tuple(len(masks_by_card[c]) - ranks[c] - ranks[c + 1] for c in range(top + 1))


def reduced_betti(cx: Complex, field: FieldSpec = FieldSpec(0)) -> BettiTable:
    """Reduced Betti numbers of the complex over the given field."""
    return BettiTable(_betti_numbers(cx.masks_by_card, field.characteristic), field)


class ManifoldVerdict(_FrozenRecord):
    """Outcome of the homology-manifold test, with a witness on failure."""

    __slots__ = ("is_manifold", "witness", "witness_betti", "field")

    def __init__(
        self, is_manifold: bool, witness: FaceTuple | None,
        witness_betti: BettiTable | None, field: FieldSpec,
    ):
        object.__setattr__(self, "is_manifold", is_manifold)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "witness_betti", witness_betti)
        object.__setattr__(self, "field", field)


def _link_betti_ok(betti: BettiTable, sphere_dim: int) -> bool:
    # ball-or-sphere of dimension sphere_dim: all beta_i vanish for
    # i != sphere_dim, and beta at sphere_dim is 0 (ball) or 1 (sphere)
    for i in range(-1, betti.top_dim + 1):
        b = betti.b(i)
        if i == sphere_dim:
            if b not in (0, 1):
                return False
        elif b != 0:
            return False
    return True


def _compressed(facets: Sequence[int]) -> tuple[tuple[int, ...], list[int]]:
    """The masks moved onto the vertices of their union, its i-th lowest
    vertex becoming bit i, and that union's vertex bits in increasing
    order. The map is monotone, so a sorted list stays sorted."""
    union = 0
    for g in facets:
        union |= g
    bit = {}
    while union:
        low = union & -union
        bit[low] = 1 << len(bit)
        union ^= low
    out = []
    for g in facets:
        c = 0
        while g:
            low = g & -g
            c |= bit[low]
            g ^= low
        out.append(c)
    return tuple(out), list(bit)


def _scan_links(cx: Complex, field: FieldSpec) -> dict[int, BettiTable]:
    """Link Betti tables of the non-empty faces in (card, mask) order,
    up to and including the first link without ball or sphere homology.

    A link's key is its facet list moved onto its own vertices, order kept:
    equal keys mean links equal up to a relabelling, so equal Betti numbers
    over every field. Each cardinality numbers its keys in order of first
    sight; a link travels as its class, that number, and its vertex bits in
    increasing order. Only a class new to its cardinality is closed, by
    complexes._closure, which returns the face index alone, and computed.

    Each face F is made from its parent P = F - v, v the lowest vertex of
    F: v is a vertex of lk P below P's lowest. Taking the parents in mask
    order, and each one's such link vertices in increasing order, makes
    the faces in mask order, as masks of one size compare like their bits
    read from the top; a face with no such link vertex is no parent. The
    vertices are the children of the empty face, and a vertex's key is
    compressed from its star, the facets at it: the list of stars by bit
    position that complexes._stars makes, kept on the complex, where
    Complex.link_mask reads it too.

    facets(lk F) = {G - v : G in facets(lk P), v in G}, so lk F's key
    depends only on lk P's key and on i, the position of v among lk P's
    vertices: it is the compression of the key's facets that hold bit i,
    less that bit, and the positions among lk P's vertices that those
    facets keep give lk F's vertices. A memo per cardinality maps (class of
    P, i) to lk F's class and those positions, so a face costs a lookup
    and a list of at most n vertices, and _compressed runs once per pair:
    d(d + 1) times on cp_d.

    Over Q a link's numbers come from GF(2) unless those are nonzero in
    more than one degree: GF(2) numbers bound the Q numbers from above
    degree by degree and have the same alternating sum, so when they are
    nonzero in one degree only they are the Q numbers.
    """
    scan: dict[int, BettiTable] = {}
    p = field.characteristic
    d = cx.d
    stars = cx._derive("facet stars", _facet_stars)
    classes: dict[tuple[int, ...], int] = {}  # key -> class, numbered in order
    level = [(0, 0, cx.masks_by_card[1])] if d else []  # parents: (face, class, link bits)
    for card in range(1, len(cx.masks_by_card)):
        sphere_dim = d - 1 - card
        # the keys one cardinality down, listed by class
        parent_keys, classes = list(classes), {}
        steps: dict[tuple[int, int], tuple[int, list[int]]] = {}
        tables: list[tuple[BettiTable, bool]] = []  # class -> (table, ok)
        children: list[tuple[int, int, list[int]]] = []
        for parent, parent_cls, parent_bits in level:
            for i, v in enumerate(parent_bits):
                if parent & (v - 1):  # v is above the parent's lowest vertex
                    break
                fmask = parent | v
                if card == 1:
                    key, bits = _compressed([g ^ v for g in stars[v.bit_length() - 1]])
                    cls = classes.setdefault(key, len(classes))
                else:
                    step = steps.get((parent_cls, i))
                    if step is None:
                        b = 1 << i
                        key, kept = _compressed([g ^ b for g in parent_keys[parent_cls] if g & b])
                        cls = classes.setdefault(key, len(classes))
                        step = steps[parent_cls, i] = (cls, [k.bit_length() - 1 for k in kept])
                    cls, kept = step
                    # only a link with a vertex below v can have children
                    bits = [parent_bits[j] for j in kept] if kept and kept[0] < i else None
                if cls == len(tables):
                    # a class new to this cardinality, so key is its key: the
                    # relabelled link, on the complex's lowest vertices
                    link = _closure(key, cx.num_faces)[1]  # no more faces than cx
                    numbers = _betti_numbers(link, p or 2)
                    if not p and len(numbers) - numbers.count(0) > 1:
                        numbers = _betti_numbers(link, 0)
                    betti = BettiTable(numbers, field)
                    tables.append((betti, _link_betti_ok(betti, sphere_dim)))
                betti, ok = tables[cls]
                scan[fmask] = betti
                if not ok:
                    return scan
                if bits and bits[0] < v:
                    children.append((fmask, cls, bits))
        level = children
    return scan


def _link_scan(cx: Complex, field: FieldSpec) -> dict[int, BettiTable]:
    # one scan per field, kept on the complex: the manifold test and the
    # boundary split read the same scan
    return cx._derive(("link scan", field), lambda cx: _scan_links(cx, field))


def is_homology_manifold(cx: Complex, field: FieldSpec = FieldSpec(0)) -> ManifoldVerdict:
    """Check that every non-empty face's link has ball or sphere homology.

    The link of F must have vanishing reduced homology below dimension
    d-1-|F| and either 0 or the field itself there; everything above is
    checked to vanish as well. The witness is the first failing face in
    (cardinality, mask) order.
    """
    scan = _link_scan(cx, field)
    if scan:
        fmask, betti = next(reversed(scan.items()))  # only the last can fail
        if not _link_betti_ok(betti, cx.d - 1 - fmask.bit_count()):
            return ManifoldVerdict(False, cx.mask_vertices(fmask), betti, field)
    return ManifoldVerdict(True, None, None, field)


def boundary_faces_homological(
    cx: Complex, field: FieldSpec = FieldSpec(0)
) -> tuple[FaceTuple, ...]:
    """Boundary faces of a homology manifold: links with ball homology.

    Returns the empty face plus every non-empty F whose link has vanishing
    homology in dimension d-1-|F|. Raises PreconditionError at the first
    face whose link fails, the witness is_homology_manifold reports.
    """
    verdict = is_homology_manifold(cx, field)
    if not verdict.is_manifold:
        raise PreconditionError("complex is not a homology manifold", verdict.witness)
    out: list[FaceTuple] = [()]
    d = cx.d
    # every link passed, so beta at sphere_dim is 0 (ball) or 1 (sphere)
    for fmask, betti in _link_scan(cx, field).items():
        if betti.b(d - 1 - fmask.bit_count()) == 0:
            out.append(cx.mask_vertices(fmask))
    return tuple(out)


def is_downward_closed(faces: tuple[FaceTuple, ...]) -> bool:
    """Whether a face collection is a subcomplex (every subset present).

    Informational helper for reporting on the boundary-face structure of
    reciprocal complexes; the library takes no stance on the question.
    """
    have = {frozenset(f) for f in faces}
    for f in have:
        for v in f:
            if f - {v} not in have:
                return False
    return True

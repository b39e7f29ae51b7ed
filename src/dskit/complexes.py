"""Abstract simplicial complexes stored as bit sets over dense vertex labels.

Vertex ids are names: any positive integers, however large. A complex
relabels them once, at construction: its sorted ids sit in the tuple
`labels`, and vertex labels[i] is bit i of a face mask, so a mask has one
bit per vertex whatever the ids are. The relabelling preserves order, so
mask order is the order of the external vertex tuples. A link keeps its
parent's labels. The empty face is mask 0 and belongs to every complex.

The faces are kept once, in `masks_by_card`: masks_by_card[c] is the
sorted tuple of the c-face masks. It is the one face index: a face is
found, and its position j read, by bisection in its group, and per-face
data elsewhere (the rows of a MultiplicityTable) is aligned with it.

Every face index, of a complex, a link or a link class of the manifold
scan, is built by one closure, _closure. It walks each facet's submasks
and skips those an earlier facet closed, so its work is at most d + 1
visits per face, however much the facets overlap, and the face-count cap
is checked after every facet. Vertex stars, the masks that hold each
vertex bit, are listed by one helper, _stars, for the facets of a link,
the manifold scan and the grid sweep's coloring, and for the faces of
the multiplicity sweep's table.

Public APIs accept and return faces as sorted vertex tuples;
Complex.face_mask and Complex.mask_vertices convert, and the mask layer
is exposed for the enumeration-heavy modules.

Text format .cplx: UTF-8, '#' starts a comment line, every other
non-blank line is one facet as space-separated positive integers; an
empty file denotes the complex {emptyset}. The writer emits facets in
lexicographic vertex order.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, ParseError, ResourceLimitError, ValidationError, _checked_int

DEFAULT_MAX_FACES = 1 << 24
MAX_FACES_ENV = "DSKIT_MAX_FACES"

FaceTuple = tuple[int, ...]
FaceIndex = tuple[tuple[int, ...], ...]  # masks_by_card: the c-face masks, sorted, per c


def _checked_vertices(face: Iterable[int]) -> list[int]:
    """Vertex ids of a face as ints; rejects non-integers, non-positive ids
    and duplicates."""
    out = [_checked_int(v, "vertex id") for v in face]
    if out and min(out) <= 0:
        bad = next(v for v in out if v <= 0)
        raise ValidationError(f"vertex id must be positive, got {bad}")
    if len(set(out)) != len(out):
        raise ValidationError("duplicate vertex in face")
    return out


def _effective_max_faces(max_faces: int | None) -> int:
    """max_faces, else DSKIT_MAX_FACES, else the default; at least 1, the empty face."""
    if max_faces is None:
        env = os.environ.get(MAX_FACES_ENV, str(DEFAULT_MAX_FACES))
        try:
            max_faces = int(env)
        except ValueError:
            raise ValidationError(f"{MAX_FACES_ENV} must be an integer, got {env!r}")
    if max_faces < 1:
        raise ValidationError(f"face-count cap must be at least 1, got {max_faces}")
    return max_faces


class Complex:
    """Immutable abstract simplicial complex with its faces enumerated once."""

    __slots__ = (
        "facet_masks",
        "masks_by_card",
        "labels",
        "n",
        "d",
        "vertex_mask",
        "_derived",
    )

    def __init__(self, facet_masks: tuple[int, ...], masks_by_card: FaceIndex, labels: FaceTuple):
        # internal: inputs are a reduced facet list and its face index, as
        # _closure returns them, over bit positions of labels (labels[i] is
        # the id of bit i)
        self.facet_masks = facet_masks
        self.masks_by_card = masks_by_card
        self.labels = labels
        self.vertex_mask = 0
        for m in facet_masks:
            self.vertex_mask |= m
        self.n = self.vertex_mask.bit_count()
        self.d = len(masks_by_card) - 1  # d = 1 + dim(complex); dim(emptyset) = -1
        self._derived: dict | None = None  # see _derive, lazy

    @classmethod
    def from_facets(
        cls, facets: Iterable[Iterable[int]], max_faces: int | None = None
    ) -> Complex:
        """Downward closure of a facet list; contained facets are absorbed.

        An empty facet list yields the complex {emptyset}.
        """
        cap = _effective_max_faces(max_faces)
        checked = []
        for f in facets:
            vs = _checked_vertices(f)
            if not vs:
                raise ValidationError(
                    "empty facet line not allowed; an empty facet list means {emptyset}"
                )
            checked.append(vs)
        return cls._from_checked_facets(checked, cap)

    @classmethod
    def _from_checked_facets(cls, facets: list[list[int]], cap: int) -> Complex:
        """Downward closure of non-empty facets of positive, distinct int ids."""
        labels = tuple(sorted({v for vs in facets for v in vs}))
        bit = {v: 1 << i for i, v in enumerate(labels)}
        masks = {sum(map(bit.__getitem__, vs)) for vs in facets}
        return cls(*_closure(sorted(masks, key=int.bit_count, reverse=True), cap), labels)

    def _derive(self, key, compute=None):
        """compute(self), run once and kept under key; without compute, a lookup.

        For data that other modules derive from the faces: the faces never
        change, so neither does the result. Keep nothing that refers back
        to the complex, which would make a reference cycle. There is no
        lock: threads that race here may each compute, and get equal
        results.
        """
        derived = self._derived
        if derived is None:
            derived = self._derived = {}
        value = derived.get(key)
        if value is None and compute is not None:
            value = derived[key] = compute(self)
        return value

    # -- vertex ids <-> masks ----------------------------------------------

    def face_mask(self, face: Iterable[int]) -> int:
        """Mask of a face given by vertex ids; DomainError unless it is a face.

        Non-positive ids and duplicates are a ValidationError.
        """
        vs = _checked_vertices(face)
        labels = self.labels
        mask = 0
        for v in vs:
            i = bisect_left(labels, v)
            if i == len(labels) or labels[i] != v:
                break  # an id this complex has no bit for
            mask |= 1 << i
        else:
            if self._position(mask) is not None:
                return mask
        raise DomainError(f"face {tuple(sorted(vs))} is not in the complex")

    def _position(self, mask: int) -> int | None:
        """Index of a face mask in masks_by_card[mask.bit_count()], None if no face.

        A negative mask, or one with bits past the labels, equals no entry.
        """
        groups = self.masks_by_card
        card = mask.bit_count()
        if card < len(groups):
            group = groups[card]
            j = bisect_left(group, mask)
            if j < len(group) and group[j] == mask:
                return j
        return None

    def mask_vertices(self, mask: int) -> FaceTuple:
        """Sorted vertex tuple of a face mask."""
        labels = self.labels
        out = []
        while mask:
            low = mask & -mask
            out.append(labels[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    # -- queries ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.d - 1

    @property
    def num_faces(self) -> int:
        return sum(map(len, self.masks_by_card))

    @property
    def vertices(self) -> FaceTuple:
        return self.mask_vertices(self.vertex_mask)

    @property
    def facets(self) -> tuple[FaceTuple, ...]:
        return tuple(sorted(self.mask_vertices(m) for m in self.facet_masks))

    def is_pure(self) -> bool:
        cards = {m.bit_count() for m in self.facet_masks}
        return len(cards) == 1

    def faces(self) -> Iterator[FaceTuple]:
        """All faces including (), ordered by cardinality then mask."""
        for group in self.masks_by_card:
            for m in group:
                yield self.mask_vertices(m)

    def link_mask(self, fmask: int) -> Complex:
        if self._position(fmask) is None:
            # a mask with bits past the labels names no vertices to show
            face = hex(fmask) if fmask >> len(self.labels) else self.mask_vertices(fmask)
            raise DomainError(f"face {face} is not in the complex")
        if fmask == 0:
            return self
        stars = self._derive("facet stars", _facet_stars)
        # the facets containing F, minus F, are the link's facets and already
        # an antichain; the link never has more faces than the complex, and
        # it keeps this complex's labels
        star = [g ^ fmask for g in stars[(fmask & -fmask).bit_length() - 1] if g & fmask == fmask]
        return Complex(*_closure(star, self.num_faces), self.labels)

    def link(self, face: Iterable[int]) -> Complex:
        """Link of a face: {G : G disjoint from F, G union F in the complex}."""
        return self.link_mask(self.face_mask(face))

    # two complexes are equal when their faces, as vertex-id tuples, are;
    # masks alone are not enough, since {1 2} and {1 3} both have mask 0b11
    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, Complex):
            return NotImplemented
        return self.facets == other.facets

    def __hash__(self) -> int:
        # equal complexes share their vertices and face count, and these
        # cost far less than the sorted facets
        return hash((self.vertices, self.num_faces))

    def __repr__(self) -> str:
        return f"Complex(n={self.n}, dim={self.dim}, faces={self.num_faces})"


def _closure(masks: Sequence[int], cap: int) -> tuple[tuple[int, ...], FaceIndex]:
    """(facets, masks_by_card) of the downward closure of distinct facet
    masks, in non-increasing size: the sorted maximal masks, and the faces
    grouped by cardinality, each group sorted.

    A mask already in the closure lies in a larger facet and is absorbed;
    an antichain, such as a link's facets, may come in any order.

    faces maps each face to the number k of the facet that first reached
    it, so one setdefault both tests and marks. Facet k walks its
    submasks in decreasing order, sub = (sub - 1) & g. The face set is
    downward closed after every facet, so a submask marked by an earlier
    facet has all its subsets present, among them the run that follows
    it in this order: the submasks that keep sub's bits from low up,
    low being the lowest bit of g ^ sub, the lowest bit of g missing
    from sub. The walk skips that run: sub &= -(g ^ sub) clears sub's
    bits below low. Each new face is visited once, and after one the
    walk meets at most |g| present submasks in a row, since each skip
    clears one more bit of sub. So the closure makes at most
    (d + 1) * faces visits, not the sum of 2^|g| over the facets, and
    the face set after each facet, which the cap checks, is the same as
    a full walk's.
    """
    faces = {0: -1}
    mark = faces.setdefault
    maximal = []
    for k, g in enumerate(masks):
        if mark(g, k) != k:
            continue
        maximal.append(g)
        # a facet with more subsets than the cap exceeds it alone and is
        # not listed, so the face set never outgrows twice the cap
        too_big = g.bit_count() >= cap.bit_length()
        sub = 0 if too_big else (g - 1) & g
        while sub:
            if mark(sub, k) != k:
                sub &= -(g ^ sub)
                if not sub:
                    break
            sub = (sub - 1) & g
        if too_big or len(faces) > cap:
            raise ResourceLimitError(
                f"face count exceeds cap {cap}; raise --max-faces/"
                f"{MAX_FACES_ENV} if intended"
            )
    by_card: list[list[int]] = [[] for _ in range(max(map(int.bit_count, maximal), default=0) + 1)]
    for m in faces:
        by_card[m.bit_count()].append(m)
    return tuple(sorted(maximal)) or (0,), tuple(tuple(sorted(g)) for g in by_card)


def _stars(masks: Iterable[int], width: int) -> list[list[int]]:
    """stars[i]: the masks that hold bit i, in the order given, for i below
    width, which must exceed every mask's top bit."""
    stars: list[list[int]] = [[] for _ in range(width)]
    for g in masks:
        rest = g
        while rest:
            i = rest.bit_length() - 1
            stars[i].append(g)
            rest ^= 1 << i
    return stars


def _facet_stars(cx: Complex) -> list[list[int]]:
    """The facet masks that hold each vertex bit, indexed by bit position."""
    return _stars(cx.facet_masks, cx.vertex_mask.bit_length())


def _prefix_walk(cx: Complex, labels: Sequence, sep) -> Iterator[list]:
    """One value per non-empty face, a list per cardinality from 1 up,
    aligned with cx.masks_by_card[1:].

    A vertex's value is labels[i], i its bit; a larger face's value is the
    value of the face minus its top vertex, one cardinality down, then
    sep, then labels[top]. With 1-tuples and () the values are the face
    tuples; with strs they are the faces' texts; with ints and 0 they are
    sums over the faces' vertices: with place values per vertex color, a
    face's place in a mixed-radix lattice, such as the flag walk's b or
    the cell of the multiplicity sweep's color-class grid.
    """
    ext = [sep + x for x in labels]
    step = labels
    below = {0: sep * 0}  # the empty face: "", () or 0, after sep's type
    for group in cx.masks_by_card[1:]:
        values = {}
        for mask in group:
            top = mask.bit_length() - 1
            values[mask] = below[mask ^ (1 << top)] + step[top]
        yield list(values.values())
        below = values
        step = ext


def from_facets(facets: Iterable[Iterable[int]], max_faces: int | None = None) -> Complex:
    """Module-level alias of Complex.from_facets."""
    return Complex.from_facets(facets, max_faces=max_faces)


# -- .cplx / .colors text formats ---------------------------------------


def parse_cplx(text: str, max_faces: int | None = None) -> Complex:
    """Parse the .cplx facet format; raises ParseError with a line number."""
    facets = []
    plain_text = _plain(text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        plain = plain_text or _plain(line)
        facet = []
        for tok in line.split():
            try:
                if not (plain or _is_decimal(tok)):
                    raise ValueError
                v = int(tok)
            except ValueError:
                raise ParseError(f"expected integer vertex id, got {tok!r}", lineno)
            if v <= 0:
                raise ParseError(f"vertex ids must be positive, got {v}", lineno)
            facet.append(v)
        if len(set(facet)) != len(facet):
            raise ParseError("duplicate vertex in facet", lineno)
        facets.append(facet)
    # every facet is checked above: positive, distinct ints, never empty
    return Complex._from_checked_facets(facets, _effective_max_faces(max_faces))


def _plain(text: str) -> bool:
    """Whether int() reads every token of text as _is_decimal would; it
    also takes '+', '_' and non-ASCII digits. The parsers check the whole
    text, then each line, and test tokens only on a line that holds one."""
    return text.isascii() and "+" not in text and "_" not in text


def _is_decimal(tok: str) -> bool:
    """Whether tok is ASCII decimal digits, after at most one leading '-'."""
    digits = tok[1:] if tok[:1] == "-" else tok
    return digits.isascii() and digits.isdigit()


def _decode_utf8(data: bytes) -> str:
    """Strict UTF-8 text of raw input bytes; any bad byte is a ParseError."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def read_cplx(path: str, max_faces: int | None = None) -> Complex:
    with open(path, "rb") as fh:
        return parse_cplx(_decode_utf8(fh.read()), max_faces=max_faces)


def write_cplx(cx: Complex) -> str:
    """Deterministic .cplx text: facets sorted lexicographically."""
    lines = []
    for facet in cx.facets:
        if facet:
            lines.append(" ".join(str(v) for v in facet))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_colors(text: str) -> dict[int, int]:
    """Parse the .colors sidecar: lines of 'vertex color'."""
    kappa: dict[int, int] = {}
    plain_text = _plain(text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'vertex color'", lineno)
        try:
            if not (plain_text or _plain(line) or (_is_decimal(parts[0]) and _is_decimal(parts[1]))):
                raise ValueError
            v, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"expected integers, got {line!r}", lineno)
        if v <= 0 or c <= 0:
            raise ParseError("vertex and color must be positive", lineno)
        if v in kappa:
            raise ParseError(f"vertex {v} colored twice", lineno)
        kappa[v] = c
    return kappa


def write_colors(kappa: dict[int, int]) -> str:
    lines = [f"{v} {kappa[v]}" for v in sorted(kappa)]
    return "\n".join(lines) + ("\n" if lines else "")

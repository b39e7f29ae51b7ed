"""Abstract simplicial complexes stored as bit sets over the vertex universe.

A face is internally an int bitmask: bit v-1 set <=> vertex v in the face
(vertex ids are 1-based externally, Python ints give an unbounded bit
vector). The empty face is mask 0 and belongs to every complex. Public
APIs accept and return faces as sorted vertex tuples; the mask layer is
exposed for the enumeration-heavy modules.

Text format .cplx: UTF-8, '#' starts a comment line, every other
non-blank line is one facet as space-separated positive integers; an
empty file denotes the complex {emptyset}. The writer emits facets in
lexicographic vertex order.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator

from .errors import DomainError, ParseError, ResourceLimitError, ValidationError

DEFAULT_MAX_FACES = 1 << 24
MAX_FACES_ENV = "DSKIT_MAX_FACES"

FaceTuple = tuple[int, ...]


def face_mask(vertices: Iterable[int]) -> int:
    """Bitmask of a vertex collection; rejects non-positive ids and duplicates."""
    mask = 0
    count = 0
    for v in vertices:
        v = int(v)
        if v <= 0:
            raise ValidationError(f"vertex id must be positive, got {v}")
        mask |= 1 << (v - 1)
        count += 1
    if mask.bit_count() != count:
        raise ValidationError("duplicate vertex in face")
    return mask


def mask_vertices(mask: int) -> FaceTuple:
    """Sorted vertex tuple of a face mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _effective_max_faces(max_faces: int | None) -> int:
    if max_faces is not None:
        return max_faces
    env = os.environ.get(MAX_FACES_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"{MAX_FACES_ENV} must be an integer, got {env!r}")
    return DEFAULT_MAX_FACES


class Complex:
    """Immutable abstract simplicial complex with a fully enumerated face set."""

    __slots__ = (
        "facet_masks",
        "face_set",
        "masks_by_card",
        "n",
        "d",
        "vertex_mask",
        "_stars",
        "__weakref__",
    )

    def __init__(self, facet_masks: tuple[int, ...], face_set: frozenset[int]):
        # internal: inputs are already a reduced facet list and its closure
        self.facet_masks = facet_masks
        self.face_set = face_set
        max_card = max(m.bit_count() for m in facet_masks)
        by_card: list[list[int]] = [[] for _ in range(max_card + 1)]
        for m in face_set:
            by_card[m.bit_count()].append(m)
        for group in by_card:
            group.sort()
        self.masks_by_card = tuple(tuple(g) for g in by_card)
        self.vertex_mask = 0
        for m in facet_masks:
            self.vertex_mask |= m
        self.n = self.vertex_mask.bit_count()
        self.d = max_card  # d = 1 + dim(complex); dim(emptyset) = -1
        self._stars: dict[int, list[int]] | None = None  # vertex -> facets, lazy

    @classmethod
    def from_facets(
        cls, facets: Iterable[Iterable[int]], max_faces: int | None = None
    ) -> Complex:
        """Downward closure of a facet list; contained facets are absorbed.

        An empty facet list yields the complex {emptyset}.
        """
        cap = _effective_max_faces(max_faces)
        masks = []
        for f in facets:
            m = face_mask(f)
            if m == 0:
                raise ValidationError(
                    "empty facet line not allowed; an empty facet list means {emptyset}"
                )
            masks.append(m)
        # drop duplicates and non-maximal facets
        masks = sorted(set(masks), key=lambda m: (-m.bit_count(), m))
        maximal: list[int] = []
        for m in masks:
            if not any(m & big == m for big in maximal):
                maximal.append(m)
        return cls._from_facet_masks(maximal, cap)

    @classmethod
    def _from_facet_masks(cls, maximal: list[int], cap: int) -> Complex:
        """Downward closure of an antichain of facet masks (no absorption)."""
        if not maximal:
            maximal = [0]
        faces = {0}
        add = faces.add
        for g in maximal:
            # a facet with more subsets than the cap exceeds it alone and is
            # not listed, so the face set never outgrows twice the cap
            too_big = g.bit_count() >= cap.bit_length()
            sub = 0 if too_big else g
            while sub:
                add(sub)
                sub = (sub - 1) & g
            if too_big or len(faces) > cap:
                raise ResourceLimitError(
                    f"face count exceeds cap {cap}; raise --max-faces/"
                    f"{MAX_FACES_ENV} if intended"
                )
        return cls(tuple(sorted(maximal)), frozenset(faces))

    # -- queries ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.d - 1

    @property
    def num_faces(self) -> int:
        return len(self.face_set)

    @property
    def vertices(self) -> FaceTuple:
        return mask_vertices(self.vertex_mask)

    @property
    def facets(self) -> tuple[FaceTuple, ...]:
        return tuple(sorted(mask_vertices(m) for m in self.facet_masks))

    def is_pure(self) -> bool:
        cards = {m.bit_count() for m in self.facet_masks}
        return len(cards) == 1

    def has_face(self, face: Iterable[int]) -> bool:
        try:
            return face_mask(face) in self.face_set
        except ValidationError:
            return False

    def faces(self) -> Iterator[FaceTuple]:
        """All faces including (), ordered by cardinality then mask."""
        for group in self.masks_by_card:
            for m in group:
                yield mask_vertices(m)

    def faces_by_dim(self) -> list[list[FaceTuple]]:
        """Faces grouped by dimension; index 0 holds the empty face (dim -1)."""
        return [[mask_vertices(m) for m in group] for group in self.masks_by_card]

    def link_mask(self, fmask: int) -> Complex:
        if fmask not in self.face_set:
            raise DomainError(f"face {mask_vertices(fmask)} is not in the complex")
        if fmask == 0:
            return self
        if self._stars is None:
            self._stars = {}
            for g in self.facet_masks:
                for v in mask_vertices(g):
                    self._stars.setdefault(v, []).append(g)
        # the facets containing F, minus F, are the link's facets and already
        # an antichain; the link never has more faces than the complex
        v = (fmask & -fmask).bit_length()
        star = [g ^ fmask for g in self._stars[v] if g & fmask == fmask]
        return Complex._from_facet_masks(star, len(self.face_set))

    def link(self, face: Iterable[int]) -> Complex:
        """Link of a face: {G : G disjoint from F, G union F in the complex}."""
        return self.link_mask(face_mask(face))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return self.face_set == other.face_set

    def __hash__(self) -> int:
        return hash(self.face_set)

    def __repr__(self) -> str:
        return f"Complex(n={self.n}, dim={self.dim}, faces={self.num_faces})"


def from_facets(facets: Iterable[Iterable[int]], max_faces: int | None = None) -> Complex:
    """Module-level alias of Complex.from_facets."""
    return Complex.from_facets(facets, max_faces=max_faces)


# -- .cplx / .colors text formats ---------------------------------------


def parse_cplx(text: str, max_faces: int | None = None) -> Complex:
    """Parse the .cplx facet format; raises ParseError with a line number."""
    facets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        facet = []
        for tok in line.split():
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(f"expected integer vertex id, got {tok!r}", lineno)
            if v <= 0:
                raise ParseError(f"vertex ids must be positive, got {v}", lineno)
            facet.append(v)
        if len(set(facet)) != len(facet):
            raise ParseError("duplicate vertex in facet", lineno)
        facets.append(facet)
    return Complex.from_facets(facets, max_faces=max_faces)


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'vertex color'", lineno)
        try:
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

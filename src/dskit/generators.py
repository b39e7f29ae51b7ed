"""Deterministic construction of the example complexes and seeded random ones.

Families:

    simplex-boundary d          boundary of the d-simplex (a (d-1)-sphere)
    cross-polytope-boundary d   boundary of the d-cross-polytope; vertices
                                2i-1, 2i are antipodal and share color i
    cylinder                    6-vertex triangulated annulus (manifold
                                with boundary)
    subdivided-triangle         triangle split into 3 by a center vertex
    glued-triangles k           k triangles sharing the edge {1,2}
    glued-tetrahedra k          k tetrahedra sharing the edge {1,2}
    double-banana               two octahedron boundaries glued along an
                                antipodal vertex pair
    double-banana-minus-triangle  the above minus the facet {2,4,6}
    barycentric-subdivision     of a given complex; new vertices are the
                                old non-empty faces, colored by cardinality
                                (balanced of type (1,...,1) on every base)
    random seed n density       seeded facets of mixed sizes (non-pure)

random() only consumes Random.random()/randrange(), so a fixed seed gives
bit-identical output across runs and interpreter versions.

Every family takes the face-count cap max_faces, as Complex.from_facets
does, and checks its closed-form facet count, and face count where one is
known, against it before listing a facet (_checked_cap).
"""

from __future__ import annotations

import random
from itertools import accumulate, permutations
from math import factorial
from operator import or_
from typing import NamedTuple, Sequence

from .balanced import Coloring, validate_balanced
from .complexes import MAX_FACES_ENV, Complex, _effective_max_faces
from .errors import ResourceLimitError, ValidationError


class Generated(NamedTuple):
    complex: Complex
    coloring: Coloring | None


def _checked_cap(
    max_faces: int | None, facets: int = 0, faces: int = 0,
    base: int = 2, exponent: int = 0, less: int = 0,
) -> int:
    """The face-count cap, checked against a family's closed-form counts.

    facets counts the facets, and faces, or base^exponent - less, the
    faces, the empty face included (base >= 2, less <= 1). A family over
    any count would exceed the cap anyway and fails here, before it lists
    a facet. The power is formed only for an exponent up to the bit length
    of the cap: past it the count is at least 2^(bits + 1) - 1, above the
    cap.
    """
    cap = _effective_max_faces(max_faces)
    bits = cap.bit_length()
    if facets > cap:
        count = f"{facets} facets"
    elif faces > cap:
        count = f"{faces} faces"
    elif exponent > bits:
        count = f"{base}^{exponent} - {less} faces" if less else f"{base}^{exponent} faces"
    elif base**exponent - less > cap:
        count = f"{base**exponent - less} faces"
    else:
        return cap
    raise ResourceLimitError(
        f"{count} exceed the face-count cap {cap}; raise --max-faces/"
        f"{MAX_FACES_ENV} if intended"
    )


def simplex_boundary(d: int, max_faces: int | None = None) -> Generated:
    """Boundary of the d-simplex: all d-subsets of {1..d+1}."""
    if d < 1:
        raise ValidationError("simplex-boundary needs d >= 1")
    cap = _checked_cap(max_faces, exponent=d + 1, less=1)  # every proper subset of d + 1
    verts = list(range(1, d + 2))
    facets = [verts[:i] + verts[i + 1 :] for i in range(d + 1)]
    return Generated(Complex.from_facets(facets, cap), None)


def cross_polytope_boundary(d: int, max_faces: int | None = None) -> Generated:
    """Boundary of the d-cross-polytope with its canonical coloring.

    Vertices 2i-1 and 2i form the antipodal pair of color i; every facet
    picks one vertex from each pair, so the type is (1,...,1).
    """
    if d < 1:
        raise ValidationError("cross-polytope-boundary needs d >= 1")
    cap = _checked_cap(max_faces, base=3, exponent=d)  # each pair gives none, one or the other
    facets = []
    for choice in range(1 << d):
        facets.append(
            [2 * i + 1 + ((choice >> i) & 1) for i in range(d)]
        )
    cx = Complex.from_facets(facets, cap)
    kappa = {2 * i + 1 + j: i + 1 for i in range(d) for j in (0, 1)}
    return Generated(cx, validate_balanced(cx, kappa))


CYLINDER_FACETS = ((1, 2, 4), (2, 4, 5), (2, 3, 5), (3, 5, 6), (1, 3, 6), (1, 4, 6))


def cylinder(max_faces: int | None = None) -> Generated:
    """Triangulated annulus on 6 vertices: inner rim {1,2,3}, outer {4,5,6}."""
    return Generated(Complex.from_facets(CYLINDER_FACETS, max_faces), None)


def subdivided_triangle(max_faces: int | None = None) -> Generated:
    """Triangle {1,2,3} subdivided by the center vertex 4."""
    facets = [(1, 2, 4), (1, 3, 4), (2, 3, 4)]
    return Generated(Complex.from_facets(facets, max_faces), None)


def glued_triangles(k: int = 3, max_faces: int | None = None) -> Generated:
    """k triangles glued along the common edge {1,2}."""
    if k < 2:
        raise ValidationError("glued-triangles needs k >= 2")
    # the empty face, k + 2 vertices, 2k + 1 edges and k triangles
    cap = _checked_cap(max_faces, k, 4 * k + 4)
    facets = [(1, 2, 2 + i) for i in range(1, k + 1)]
    return Generated(Complex.from_facets(facets, cap), None)


def glued_tetrahedra(k: int = 3, max_faces: int | None = None) -> Generated:
    """k tetrahedra glued along the common edge {1,2}."""
    if k < 2:
        raise ValidationError("glued-tetrahedra needs k >= 2")
    # the empty face, 2k + 2 vertices, 5k + 1 edges, 4k triangles, k tetrahedra
    cap = _checked_cap(max_faces, k, 12 * k + 4)
    facets = [(1, 2, 2 * i + 1, 2 * i + 2) for i in range(1, k + 1)]
    return Generated(Complex.from_facets(facets, cap), None)


def _double_banana_facets() -> list[tuple[int, ...]]:
    first = cross_polytope_boundary(3)
    # second copy on 7..12 glued along its antipodal pair (7,8) -> (1,2);
    # remaining vertices relabel downward: 9,10,11,12 -> 7,8,9,10
    relabel = {7: 1, 8: 2, 9: 7, 10: 8, 11: 9, 12: 10}
    facets = list(first.complex.facets)
    for facet in first.complex.facets:
        facets.append(tuple(sorted(relabel[v + 6] for v in facet)))
    return facets


def _double_banana_coloring() -> dict[int, int]:
    # copy-1 pairs (1,2),(3,4),(5,6) colored 1,2,3; copy-2 pairs after
    # relabelling are (1,2),(7,8),(9,10), inheriting colors 1,2,3
    kappa = {1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3}
    kappa.update({7: 2, 8: 2, 9: 3, 10: 3})
    return kappa


def double_banana(max_faces: int | None = None) -> Generated:
    """Two octahedron boundaries glued along one antipodal vertex pair."""
    cx = Complex.from_facets(_double_banana_facets(), max_faces)
    return Generated(cx, validate_balanced(cx, _double_banana_coloring()))


def double_banana_minus_triangle(max_faces: int | None = None) -> Generated:
    """Double banana with the facet {2,4,6} removed (reciprocal, has boundary)."""
    facets = [f for f in _double_banana_facets() if f != (2, 4, 6)]
    cx = Complex.from_facets(facets, max_faces)
    return Generated(cx, validate_balanced(cx, _double_banana_coloring()))


def _vertex_bits(g: int) -> list[int]:
    """The one-bit masks of g, in increasing order."""
    out = []
    while g:
        out.append(g & -g)
        g &= g - 1
    return out


def _chain_counts(n: int) -> list[int]:
    """For m = 0..n, the chains of non-empty sets that end at an m-set.

    Such a chain adds the set's elements block by block, so for m >= 1 it
    is an ordered partition, counted by the Fubini number: the sum over k
    of T(m, k), the surjections of an m-set onto a k-set, where
    T(m, k) = k (T(m-1, k) + T(m-1, k-1)) as the last element joins one of
    k blocks that the others reach, or is alone in one. The empty set ends
    no such chain.
    """
    out, row = [0], [1]  # row[k] = T(m, k)
    for m in range(1, n + 1):
        row = [0] + [k * ((row[k] if k < m else 0) + row[k - 1]) for k in range(1, m + 1)]
        out.append(sum(row))
    return out


def barycentric_subdivision(cx: Complex, max_faces: int | None = None) -> Generated:
    """Barycentric subdivision: vertices are old faces, facets are chains.

    New vertex ids follow cardinality-then-mask order of the old faces.
    The cardinality coloring makes the result balanced of type (1,...,1),
    d ones, on every base: a chain has at most one face of each size, and
    a facet of the base's largest size ends a chain of d faces. On a pure
    base every facet has one vertex of each color.
    """
    # one facet per maximal chain: |G|! of them end at each facet G. The
    # faces are the empty face and the chains, and each chain ends at one
    # face F, so there are 1 + the sum over faces F of chains(|F|)
    faces = 1 + sum(len(group) * n for group, n in zip(cx.masks_by_card, _chain_counts(cx.d)))
    cap = _checked_cap(max_faces, sum(factorial(g.bit_count()) for g in cx.facet_masks), faces)
    old_faces = [m for group in cx.masks_by_card[1:] for m in group]
    if not old_faces:
        return Generated(Complex.from_facets([], cap), None)
    vid = {m: i + 1 for i, m in enumerate(old_faces)}
    # a maximal chain ending at G adds G's vertices one at a time: the
    # running unions of an ordering of its bits, taken in lexicographic order
    facets = [
        tuple(vid[m] for m in accumulate(order, or_))
        for g in cx.facet_masks
        for order in permutations(_vertex_bits(g))
    ]
    sd = Complex.from_facets(facets, cap)
    kappa = {vid[m]: m.bit_count() for m in old_faces}
    return Generated(sd, validate_balanced(sd, kappa, a=(1,) * cx.d))


def random_complex(
    seed: int, n: int, density: float, max_faces: int | None = None
) -> Generated:
    """Seeded random complex with facets of mixed sizes (often non-pure).

    It draws max(1, round(2 n density)) facets, a count taken in floating
    point; the cap bounds that number.
    """
    if n < 1:
        raise ValidationError("random needs n >= 1")
    if not 0 < density <= 1:
        raise ValidationError("density must be in (0, 1]")
    try:
        draws = max(1, round(density * 2 * n))
    except OverflowError:  # n, or the product, is beyond the float range
        raise ValidationError("random needs 2 * n * density to fit a float") from None
    cap = _checked_cap(max_faces, draws)
    rng = random.Random(seed)
    max_size = min(n, 6)
    facets = []
    for _ in range(draws):
        size = 1 + rng.randrange(max_size)
        verts: set[int] = set()
        while len(verts) < size:
            verts.add(1 + rng.randrange(n))
        facets.append(sorted(verts))
    return Generated(Complex.from_facets(facets, cap), None)


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValidationError(f"expected integer parameter, got {tok!r}")


def _density(tok: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ValidationError(f"expected float density, got {tok!r}")


# CLI name -> (family, parsers of its string parameters); None marks the
# glued families' optional k, and barycentric-subdivision takes its input
# complex instead of parameters
_FAMILIES = {
    "simplex-boundary": (simplex_boundary, (_int,)),
    "cross-polytope-boundary": (cross_polytope_boundary, (_int,)),
    "cylinder": (cylinder, ()),
    "subdivided-triangle": (subdivided_triangle, ()),
    "glued-triangles": (glued_triangles, None),
    "glued-tetrahedra": (glued_tetrahedra, None),
    "double-banana": (double_banana, ()),
    "double-banana-minus-triangle": (double_banana_minus_triangle, ()),
    "barycentric-subdivision": (barycentric_subdivision, ()),
    "random": (random_complex, (_int, _int, _density)),
}
FAMILIES = tuple(_FAMILIES)


def gen(
    family: str,
    params: Sequence[str] = (),
    base: Complex | None = None,
    max_faces: int | None = None,
) -> Generated:
    """Dispatch a family by CLI name with string parameters and a face-count cap."""
    if family not in _FAMILIES:
        raise ValidationError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    build, parsers = _FAMILIES[family]
    if parsers is None:
        if len(params) > 1:
            raise ValidationError(
                f"family {family!r} takes 0 or 1 parameter(s), got {len(params)}"
            )
        return build(_int(params[0]) if params else 3, max_faces)
    if build is barycentric_subdivision and base is None:
        raise ValidationError("barycentric-subdivision needs an input complex")
    if len(params) != len(parsers):
        raise ValidationError(
            f"family {family!r} takes {len(parsers)} parameter(s), got {len(params)}"
        )
    args = [parse(tok) for parse, tok in zip(parsers, params)]
    if build is barycentric_subdivision:
        args = [base]
    return build(*args, max_faces=max_faces)

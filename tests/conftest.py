"""Shared fixtures: independent brute-force oracles and test corpora.

The oracles deliberately avoid the library's code paths: polynomials are
bare coefficient lists multiplied term by term, complexes are sets of
frozensets closed by explicit subset enumeration, and matrix ranks use
dense Fraction or mod-p Gaussian elimination on row lists (the library uses
bitmasks, binomial closed forms and a sparse pivot-table column reduction).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import strategies as st

from dskit import balanced, generators
from dskit.balanced import b_of, flag_f
from dskit.complexes import Complex
from dskit.enumeration import multiplicities
from dskit.errors import DomainError, ValidationError
from dskit.poly import MPoly, exponents_below

# -- polynomial oracle (plain coefficient lists) --------------------------


def opoly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def opoly_add(a, b):
    n = max(len(a), len(b))
    return opoly_trim([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)])


def opoly_scale(a, c):
    return opoly_trim([c * x for x in a])


def opoly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1 or 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return opoly_trim(out)


def opoly_pow(a, k):
    out = [1]
    for _ in range(k):
        out = opoly_mul(out, a)
    return out


def opoly_eq(a, b):
    return opoly_trim(list(a)) == opoly_trim(list(b))


def odelta_expand(coeffs):
    """sum_i c_i (x+1)^i x^(d-i) by repeated multiplication."""
    d = len(coeffs) - 1
    acc = [0]
    for i, c in enumerate(coeffs):
        term = opoly_mul(opoly_pow([1, 1], i), opoly_pow([0, 1], d - i))
        acc = opoly_add(acc, opoly_scale(term, c))
    return acc


# -- multivariate oracle (dicts of exponent tuples) ------------------------


def ompoly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ompoly_scale(a, c):
    return {e: c * x for e, x in a.items() if c * x}


def ompoly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ompoly_pow(a, k, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = ompoly_mul(out, a)
    return out


def omvar(i, nvars):
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): 1}


def omdelta_element(b, a):
    """x^b (x+1)^(a-b) by repeated multiplication."""
    m = len(a)
    acc = {(0,) * m: 1}
    for i in range(m):
        acc = ompoly_mul(acc, ompoly_pow(omvar(i, m), b[i], m))
        xp1 = ompoly_add(omvar(i, m), {(0,) * m: 1})
        acc = ompoly_mul(acc, ompoly_pow(xp1, a[i] - b[i], m))
    return acc


def mcomb(u, v):
    """Multi-binomial prod_i C(u_i, v_i); zero when some v_i > u_i or v_i < 0."""
    acc = 1
    for ui, vi in zip(u, v):
        if vi < 0 or vi > ui:
            return 0
        acc *= comb(ui, vi)
    return acc


# -- complex oracle (sets of frozensets) -----------------------------------


def oclosure(facets):
    faces = {frozenset()}
    for f in facets:
        f = frozenset(f)
        for k in range(len(f) + 1):
            faces.update(frozenset(c) for c in combinations(sorted(f), k))
    return faces


def omaximal(facets):
    """The facets no other facet strictly contains, as sorted tuples."""
    sets = {frozenset(f) for f in facets}
    return tuple(sorted(tuple(sorted(f)) for f in sets if not any(f < g for g in sets)))


def olink(faces, f):
    f = frozenset(f)
    return {g for g in faces if not (g & f) and (g | f) in faces}


def ochi_reduced(faces):
    return sum((-1) ** (len(g) - 1) for g in faces)


def om_f(faces, f, d):
    """Multiplicity by the raw superset-sum definition."""
    f = frozenset(f)
    return sum((-1) ** (d - len(g)) for g in faces if f <= g)


def ofaces_of(cx: Complex):
    return {frozenset(face) for face in cx.faces()}


# -- homology oracle (Fraction Gaussian elimination) ------------------------


def orank(rows):
    if not rows or not rows[0]:
        return 0
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / lead[col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], lead)]
        rank += 1
    return rank


def orank_mod(rows, p):
    """Rank over GF(p) by dense row reduction."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        lead = [x * inv % p for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col]
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], lead)]
        rank += 1
    return rank


def opivot_rows(rows, rank):
    """Pivot rows of any column reduction that pivots on the largest nonzero
    row: the rows i at which dim(column space & span(e_0..e_i)) grows,
    each dimension read off the given rank function."""
    total = rank(rows)
    out, prev = set(), 0
    for i in range(len(rows)):
        units = [row + [int(j == k) for k in range(i + 1)] for j, row in enumerate(rows)]
        dim = total + i + 1 - rank(units)
        if dim > prev:
            out.add(i)
        prev = dim
    return out


def ocolumns(rows, p=0):
    """Columns of a row-list matrix in the library's input format: sparse
    {row: entry}, or over GF(2) (p = 2) int bitsets of the odd entries."""
    ncols = len(rows[0]) if rows else 0
    if p == 2:
        return [sum(1 << i for i, row in enumerate(rows) if row[j] % 2) for j in range(ncols)]
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


def obetti(faces, p=0):
    """Reduced Betti numbers over Q (p = 0) or GF(p) as a dict dim -> beta,
    from frozensets, by dense elimination."""
    bycard: dict[int, list[tuple[int, ...]]] = {}
    for f in faces:
        bycard.setdefault(len(f), []).append(tuple(sorted(f)))
    for group in bycard.values():
        group.sort()
    maxc = max(bycard)
    ranks = {}
    for c in range(1, maxc + 1):
        src = bycard.get(c, [])
        tgt = bycard.get(c - 1, [])
        idx = {t: i for i, t in enumerate(tgt)}
        rows = [[0] * len(src) for _ in tgt]
        for j, s in enumerate(src):
            for pos in range(len(s)):
                sub = s[:pos] + s[pos + 1 :]
                rows[idx[sub]][j] = (-1) ** pos
        ranks[c] = orank_mod(rows, p) if p else orank(rows)
    return {
        c - 1: len(bycard.get(c, [])) - ranks.get(c, 0) - ranks.get(c + 1, 0)
        for c in range(0, maxc + 1)
    }


# -- views on library objects, kept here since only the tests use them ------


def has_face(cx: Complex, face) -> bool:
    try:
        cx.face_mask(face)
    except (ValidationError, DomainError):
        return False
    return True


def faces_by_dim(cx: Complex):
    """Faces grouped by dimension; index 0 holds the empty face (dim -1)."""
    return [[cx.mask_vertices(m) for m in group] for group in cx.masks_by_card]


def specialized(p: MPoly) -> tuple:
    """Substitute x_i -> x for all i, collapsing to total degree: the
    sum(bound) + 1 coefficients, x^0 first."""
    out = [0] * (sum(p.bound) + 1)
    for b, cb in p.coeffs.items():
        out[sum(b)] += cb
    return tuple(out)


def flag_f_mpoly(cx: Complex, coloring) -> MPoly:
    """sum_F x^b(F) as an exact multivariate polynomial."""
    return MPoly(flag_f(cx, coloring), coloring.a)


def multiplicity_mpoly(cx: Complex, coloring) -> MPoly:
    """sum_F m_F x^b(F), from the flag face walk's multiplicity sums."""
    multiplicities(cx)  # kept, so the face walk adds up the m_F
    msum = balanced._flag_counts(cx, coloring)[2]
    return MPoly(dict(zip(exponents_below(coloring.a), msum)), coloring.a)


def ovalidated_type(cx: Complex, kappa, a=None):
    """The type validate_balanced returns, by b_of on every sorted facet tuple.

    The general notion: every facet has at most a_i vertices of color i,
    and |a| is the largest facet size; an omitted a is each color's largest
    count over the facets. The checks and messages come in validate_balanced's
    order. An inferred type has at least one color, so colors all below 1
    name a vertex outside 1..1.
    """
    if a is None:
        for v in cx.vertices:
            color = kappa.get(v)
            if color is not None and color > cx.n:
                raise ValidationError(
                    f"vertex {v} has color {color}, above the vertex count {cx.n}"
                )
    for v in cx.vertices:
        if v not in kappa:
            raise ValidationError(f"vertex {v} has no color")
    if a is not None:
        a = tuple(int(x) for x in a)
        m = len(a)
    else:
        if not cx.vertices:
            raise ValidationError("cannot infer a type vector without vertices")
        m = max(1, max(kappa[v] for v in cx.vertices))
    for v in cx.vertices:
        if not 1 <= kappa[v] <= m:
            raise ValidationError(f"vertex {v} has color {kappa[v]} outside 1..{m}")
    counts = [b_of(facet, kappa, m) for facet in cx.facets]
    if a is None:
        a = tuple(max(bf[i] for bf in counts) for i in range(m))
    for facet, bf in zip(cx.facets, counts):
        if any(x > y for x, y in zip(bf, a)):
            raise ValidationError(f"facet {facet} has color counts {bf}, above type {a}")
    d = max(map(len, cx.facets), default=0)
    if sum(a) != d:
        raise ValidationError(f"type {a} sums to {sum(a)}, not to d={d}")
    return a


# -- corpora ---------------------------------------------------------------


def purify(cx: Complex) -> Complex:
    """Keep only the top-cardinality facets (a pure complex)."""
    top = max(len(f) for f in cx.facets)
    return Complex.from_facets([f for f in cx.facets if len(f) == top])


# the 6-vertex real projective plane: every link is a 5-cycle, and its
# homology has 2-torsion, so its Betti numbers over Q and GF(2) differ
RP2_FACETS = [
    [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
    [2, 3, 5], [3, 4, 6], [2, 4, 5], [3, 5, 6], [2, 4, 6],
]
# Moebius' 7-vertex torus: {i, i+1, i+3} and {i, i+2, i+3} mod 7, ids 1..7
TORUS7_FACETS = [[1 + (i + s) % 7 for s in step] for step in ((0, 1, 3), (0, 2, 3)) for i in range(7)]


def ocross_polytope_facets(d):
    """Facets of the boundary of the d-cross-polytope: one of 2i-1, 2i for each i."""
    return [tuple(2 * i + 1 + ((k >> i) & 1) for i in range(d)) for k in range(1 << d)]


def osd_simplex_boundary_facets(n):
    """Facets of the barycentric subdivision of the boundary of the simplex
    on 1..n: the maximal chains of proper non-empty subsets, each subset a
    vertex numbered in the order the chains meet it."""
    ids: dict[frozenset, int] = {}
    return [
        tuple(sorted(ids.setdefault(frozenset(perm[:k]), len(ids) + 1) for k in range(1, n)))
        for perm in permutations(range(1, n + 1))
    ]


def ostellar(facets, moves, seed):
    """Seeded stellar subdivisions of a facet list: each move picks a face s
    of at least two vertices in a random facet, and replaces every facet G
    that contains s by the facets G - {v} + {w}, v in s, w a new vertex with
    the largest id. A sphere stays a sphere, with links of many shapes."""
    rng = random.Random(seed)
    facets = [frozenset(f) for f in facets]
    new = max(max(f) for f in facets)
    for _ in range(moves):
        g = sorted(rng.choice(facets))
        s = frozenset(rng.sample(g, rng.randint(2, len(g))))
        new += 1
        out = []
        for f in facets:
            out.extend([(f - {v}) | {new} for v in s] if s <= f else [f])
        facets = out
    return sorted(tuple(sorted(f)) for f in facets)


def trap_complex():
    """A cone over the hexagon (apex 7) beside a cone over two disjoint
    triangles (apex 14). The apex links share the f-vector (1, 6, 6); the
    first is a circle, the second is not, so 14 is the first failing face."""
    hexagon = [(i, i % 6 + 1) for i in range(1, 7)]
    triangles = [(8, 9), (9, 10), (8, 10), (11, 12), (12, 13), (11, 13)]
    return Complex.from_facets([e + (7,) for e in hexagon] + [e + (14,) for e in triangles])


def irregular_spheres():
    """Seeded stellar subdivisions of cp4 and of sd of the tetrahedron's boundary."""
    bases = (ocross_polytope_facets(4), osd_simplex_boundary_facets(4))
    return [Complex.from_facets(ostellar(base, 12, seed)) for base in bases for seed in (1, 2)]


# homology manifolds on at most 8 vertices, whose scans run to the end:
# spheres of dimension 3, 2 and 4, RP^2 and the 7-vertex torus, and the
# cone over RP^2 (a manifold with boundary over Q, not one over GF(2))
SMALL_MANIFOLDS = tuple(
    tuple(map(tuple, facets))
    for facets in (
        ocross_polytope_facets(4),
        ocross_polytope_facets(3),
        combinations(range(1, 7), 5),
        RP2_FACETS,
        TORUS7_FACETS,
        [(*f, 7) for f in RP2_FACETS],
    )
)


def small_facet_lists():
    """Facet lists on the vertices 1..8: arbitrary ones, non-pure allowed,
    or one of SMALL_MANIFOLDS whole or in part, its vertices permuted. Most
    arbitrary lists fail at their first vertex; the parts of manifolds give
    scans that go deep, through links of many shapes."""
    arbitrary = st.lists(st.sets(st.integers(1, 8), min_size=1, max_size=5), max_size=8)
    pieces = st.sampled_from(SMALL_MANIFOLDS).flatmap(
        lambda base: st.just(base) | st.lists(st.sampled_from(base), min_size=1, unique=True)
    )
    permuted = st.tuples(pieces, st.permutations(range(1, 9))).map(
        lambda drawn: [[drawn[1][v - 1] for v in f] for f in drawn[0]]
    )
    return arbitrary | permuted


def named_suite():
    """Every generator family at desk scale: (name, Generated) pairs."""
    out = [
        ("simplex-boundary-2", generators.simplex_boundary(2)),
        ("simplex-boundary-3", generators.simplex_boundary(3)),
        ("simplex-boundary-4", generators.simplex_boundary(4)),
        ("cross-polytope-boundary-1", generators.cross_polytope_boundary(1)),
        ("cross-polytope-boundary-2", generators.cross_polytope_boundary(2)),
        ("cross-polytope-boundary-3", generators.cross_polytope_boundary(3)),
        ("cross-polytope-boundary-4", generators.cross_polytope_boundary(4)),
        ("cylinder", generators.cylinder()),
        ("subdivided-triangle", generators.subdivided_triangle()),
        ("glued-triangles-2", generators.glued_triangles(2)),
        ("glued-triangles-3", generators.glued_triangles(3)),
        ("glued-triangles-4", generators.glued_triangles(4)),
        ("glued-tetrahedra-2", generators.glued_tetrahedra(2)),
        ("glued-tetrahedra-3", generators.glued_tetrahedra(3)),
        ("double-banana", generators.double_banana()),
        ("double-banana-minus-triangle", generators.double_banana_minus_triangle()),
        (
            "barycentric-subdivision-octahedron",
            generators.barycentric_subdivision(
                generators.cross_polytope_boundary(3).complex
            ),
        ),
        (
            "barycentric-subdivision-cylinder",
            generators.barycentric_subdivision(generators.cylinder().complex),
        ),
        ("random-11-6", generators.random_complex(11, 6, 0.6)),
        ("random-23-8", generators.random_complex(23, 8, 0.4)),
    ]
    return out


def random_corpus(count=120, seed0=0):
    """Seeded random complexes cycling over n <= 8, many non-pure."""
    out = []
    for i in range(count):
        n = 3 + (i % 6)
        density = 0.25 + 0.15 * (i % 5)
        out.append(generators.random_complex(seed0 + i, n, density).complex)
    return out


def balanced_corpus(count=40):
    """(complex, coloring) pairs: colored families plus subdivisions of
    purified random complexes (|a| <= 6, mostly small), and last the
    subdivisions of the 7-vertex torus and of RP^2, the closed manifolds
    whose semi-Eulerian gap is nonzero (-2 and -1)."""
    out = []
    for name, made in named_suite():
        if made.coloring is not None:
            out.append((name, made.complex, made.coloring))
    picked = 0
    i = 0
    while picked < count:
        n = 4 + (i % 4)
        base = purify(generators.random_complex(1000 + i, n, 0.5).complex)
        i += 1
        if base.d > 4 or base.d < 1:
            continue
        sd = generators.barycentric_subdivision(base)
        assert sd.coloring is not None
        out.append((f"sd-random-{i}", sd.complex, sd.coloring))
        picked += 1
    sphere = generators.barycentric_subdivision(generators.simplex_boundary(5).complex)
    out.append(("sd-simplex-boundary-5", sphere.complex, sphere.coloring))
    big = generators.barycentric_subdivision(Complex.from_facets([range(1, 7)]))
    out.append(("sd-full-5-simplex", big.complex, big.coloring))
    for name, facets in (("sd-torus7", TORUS7_FACETS), ("sd-rp2", RP2_FACETS)):
        sd = generators.barycentric_subdivision(Complex.from_facets(facets))
        out.append((name, sd.complex, sd.coloring))
    return out


def ojoin_facets(facets_k, facets_l):
    """The join K * L of two plain facet lists, and the shift: facets F + G,
    with L's ids shifted past K's largest id. An empty list is {emptyset},
    whose one facet is the empty face."""
    shift = max((v for f in facets_k for v in f), default=0)
    joined = (
        tuple(f) + tuple(v + shift for v in g) for f in facets_k or [()] for g in facets_l or [()]
    )
    return [f for f in joined if f], shift


def joinable_pairs(pairs):
    """Two (complex, coloring) pairs whose join has at most 6000 faces."""
    pairs = [p for p in pairs if p[0].num_faces <= 2000]  # the smallest has 3 faces
    return st.sampled_from(pairs).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.sampled_from([l for l in pairs if k[0].num_faces * l[0].num_faces <= 6000]),
        )
    )


def join_draws(balanced_pairs):
    """(K, L, shift, facets of K * L) for two small facet lists or the
    facets of two balanced corpus members; L's vertex v is v + shift in
    K * L."""

    def join(lists):
        facets, shift = ojoin_facets(*lists)
        return (*map(Complex.from_facets, lists), shift, facets)

    pairs = [(cx, coloring) for _, cx, coloring in balanced_pairs]
    corpus = joinable_pairs(pairs).map(lambda kl: (kl[0][0].facets, kl[1][0].facets))
    return (st.tuples(small_facet_lists(), small_facet_lists()) | corpus).map(join)


def ojoin(facets_k, kappa_k, facets_l, kappa_l):
    """The join K * L of two colored facet lists: facets F + G, with L's ids
    shifted past K's largest id and L's colors past K's largest color."""
    facets, ids = ojoin_facets(facets_k, facets_l)
    colors = max(kappa_k.values())
    kappa = {**kappa_k, **{v + ids: c + colors for v, c in kappa_l.items()}}
    return facets, kappa


@pytest.fixture(scope="session")
def suite():
    return named_suite()


@pytest.fixture(scope="session")
def randoms():
    return random_corpus()


@pytest.fixture(scope="session")
def balanced_pairs():
    return balanced_corpus()

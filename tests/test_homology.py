"""Betti numbers, homology-manifold recognition, boundary classification."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dskit.complexes import Complex, parse_cplx, write_cplx
from dskit.enumeration import f_vector, interior_f_vector, multiplicities, reduced_euler
from dskit.errors import PreconditionError, ValidationError
from dskit.generators import (
    cross_polytope_boundary,
    cylinder,
    double_banana,
    glued_triangles,
    simplex_boundary,
)
from dskit.homology import (
    FieldSpec,
    _is_prime,
    boundary_faces_homological,
    boundary_matrix,
    is_downward_closed,
    is_homology_manifold,
    rank_mod,
    rank_rational,
    reduced_betti,
)

from conftest import (
    RP2_FACETS,
    TORUS7_FACETS,
    irregular_spheres,
    join_draws,
    obetti,
    ocolumns,
    ofaces_of,
    ojoin_facets,
    opivot_rows,
    orank,
    orank_mod,
    small_facet_lists,
    trap_complex,
)

FUZZ_PRIMES = (2, 3, 2**61 - 1)
FIELDS = (FieldSpec(0), FieldSpec(2), FieldSpec(3))
def betti_dict(cx, field=FieldSpec(0)):
    return dict(reduced_betti(cx, field).items())


def test_betti_octahedron_sphere():
    assert betti_dict(cross_polytope_boundary(3).complex) == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_betti_two_disjoint_circles():
    cx = Complex.from_facets(
        [[1, 2], [2, 3], [3, 4], [1, 4], [5, 6], [6, 7], [7, 8], [5, 8]]
    )
    assert betti_dict(cx) == {-1: 0, 0: 1, 1: 2}


def test_betti_point_and_empty():
    assert betti_dict(Complex.from_facets([[1]])) == {-1: 0, 0: 0}
    assert betti_dict(Complex.from_facets([])) == {-1: 1}


def test_betti_cylinder_is_circle_homotopy():
    assert betti_dict(cylinder().complex) == {-1: 0, 0: 0, 1: 1, 2: 0}


def test_betti_matches_independent_oracle(randoms):
    rp2 = Complex.from_facets(RP2_FACETS)
    for field in FIELDS:
        p = field.characteristic
        for cx in randoms[:25] + [rp2]:
            assert betti_dict(cx, field) == obetti(ofaces_of(cx), p)
    assert betti_dict(rp2, FieldSpec(0)) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert betti_dict(rp2, FieldSpec(2)) == {-1: 0, 0: 0, 1: 1, 2: 1}


def test_euler_poincare(randoms, suite):
    # the alternating sum of Betti numbers is the reduced Euler
    # characteristic over every field
    for cx in randoms + [made.complex for _, made in suite]:
        for field in FIELDS:
            table = reduced_betti(cx, field)
            assert table.reduced_euler() == reduced_euler(cx)
            assert type(table.reduced_euler()) is int


def test_rank_routines_agree():
    mats = [
        [[1, 2], [2, 4]],
        [[1, 0, 1], [0, 1, 1], [1, 1, 0]],
        [[3]],
        [[0, 0], [0, 0]],
    ]
    for m in mats:
        assert len(rank_rational(ocolumns(m))) == orank(m)
    # mod-2 rank can drop: the parity matrix below has rational rank 2
    m = [[1, 1], [1, -1]]
    assert rank_rational(ocolumns(m)) == {0, 1}
    assert rank_mod(ocolumns(m, 2), 2) == {1}
    assert rank_rational([]) == rank_mod([], 3) == rank_mod([], 2) == set()


def test_rank_fuzz_against_fraction_elimination():
    import random

    rng = random.Random(31337)
    for _ in range(120):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        # sprinkle zeros so column skipping gets exercised
        for i in range(rows):
            for j in range(cols):
                if rng.random() < 0.4:
                    m[i][j] = 0
        pivots = rank_rational(ocolumns(m))
        assert len(pivots) == orank(m)
        assert pivots == opivot_rows(m, orank)
        for p in FUZZ_PRIMES:
            pivots = rank_mod(ocolumns(m, p), p)
            assert len(pivots) == orank_mod(m, p)
            assert pivots == opivot_rows(m, lambda rows: orank_mod(rows, p))


def test_rank_rational_large_entries():
    # entries that grow under elimination: a scaled Hilbert matrix (full
    # rank) and a product of two random matrices with 12-digit entries,
    # whose rank is the inner dimension
    import random
    from math import lcm

    scale = lcm(*range(1, 16))
    hilbert = [[scale // (i + j + 1) for j in range(8)] for i in range(8)]
    assert len(rank_rational(ocolumns(hilbert))) == orank(hilbert) == 8
    rng = random.Random(7)
    a = [[rng.randrange(-10**6, 10**6) for _ in range(5)] for _ in range(9)]
    b = [[rng.randrange(-10**6, 10**6) for _ in range(7)] for _ in range(5)]
    prod = [[sum(a[i][k] * b[k][j] for k in range(5)) for j in range(7)] for i in range(9)]
    assert len(rank_rational(ocolumns(prod))) == orank(prod) == 5
    for p in FUZZ_PRIMES:
        assert len(rank_mod(ocolumns(prod, p), p)) == orank_mod(prod, p)


def test_boundary_matrix_columns():
    by_card = Complex.from_facets([[1, 2, 3]]).masks_by_card
    # edges in mask order: 12, 13, 23; del[1 2 3] = [2 3] - [1 3] + [1 2]
    assert boundary_matrix(by_card, 3) == [{2: 1, 1: -1, 0: 1}]
    assert boundary_matrix(by_card, 1) == [{0: 1}, {0: 1}, {0: 1}]
    assert boundary_matrix(by_card, 4) == boundary_matrix(by_card, 0) == []
    # over GF(2) a column is the bitset of its rows
    assert boundary_matrix(by_card, 3, 2) == [0b111]
    assert boundary_matrix(by_card, 2, 2) == [0b011, 0b101, 0b110]
    # the faces at cleared positions are left out: here the edge 13
    assert boundary_matrix(by_card, 2, 0, {1}) == [{1: 1, 0: -1}, {2: 1, 1: -1}]
    assert boundary_matrix(by_card, 2, 2, {1}) == [0b011, 0b110]


def test_cleared_ranks_equal_full_ranks(suite, randoms, balanced_pairs):
    # skipping the columns of del_c whose faces are pivot rows of del_{c+1}
    # changes neither the rank nor the pivot rows of del_c
    from dskit import homology

    complexes = [made.complex for _, made in suite] + randoms
    complexes += [cx for _, cx, _ in balanced_pairs]
    for cx in complexes:
        by_card = cx.masks_by_card
        for p in (0, 2, 3):
            rank = (lambda cols: rank_mod(cols, p)) if p else rank_rational
            pivots = set()
            for c in range(cx.d, 0, -1):
                if c == 2:
                    # a spanning forest of the uncleared edges has as many
                    # edges as the full del_2 has rank
                    forest = homology._forest_size(by_card[1], by_card[2], pivots)
                    assert forest == len(rank(boundary_matrix(by_card, 2, p)))
                cleared = rank(boundary_matrix(by_card, c, p, pivots))
                assert cleared == rank(boundary_matrix(by_card, c, p))
                pivots = cleared


def _shifted(facets, by):
    return [[v + by for v in f] for f in facets]


LOW_RANK_CASES = {
    "empty face only": [],
    "one vertex": [[1]],
    "isolated vertices": [[1], [2], [5], [9]],
    "a tree": [[1, 2], [2, 3], [2, 4], [4, 5]],
    "a forest": [[1, 2], [2, 3], [2, 4], [5, 6], [7], [8, 9], [9, 10]],
    "disjoint cycles": [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [6, 7], [4, 7], [8, 9]],
    "2-complexes in several components": (
        [[1, 2, 3], [4, 5], [5, 6], [4, 6], [7]]
        + _shifted(RP2_FACETS, 10)
        + _shifted(cross_polytope_boundary(3).complex.facets, 20)
        + [[30, 31, 32], [31, 32, 33], [30, 33]]
    ),
}


@pytest.mark.parametrize("facets", list(LOW_RANK_CASES.values()), ids=list(LOW_RANK_CASES))
def test_low_ranks_by_union_find_match_the_oracle(facets, monkeypatch):
    # del_1 and del_2 take no matrix: only del_c for c >= 3 is built
    from dskit import homology

    cards = []
    inner = homology.boundary_matrix
    monkeypatch.setattr(
        homology,
        "boundary_matrix",
        lambda by_card, card, *rest: cards.append(card) or inner(by_card, card, *rest),
    )
    cx = Complex.from_facets(facets)
    for p in (0, 2, 3):
        want = obetti(ofaces_of(cx), p)
        assert homology._betti_numbers(cx.masks_by_card, p) == tuple(want[i] for i in range(-1, cx.d))
    assert all(card >= 3 for card in cards)
    assert bool(cards) == (cx.d >= 3)


def test_betti_numbers_match_the_oracle_on_the_random_corpus(randoms):
    from dskit import homology

    for cx in randoms:
        for p in (0, 2, 3):
            want = obetti(ofaces_of(cx), p)
            assert homology._betti_numbers(cx.masks_by_card, p) == tuple(want[i] for i in range(-1, cx.d))


@pytest.mark.parametrize("d, field", [(8, FieldSpec(0)), (10, FieldSpec(2))])
def test_betti_large_cross_polytope_is_sphere(d, field):
    # the time bound guards the sparse path: dense elimination took minutes on cp8 over Q
    t0 = time.perf_counter()
    table = reduced_betti(cross_polytope_boundary(d).complex, field)
    assert table.betti == (0,) * d + (1,)
    assert time.perf_counter() - t0 < 30


def test_field_spec_validation():
    assert FieldSpec.parse("q").characteristic == 0
    assert FieldSpec.parse("7").characteristic == 7
    with pytest.raises(ValidationError):
        FieldSpec(6)
    with pytest.raises(ValidationError):
        FieldSpec.parse("abc")
    # q or rationals in any ASCII case, or ASCII decimal digits
    for text in ("Q", "RATIONALS", "Rationals", "0", "00"):
        assert FieldSpec.parse(text).characteristic == 0, text
    assert FieldSpec.parse("007").characteristic == 7
    # what int() would also read: a sign, spaces, underscores, other digits
    for text in ("-0", "+3", " 5", "2 ", "1_3", "\uff13", "\u0663", "q ", "", "0x3", "9" * 5000):
        with pytest.raises(ValidationError, match="field must be 'q' or a prime"):
            FieldSpec.parse(text)


def test_is_prime_matches_sieve():
    n = 20000
    sieve = [True] * n
    sieve[0] = sieve[1] = False
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, n, i):
                sieve[j] = False
    assert [p for p in range(-3, n) if _is_prime(p)] == [p for p in range(n) if sieve[p]]


def test_field_spec_accepts_large_prime_quickly():
    t0 = time.perf_counter()
    assert FieldSpec(2**61 - 1).characteristic == 2**61 - 1
    assert time.perf_counter() - t0 < 0.5
    assert str(FieldSpec.parse("2305843009213693951")) == "2305843009213693951"


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael number
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to bases 2..23
        318665857834031151167461,  # strong pseudoprime to bases 2..37; base 41 exposes it
    ],
)
def test_field_spec_rejects_pseudoprimes(n):
    with pytest.raises(ValidationError, match="must be 0 or prime"):
        FieldSpec(n)


def test_field_spec_rejects_primes_beyond_exact_range():
    with pytest.raises(ValidationError, match="out of range"):
        FieldSpec(2**89 - 1)  # a Mersenne prime, but past the exact Miller-Rabin bound


def test_homology_manifold_verdicts():
    assert is_homology_manifold(cylinder().complex).is_manifold
    assert is_homology_manifold(simplex_boundary(3).complex).is_manifold
    verdict = is_homology_manifold(double_banana().complex)
    assert not verdict.is_manifold
    assert verdict.witness in ((1,), (2,))  # a gluing vertex
    assert verdict.witness_betti.b(0) == 1
    assert verdict.witness_betti.b(1) == 2
    # non-pure complexes are never homology manifolds
    assert not is_homology_manifold(Complex.from_facets([[1, 2, 3], [4]])).is_manifold
    # the link of the shared edge of glued triangles has 3 components
    assert not is_homology_manifold(glued_triangles(3).complex).is_manifold


def test_homology_manifold_gf2():
    assert is_homology_manifold(cylinder().complex, FieldSpec(2)).is_manifold
    assert not is_homology_manifold(double_banana().complex, FieldSpec(2)).is_manifold


def test_boundary_faces_cylinder():
    cx = cylinder().complex
    bd = boundary_faces_homological(cx)
    assert set(bd) == {
        (),
        (1,), (2,), (3,), (4,), (5,), (6,),
        (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6),
    }
    assert is_downward_closed(bd)
    # complement (the interior) matches the multiplicity split
    table = multiplicities(cx)
    interior = {face for face, m in table.items() if face and m == 1}
    assert interior == {f for f in cx.faces() if f and f not in set(bd)}
    assert interior_f_vector(cx) == (0, 6, 6)


def test_boundary_faces_octahedron_only_empty():
    assert boundary_faces_homological(cross_polytope_boundary(3).complex) == ((),)


def test_boundary_faces_single_edge():
    assert set(boundary_faces_homological(Complex.from_facets([[1, 2]]))) == {
        (),
        (1,),
        (2,),
    }


def test_boundary_faces_requires_manifold():
    with pytest.raises(PreconditionError) as err:
        boundary_faces_homological(double_banana().complex)
    assert err.value.witness in ((1,), (2,))


@pytest.mark.parametrize("field", [FieldSpec(0), FieldSpec(2)], ids=["q", "gf2"])
def test_boundary_faces_witness_is_the_manifold_witness(field):
    # each complex is built fresh, so no link memo is shared between the
    # two scans and the boundary scan finds its witness on its own
    makers = [
        lambda: double_banana().complex,
        lambda: glued_triangles(3).complex,
        lambda: Complex.from_facets([[1, 2, 3], [4]]),
    ]
    for make in makers:
        with pytest.raises(PreconditionError) as err:
            boundary_faces_homological(make(), field)
        assert err.value.witness == is_homology_manifold(make(), field).witness


def _own_coordinates(link):
    """A link's faces by cardinality as sorted masks over its own vertices,
    the i-th smallest id as bit i: ranked from the vertex ids, not moved
    from the complex's masks."""
    rank = {v: 1 << i for i, v in enumerate(link.vertices)}
    by_card = [[] for _ in range(link.d + 1)]
    for face in link.faces():
        by_card[len(face)].append(sum(rank[v] for v in face))
    return tuple(tuple(sorted(group)) for group in by_card)


def test_boundary_faces_looks_up_each_link_once(monkeypatch):
    # the scan computes one link per cardinality and class of links equal up
    # to an order-preserving relabelling, in that link's own coordinates:
    # over GF(2) once, and over Q once over GF(2), then over Q only when the
    # GF(2) numbers are nonzero in more than one degree, which no link of
    # these spheres and this cylinder is. The boundary split reads the
    # numbers classify computed
    from dskit import homology
    from dskit.relations import classify

    computed = []
    inner = homology._betti_numbers

    def counting(masks_by_card, p):
        computed.append((tuple(map(tuple, masks_by_card)), p))
        return inner(masks_by_card, p)

    monkeypatch.setattr(homology, "_betti_numbers", counting)
    for cx in [cylinder().complex] + irregular_spheres():  # fresh objects, empty memos
        classes = []
        for group in cx.masks_by_card[1:]:
            classes += sorted({_own_coordinates(cx.link_mask(m)) for m in group})
        assert [c for c in classes if len([b for b in inner(c, 2) if b]) > 1] == []
        assert len(classes) < cx.num_faces - 1
        for field in (FieldSpec(0), FieldSpec(2)):
            start = len(computed)
            assert classify(cx, field).homology_manifold
            run = computed[start:]
            assert sorted(by_card for by_card, q in run if q == 2) == sorted(classes)
            assert [by_card for by_card, q in run if q != 2] == []
            boundary_faces_homological(cx, field)
            assert len(computed) == start + len(run)
    # every link of a c-face of cp_d is cp_(d-c): one computation per cardinality
    for d in range(1, 8):
        computed.clear()
        assert is_homology_manifold(cross_polytope_boundary(d).complex, FieldSpec(2)).is_manifold
        assert len(computed) == d


def test_key_walk_compresses_once_per_class_and_position(monkeypatch):
    # a link's key follows from its parent's class and the position of its
    # new vertex among the parent link's vertices, so _compressed runs once
    # per vertex and once per such pair. On cp_d the 2d vertex links and the
    # 2(d - c) positions of cp_(d-c), the link of every c-face, make d(d + 1)
    from dskit import homology

    calls = []
    inner = homology._compressed
    monkeypatch.setattr(homology, "_compressed", lambda facets: calls.append(1) or inner(facets))
    for d in range(4, 9):
        calls.clear()
        cx = cross_polytope_boundary(d).complex
        assert is_homology_manifold(cx, FieldSpec(2)).is_manifold
        assert len(calls) == d * (d + 1) < cx.num_faces


def test_scan_and_link_list_the_facet_stars_once(monkeypatch):
    # the scan reads each vertex's facets from the star list that
    # Complex.link_mask keeps on the complex, so a link after classify
    # lists no facet stars again
    from dskit import complexes, homology
    from dskit.relations import classify

    calls = []
    inner = complexes._facet_stars

    def counting(cx):
        calls.append(cx)
        return inner(cx)

    monkeypatch.setattr(complexes, "_facet_stars", counting)
    monkeypatch.setattr(homology, "_facet_stars", counting)
    cx = cross_polytope_boundary(5).complex
    assert classify(cx, FieldSpec(2)).homology_manifold
    assert calls == [cx]
    assert cx.link((1,)).num_faces == 3**4  # cp4 on the other eight vertices
    assert calls == [cx]


def test_scan_builds_no_complex(monkeypatch):
    # a link class new to the scan is closed into a face index alone, so
    # classify builds no Complex after the parse
    from dskit.relations import classify

    cx = parse_cplx(write_cplx(cross_polytope_boundary(5).complex))
    built = []
    inner = Complex.__init__

    def counting(self, *args):
        built.append(args)
        inner(self, *args)

    monkeypatch.setattr(Complex, "__init__", counting)
    assert classify(cx, FieldSpec(2)).homology_manifold
    assert built == []
    assert cx.link((1,)).num_faces == 3**4 and len(built) == 1  # the count sees a link


def _rp2_cone():
    return Complex.from_facets([f + [100] for f in RP2_FACETS])


def test_q_scan_is_certified_over_gf2(monkeypatch):
    # the cone over RP^2 is a homology manifold over Q and GF(3), where its
    # apex link RP^2 is acyclic, but not over GF(2), where that link has
    # beta_1 = beta_2 = 1; its boundary is RP^2, the apex and the empty face
    from dskit import homology

    for field in (FieldSpec(0), FieldSpec(3)):
        cx = _rp2_cone()
        assert is_homology_manifold(cx, field).is_manifold
        bd = boundary_faces_homological(cx, field)
        assert len(bd) == 33 and () in bd and (100,) in bd
        assert set(bd) == {(), (100,)} | set(Complex.from_facets(RP2_FACETS).faces())
    verdict = is_homology_manifold(_rp2_cone(), FieldSpec(2))
    assert not verdict.is_manifold
    assert verdict.witness == (100,)
    assert verdict.witness_betti.betti == (0, 0, 1, 1)

    # over Q only the apex link has GF(2) numbers in more than one degree,
    # so it is the one link computed over Q as well; a GF(3) scan never
    # computes over GF(2)
    computed = []
    inner = homology._betti_numbers
    monkeypatch.setattr(
        homology,
        "_betti_numbers",
        lambda by_card, p: computed.append((tuple(map(tuple, by_card)), p)) or inner(by_card, p),
    )
    cx = _rp2_cone()
    apex_link = cx.link([100]).masks_by_card
    homology._link_scan(cx, FieldSpec(0))
    assert [by_card for by_card, p in computed if p == 0] == [apex_link]
    assert apex_link in [by_card for by_card, p in computed if p == 2]
    assert {p for _, p in computed} == {0, 2}
    computed.clear()
    homology._link_scan(_rp2_cone(), FieldSpec(3))
    assert computed and {p for _, p in computed} == {3}


def test_homological_split_equals_multiplicity_split(suite):
    # on every homology manifold in the corpus the two classifications agree
    checked = 0
    for _, made in suite:
        cx = made.complex
        if not is_homology_manifold(cx).is_manifold:
            continue
        checked += 1
        bd = set(boundary_faces_homological(cx))
        table = multiplicities(cx)
        for face, m in table.items():
            if not face:
                continue
            assert m in (0, 1)
            assert (m == 0) == (face in bd)
    assert checked >= 5  # spheres, cross-polytopes, cylinder


def test_manifolds_are_reciprocal(suite):
    for _, made in suite:
        cx = made.complex
        if is_homology_manifold(cx).is_manifold:
            assert multiplicities(cx).reciprocity_witness() is None


def test_link_betti_cache_lookups_are_cheap(monkeypatch):
    # the memo lives on the complex: one scan per field, read back without
    # building the vertex-id facets that equality of two complexes compares
    from dskit import homology

    scans = []
    inner = homology._scan_links
    monkeypatch.setattr(
        homology, "_scan_links", lambda cx, field: scans.append(cx) or inner(cx, field)
    )
    cx = cross_polytope_boundary(4).complex
    is_homology_manifold(cx)
    facets = Complex.facets
    built = []
    monkeypatch.setattr(
        Complex, "facets", property(lambda self: built.append(self) or facets.fget(self))
    )
    memo = cx._derived
    for field in (FieldSpec(0), FieldSpec(2)):
        assert is_homology_manifold(cx, field).is_manifold
        boundary_faces_homological(cx, field)
    assert built == []
    q, gf2 = ("link scan", FieldSpec(0)), ("link scan", FieldSpec(2))
    assert cx._derived is memo and set(memo) == {q, gf2, "facet stars"}
    assert scans == [cx, cx]
    # an equal complex built apart computes its own
    again = cross_polytope_boundary(4).complex
    assert again == cx and again._derived is None
    assert is_homology_manifold(again).is_manifold
    assert len(scans) == 3 and scans[2] is again and set(again._derived) == {q, "facet stars"}
    assert again._derived[q] is not memo[q]


def test_link_betti_memo_follows_the_labels():
    # a link keeps its parent's labels, so it can equal a parsed complex
    # whose masks name other faces; the two must not share memo entries
    # a segment plus an isolated vertex: 4 is the first failing face
    parsed = parse_cplx("1 3\n4")
    link = parse_cplx("1 2 3\n2 4").link([2])
    assert link == parsed and link.labels != parsed.labels
    assert is_homology_manifold(parsed).witness == (4,)
    assert is_homology_manifold(link).witness == (4,)
    # a path 1-3-4: its ends are the boundary vertices
    parsed = parse_cplx("1 3\n3 4")
    link = parse_cplx("1 2 3\n2 3 4").link([2])
    assert link == parsed and link.labels != parsed.labels
    expected = ((), (1,), (4,))
    assert boundary_faces_homological(parsed) == expected
    assert boundary_faces_homological(link) == expected


def _ball_or_sphere(betti, sphere_dim):
    return all(b == 0 or (i - 1 == sphere_dim and b == 1) for i, b in enumerate(betti))


def _definitional_scan(cx, field):
    """Link Betti numbers by the definition, each link closed from the
    complex, in (card, mask) order up to the first that fails."""
    out = {}
    for group in cx.masks_by_card[1:]:
        for fmask in group:
            betti = out[fmask] = reduced_betti(cx.link_mask(fmask), field).betti
            if not _ball_or_sphere(betti, cx.d - 1 - fmask.bit_count()):
                return out
    return out


def test_link_scan_matches_the_definition(suite, randoms, balanced_pairs):
    # links read off their parent link and looked up by their relabelled
    # facets, against links closed from the complex: every face's Betti
    # numbers, the first witness and its table, and the boundary faces. The
    # irregular spheres have links of many shapes; the trap's two apex links
    # share their f-vector but not their homology
    from dskit import homology

    complexes = [made.complex for _, made in suite] + randoms
    complexes += [cx for _, cx, _ in balanced_pairs] + [Complex.from_facets(RP2_FACETS), _rp2_cone()]
    complexes += irregular_spheres() + [trap_complex()]
    failed = 0
    for cx in complexes:
        cx = Complex.from_facets(cx.facets)  # no memo from earlier scans
        for field in FIELDS:
            want = _definitional_scan(cx, field)
            got = homology._link_scan(cx, field)
            assert [(m, b.betti) for m, b in got.items()] == list(want.items())
            verdict = is_homology_manifold(cx, field)
            last = list(want)[-1] if want else None
            if want and not _ball_or_sphere(want[last], cx.d - 1 - last.bit_count()):
                failed += 1
                assert verdict.witness == cx.mask_vertices(last)
                assert verdict.witness_betti.betti == want[last]
                with pytest.raises(PreconditionError) as err:
                    boundary_faces_homological(cx, field)
                assert err.value.witness == verdict.witness
            else:
                assert verdict.is_manifold and verdict.witness_betti is None
                ball = [m for m, b in want.items() if cx.d - m.bit_count() >= len(b)
                        or b[cx.d - m.bit_count()] == 0]
                assert boundary_faces_homological(cx, field) == ((),) + tuple(
                    cx.mask_vertices(m) for m in ball
                )
    assert 0 < failed < len(complexes) * len(FIELDS)
    trap = trap_complex()
    assert f_vector(trap.link([7])) == f_vector(trap.link([14])) == (1, 6, 6)
    for field in FIELDS:
        verdict = is_homology_manifold(trap_complex(), field)
        assert verdict.witness == (14,) and verdict.witness_betti.betti == (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(small_facet_lists())
def test_link_scan_matches_the_definition_on_small_complexes(facets):
    # links found by their parent's class and one vertex position, against
    # links closed from the complex, on every drawn complex and field and on
    # the links of its first two faces of each cardinality: the scan, the
    # witness and its table, and the boundary faces. A link keeps its
    # parent's labels, so its vertex bits have gaps
    from dskit import homology

    for field in FIELDS:
        whole = Complex.from_facets(facets)
        links = [whole.link_mask(m) for group in whole.masks_by_card[1:] for m in group[:2]]
        for cx in [whole] + links:
            want = _definitional_scan(cx, field)
            assert [(m, b.betti) for m, b in homology._link_scan(cx, field).items()] == list(want.items())
            verdict = is_homology_manifold(cx, field)
            last = list(want)[-1] if want else None
            if want and not _ball_or_sphere(want[last], cx.d - 1 - last.bit_count()):
                assert verdict.witness == cx.mask_vertices(last)
                assert verdict.witness_betti.betti == want[last]
                with pytest.raises(PreconditionError) as err:
                    boundary_faces_homological(cx, field)
                assert err.value.witness == verdict.witness
            else:
                assert verdict.is_manifold and verdict.witness_betti is None
                ball = [m for m, b in want.items() if cx.d - m.bit_count() >= len(b)
                        or b[cx.d - m.bit_count()] == 0]
                assert boundary_faces_homological(cx, field) == ((),) + tuple(map(cx.mask_vertices, ball))


def _join_law(bk, bl):
    """The reduced Betti numbers of K * L, from dimension -1 up, by the join
    law beta_(k+1)(K * L) = sum_(i+j=k) beta_i(K) beta_j(L) over a field:
    place p holds dimension p - 1, so it sums the products at places s + t = p."""
    out = [0] * (len(bk) + len(bl) - 1)
    for s, x in enumerate(bk):
        for t, y in enumerate(bl):
            out[s + t] += x * y
    return tuple(out)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_betti_numbers_of_a_join_follow_the_join_law(balanced_pairs, data):
    k, l, _, facets = data.draw(join_draws(balanced_pairs))
    join = Complex.from_facets(facets)
    for field in (FieldSpec(0), FieldSpec(2)):
        betti = reduced_betti(join, field).betti
        assert betti == _join_law(reduced_betti(k, field).betti, reduced_betti(l, field).betti)


def test_join_law_on_spheres_and_projective_planes():
    # S^0 * S^0 is a circle. RP^2 has beta_1 = beta_2 = 1 over GF(2), so
    # RP^2 * RP^2 has beta_3 = 1, beta_4 = 2 and beta_5 = 1 there; over Q
    # it is acyclic, as RP^2 is
    s0 = [[1], [2]]
    circle, _ = ojoin_facets(s0, s0)
    assert reduced_betti(Complex.from_facets(circle)).betti == (0, 0, 1)
    facets, _ = ojoin_facets(RP2_FACETS, RP2_FACETS)
    cx = Complex.from_facets(facets)
    assert reduced_betti(cx, FieldSpec(2)).betti == (0, 0, 0, 0, 1, 2, 1)
    assert reduced_betti(cx).betti == (0,) * 7


def test_suspended_torus_is_no_homology_manifold():
    # the suspension of the 7-vertex torus is the join with S^0, apexes 8
    # and 9: a vertex of the torus has a circle for its link there, so its
    # link in the suspension is a 2-sphere, but the link of an apex is the
    # torus itself, which has no sphere homology over any field. The first
    # apex is the first failing face
    facets, shift = ojoin_facets(TORUS7_FACETS, [[1], [2]])
    assert shift == 7
    cx = Complex.from_facets(facets)
    for field in FIELDS:
        verdict = is_homology_manifold(cx, field)
        assert (verdict.is_manifold, verdict.witness) == (False, (8,)), field
        assert verdict.witness_betti.betti == (0, 0, 2, 1)

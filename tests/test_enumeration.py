"""f/h vectors, Euler characteristics, multiplicities and interior splits."""

import gc
import random
import sys
import threading
import time
import tracemalloc
import weakref
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dskit import balanced, enumeration, relations, stanley_reisner
from dskit.complexes import Complex, _prefix_walk
from dskit.enumeration import (
    MultiplicityTable,
    boundary_f_vector,
    epsilon,
    euler,
    f_vector,
    h_to_f,
    h_vector,
    interior_f_vector,
    multiplicities,
    multiplicity,
    reduced_euler,
)
from dskit.errors import DomainError, PreconditionError, ValidationError
from dskit.homology import FieldSpec
from dskit.generators import (
    cross_polytope_boundary,
    cylinder,
    glued_tetrahedra,
    glued_triangles,
    simplex_boundary,
    subdivided_triangle,
)

from conftest import (
    join_draws,
    ocross_polytope_facets,
    odelta_expand,
    ofaces_of,
    ojoin_facets,
    om_f,
    opoly_add,
    opoly_eq,
    opoly_mul,
    opoly_pow,
    opoly_scale,
)


def oracle_h_vector(f):
    """Expand sum_i f_{i-1} x^i (1-x)^(d-i) with bare list arithmetic."""
    d = len(f) - 1
    acc = [0]
    for i, fi in enumerate(f):
        term = opoly_mul(opoly_pow([0, 1], i), opoly_pow([1, -1], d - i))
        acc = opoly_add(acc, opoly_scale(term, fi))
    acc = acc + [0] * (d + 1 - len(acc))
    return tuple(acc[: d + 1])


def test_f_vector_goldens():
    assert f_vector(cylinder().complex) == (1, 6, 12, 6)
    assert f_vector(cross_polytope_boundary(3).complex) == (1, 6, 12, 8)
    assert f_vector(Complex.from_facets([])) == (1,)


def test_h_vector_goldens():
    assert h_vector((1, 6, 12, 8)) == (1, 3, 3, 1)
    assert h_vector((1, 4, 8, 4)) == (1, 1, 3, -1)
    assert h_vector((1,)) == (1,)


def test_h_vector_matches_oracle_expansion():
    rng = random.Random(99)
    for _ in range(60):
        d = rng.randrange(0, 7)
        f = (1,) + tuple(rng.randrange(1, 40) for _ in range(d))
        assert h_vector(f) == oracle_h_vector(f)


def test_h_f_round_trips():
    rng = random.Random(5)
    for _ in range(40):
        d = rng.randrange(0, 7)
        f = (1,) + tuple(rng.randrange(1, 40) for _ in range(d))
        h = h_vector(f)
        assert h_to_f(h) == f
        assert h_vector(h_to_f(h)) == h
    with pytest.raises(ValidationError, match="h-vector needs at least one entry"):
        h_to_f(())


def test_h_sum_is_top_count(suite):
    # evaluate the defining relation at x = 1: sum h_i = f_{d-1}
    for _, made in suite:
        f = f_vector(made.complex)
        assert sum(h_vector(f)) == f[-1]


def test_euler_characteristics():
    cyl = cylinder().complex
    assert euler(cyl) == 0
    assert reduced_euler(cyl) == -1
    assert reduced_euler(cross_polytope_boundary(3).complex) == 1
    assert reduced_euler(Complex.from_facets([])) == -1


def test_multiplicity_paper_values():
    gt = glued_triangles(3).complex
    assert multiplicity(gt, (1, 2), "superset-sum") == 2
    assert multiplicity(gt, (1, 2), "link-euler") == 2
    gth = glued_tetrahedra(3).complex
    assert multiplicity(gth, (1, 2), "superset-sum") == -2
    assert multiplicity(gth, (1, 2), "link-euler") == -2


def test_multiplicity_of_top_facets_is_one(suite):
    for _, made in suite:
        cx = made.complex
        for facet in cx.facets:
            if len(facet) == cx.d:
                assert multiplicity(cx, facet) == 1


def test_multiplicity_rejects_non_face():
    with pytest.raises(DomainError):
        multiplicity(glued_triangles(3).complex, (3, 4))


def test_multiplicity_methods_agree_and_match_oracle(randoms):
    for cx in randoms[:40]:
        faces = ofaces_of(cx)
        for face in cx.faces():
            a = multiplicity(cx, face, "superset-sum")
            b = multiplicity(cx, face, "link-euler")
            assert a == b == om_f(faces, face, cx.d)


def test_multiplicities_octahedron_all_one():
    cx = cross_polytope_boundary(3).complex
    table = multiplicities(cx)
    assert all(m == 1 for _, m in table.items())


def test_multiplicities_cylinder_split():
    cx = cylinder().complex
    table = multiplicities(cx)
    interior_edges = {(1, 4), (2, 4), (2, 5), (3, 5), (3, 6), (1, 6)}
    for face, m in table.items():
        if len(face) == 3 or face in interior_edges:
            assert m == 1
        elif face == ():
            assert m == -1
        else:
            assert m == 0


def test_multiplicities_single_edge():
    table = multiplicities(Complex.from_facets([[1, 2]]))
    assert table.m((1, 2)) == 1
    assert table.m((1,)) == 0
    assert table.m((2,)) == 0
    assert table.m_empty == 0


def test_multiplicities_sweep_equals_per_face(randoms, suite, balanced_pairs, monkeypatch):
    # a graph has sum 2^|g| = 4e against f = 1 + n + e faces, and the line
    # is at 1.85 f: a 4-cycle sits below it (16 against 9 faces), K4 minus
    # an edge (20 against 10) and K4 (24 against 11) above it
    k4 = [[a, b] for a in range(1, 5) for b in range(a + 1, 5)]
    edge_cases = [
        Complex.from_facets([]),  # {emptyset}
        Complex.from_facets([[5]]),  # a single vertex
        Complex.from_facets([[1, 2, 3], [3, 4], [7], [9, 10]]),  # disconnected, non-pure
        Complex.from_facets([[1, 2, 3], [4, 5]]),  # the empty face alone is shared
        Complex.from_facets([[1, v] for v in range(2, 8)]),  # the centre and the empty face
        Complex.from_facets([range(1, 13)]),  # one facet: nothing is shared
        Complex.from_facets([[1, 2], [2, 3], [3, 4], [1, 4]]),
        Complex.from_facets(k4[1:]),
        Complex.from_facets(k4),
    ]
    spheres = [cx for name, cx, _ in balanced_pairs
               if name.startswith(("cross-polytope", "sd-simplex", "barycentric-subdivision-oct"))]
    assert len(spheres) == 6
    # no face holds two vertices of one greedy color class: cp_d in its
    # antipodal pairs, the simplex boundaries one vertex a class, and a
    # pentagon (three classes) joined with cp3
    pentagon = [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]
    gridded = (
        [cross_polytope_boundary(d).complex for d in range(1, 7)]
        + [simplex_boundary(d).complex for d in range(1, 8)]
        + [Complex.from_facets(ojoin_facets(pentagon, ocross_polytope_facets(3))[0])]
    )
    corpus = randoms + [made.complex for _, made in suite] + edge_cases + spheres + gridded
    seeded_shared, grid_taken = set(), {}
    seed_shared, grid_sweep = enumeration._seed_shared, enumeration._grid_sweep

    def shared_spy(cx):
        seeded_shared.add(id(cx))
        return seed_shared(cx)

    def grid_spy(cx):
        rows = grid_sweep(cx)
        grid_taken[id(cx)] = rows is not None
        return rows

    monkeypatch.setattr(enumeration, "_seed_shared", shared_spy)
    monkeypatch.setattr(enumeration, "_grid_sweep", grid_spy)
    for cx in corpus:
        # swept afresh: the session's complexes may hold rows already
        rows = enumeration._superset_sweep(cx)
        table = MultiplicityTable(cx, rows)
        assert len(table.items()) == cx.num_faces
        for face, m in table.items():
            assert m == multiplicity(cx, face, "superset-sum")
        if any(cx is g for g in gridded):
            # the grid alone, also where the shared seeding is taken
            assert grid_sweep(cx) == rows
    # the three seedings are checked against the per-face sums
    assert [id(cx) in seeded_shared for cx in edge_cases[-3:]] == [True, False, False]
    assert 10 <= len(seeded_shared) <= len(corpus) - 10, len(seeded_shared)
    assert all(grid_taken[id(cx)] for cx in gridded if id(cx) not in seeded_shared)
    # cp1, cp2 and the boundaries of the 1- and 2-simplex lie below the line
    assert len([cx for cx in gridded if id(cx) in grid_taken]) == len(gridded) - 4
    # the sd spheres fall back to the table over every face
    assert [grid_taken[id(cx)] for cx in spheres[-2:]] == [False, False]


def test_multiplicities_grid_under_wide_shuffled_ids(monkeypatch):
    # cp9 with its 18 vertices renamed at random to ids far wider than a
    # mask: the greedy classes are still its antipodal pairs, in another
    # order, and every m_F of a sphere is 1
    rng = random.Random(9)
    ids = [rng.randrange(1, 10**30) * 18 + i for i in range(18)]  # distinct
    rng.shuffle(ids)
    facets = [[ids[v - 1] for v in f] for f in ocross_polytope_facets(9)]
    rng.shuffle(facets)
    cx = Complex.from_facets(facets)
    taken = []
    grid_sweep = enumeration._grid_sweep
    monkeypatch.setattr(enumeration, "_grid_sweep", lambda cx: taken.append(cx) or grid_sweep(cx))
    table = multiplicities(cx)
    assert taken == [cx]
    assert [len(row) for row in table.rows] == [2**k * comb(9, k) for k in range(10)]
    assert all(m == 1 for row in table.rows for m in row)


def test_multiplicities_census_of_complexes_on_five_labels(monkeypatch):
    # every complex on labels 1..5, brute force: the down-sets of 2^[5]
    # that hold the empty face, less {emptyset} itself. A mask comes after
    # all its subsets in increasing order, so one pass takes or leaves
    # each non-empty mask whose subsets one vertex smaller are all taken
    def downsets(mask, taken):
        if mask == 32:
            yield taken
            return
        yield from downsets(mask + 1, taken)
        if all(mask ^ (1 << i) in taken for i in range(5) if mask >> i & 1):
            yield from downsets(mask + 1, taken | {mask})

    paths = {"shared": 0, "grid": 0}
    seed_shared, grid_sweep = enumeration._seed_shared, enumeration._grid_sweep

    def shared_spy(cx):
        paths["shared"] += 1
        return seed_shared(cx)

    def grid_spy(cx):
        rows = grid_sweep(cx)
        paths["grid"] += rows is not None
        return rows

    monkeypatch.setattr(enumeration, "_seed_shared", shared_spy)
    monkeypatch.setattr(enumeration, "_grid_sweep", grid_spy)
    count = 0
    for masks in downsets(1, frozenset([0])):
        if len(masks) == 1:
            continue  # {emptyset}
        count += 1
        faces = [frozenset(i + 1 for i in range(5) if m >> i & 1) for m in masks]
        cx = Complex.from_facets(sorted(face) for face in faces if face)
        table = MultiplicityTable(cx, enumeration._superset_sweep(cx))
        assert {frozenset(face): m for face, m in table.items()} == {
            face: om_f(faces, face, cx.d) for face in faces
        }
    assert count == 7579
    assert paths["shared"] and paths["grid"], paths


def test_multiplicities_of_a_long_path_in_bounded_time():
    # a path of n edges is sparse enough to seed its shared faces only: n
    # edges hold the empty face and n - 1 vertices are shared under it.
    # Scanning every holder once per child took n^2 steps: 8 s against
    # 0.15 s on a 2-vCPU machine
    n = 8000
    cx = Complex.from_facets([[v, v + 1] for v in range(1, n + 1)])
    t0 = time.perf_counter()
    table = multiplicities(cx)
    assert time.perf_counter() - t0 < 2
    # an inner vertex links two points, an end one point; the path is contractible
    assert table.m_empty == 0
    assert table.rows[1].count(1) == n - 1 and table.rows[1].count(0) == 2
    assert set(table.rows[2]) == {1}


def test_multiplicities_large_cross_polytope_all_one():
    # cp10 has 3^10 faces; visiting each face's subsets took seconds
    t0 = time.perf_counter()
    cx = cross_polytope_boundary(10).complex
    table = multiplicities(cx)
    assert len(table.items()) == 3**10
    assert all(m == 1 for _, m in table.items())
    assert time.perf_counter() - t0 < 30


def test_multiplicities_of_one_facet_cost_only_the_rows():
    # one facet shares no face with another, so the sweep seeds nothing but
    # the facet: its traced peak is the rows, one 8-byte pointer per face,
    # where star lists over every face cost about 108 B per face
    cx = Complex.from_facets([range(1, 17)])
    tracemalloc.start()
    try:
        table = multiplicities(cx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.m_empty == 0 and table.m(range(1, 17)) == 1
    assert peak < 24 * cx.num_faces, peak / cx.num_faces


def test_multiplicities_of_cp10_cost_less_than_a_table_over_every_face():
    # cp10's sweep takes the color-class grid: one list cell per face and
    # the faces' cells beside the rows, where a table keyed by mask with
    # star lists over every face peaked at 103 B per face
    cx = Complex.from_facets(ocross_polytope_facets(10))
    tracemalloc.start()
    try:
        table = multiplicities(cx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.m_empty == 1 and len(table.rows[5]) == 2**5 * comb(10, 5)
    assert peak < 80 * cx.num_faces, peak / cx.num_faces


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sets(st.integers(1, 8), min_size=1, max_size=5), max_size=6),
    st.lists(st.integers(1, 10**30), min_size=8, max_size=8, unique=True),
)
def test_multiplicities_commute_with_relabelling(facets, ids):
    # an injective relabelling, to ids far wider than any mask, maps the m_F
    # table face for face
    relabel = dict(zip(range(1, 9), ids))
    cx = Complex.from_facets(facets)
    moved = multiplicities(Complex.from_facets([[relabel[v] for v in f] for f in facets]))
    table = multiplicities(cx)
    assert len(moved.items()) == len(table.items())
    for face, m in table.items():
        assert moved.m(relabel[v] for v in face) == m


def test_items_face_tuples_match_mask_vertices():
    # items() builds each face's tuple from the face one cardinality down;
    # it must equal the per-face bit walk, on a link (which keeps its
    # parent's labels, so its bits are sparse), on wide ids and on {emptyset}.
    # The same walk over label texts gives the faces' texts
    base = Complex.from_facets([[1, 2, 3], [2, 3, 4], [1, 4, 5], [3, 5]])
    wide = Complex.from_facets([[1, 10**400, 7], [7, 10**20], [2, 10**400]])
    for cx in (base.link((2,)), base.link((3,)), wide, Complex.from_facets([])):
        table = multiplicities(cx)
        expected = [
            (cx.mask_vertices(mask), m)
            for group, row in zip(cx.masks_by_card, table.rows)
            for mask, m in zip(group, row)
        ]
        assert table.items() == expected
        texts = [text for row in _prefix_walk(cx, list(map(str, cx.labels)), " ") for text in row]
        assert texts == [" ".join(map(str, face)) for face, _ in expected[1:]]
    assert multiplicities(Complex.from_facets([])).items() == [((), 1)]


def test_m_empty_is_signed_reduced_euler(randoms):
    for cx in randoms:
        table = multiplicities(cx)
        assert table.m_empty == (-1) ** (cx.d - 1) * reduced_euler(cx)


def test_central_invariant_m_poly_is_h_delta_expansion(randoms):
    # sum_F m_F x^|F| == sum_i h_i (x+1)^i x^(d-i), for every complex
    for cx in randoms:
        h = h_vector(f_vector(cx))
        assert opoly_eq(multiplicities(cx).poly(), odelta_expand(h))


def test_m_poly_is_the_oracle_sums_by_cardinality(randoms, balanced_pairs):
    # poly() is d + 1 plain ints, the sums of m_F over the faces of each
    # cardinality; om_f scans every face per face, so the balanced corpus
    # runs up to 500 faces (all but its two largest subdivisions)
    small = [cx for _, cx, _ in balanced_pairs if cx.num_faces <= 500]
    for cx in randoms + small:
        faces = ofaces_of(cx)
        sums = [0] * (cx.d + 1)
        for face in faces:
            sums[len(face)] += om_f(faces, face, cx.d)
        assert multiplicities(cx).poly() == tuple(sums)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_h_of_a_join_is_the_product(balanced_pairs, data):
    # d(K * L) = d(K) + d(L) and f(K * L) = f(K) f(L) as polynomials, so
    # h(K * L) = h(K) h(L), with no coefficient dropped
    k, l, _, facets = data.draw(join_draws(balanced_pairs))
    h = h_vector(f_vector(Complex.from_facets(facets)))
    hk, hl = h_vector(f_vector(k)), h_vector(f_vector(l))
    assert len(h) == len(hk) + len(hl) - 1
    assert opoly_eq(h, opoly_mul(hk, hl))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_multiplicities_of_a_join_multiply(balanced_pairs, data):
    # the faces of K * L above F + G are the A + B with A above F and B above
    # G, so m_(F+G)(K * L) = m_F(K) m_G(L), the empty faces included, and
    # the m_F sums by cardinality multiply as polynomials
    k, l, shift, facets = data.draw(join_draws(balanced_pairs))
    join = multiplicities(Complex.from_facets(facets))
    tk, tl = multiplicities(k), multiplicities(l)
    assert join.complex.num_faces == k.num_faces * l.num_faces
    for f, mf in tk.items():
        for g, mg in tl.items():
            assert join.m(f + tuple(v + shift for v in g)) == mf * mg
    assert len(join.poly()) == len(tk.poly()) + len(tl.poly()) - 1
    assert opoly_eq(join.poly(), opoly_mul(tk.poly(), tl.poly()))


def test_join_of_cross_polytopes_is_a_cross_polytope():
    # cp5 * cp4 is cp9 (19683 faces): h_i = C(9, i), every m_F is 1, and
    # the m_F sums are f_(k-1) = 2^k C(9, k)
    cp5, cp4 = ocross_polytope_facets(5), ocross_polytope_facets(4)
    facets, _ = ojoin_facets(cp5, cp4)
    assert sorted(facets) == sorted(ocross_polytope_facets(9))
    cx = Complex.from_facets(facets)
    k, l = Complex.from_facets(cp5), Complex.from_facets(cp4)
    h = h_vector(f_vector(cx))
    assert h == tuple(comb(9, i) for i in range(10))
    assert list(h) == opoly_mul(h_vector(f_vector(k)), h_vector(f_vector(l)))
    table = multiplicities(cx)
    assert all(m == 1 for row in table.rows for m in row)
    assert table.poly() == tuple(2**i * comb(9, i) for i in range(10))
    assert list(table.poly()) == opoly_mul(multiplicities(k).poly(), multiplicities(l).poly())


def test_epsilon_values():
    gt = glued_triangles(3).complex
    assert epsilon(gt, (1, 2), "link-euler") == 1
    assert epsilon(gt, (1, 2), "multiplicity") == 1
    oct3 = cross_polytope_boundary(3).complex
    assert epsilon(oct3, (), "link-euler") == 0
    for face in oct3.faces():
        if face:
            assert epsilon(oct3, face) == 0  # semi-Eulerian: no error


def test_epsilon_methods_agree(randoms):
    for cx in randoms[:40]:
        for face in cx.faces():
            assert epsilon(cx, face, "link-euler") == epsilon(cx, face, "multiplicity")


def test_interior_f_vectors():
    assert interior_f_vector(cylinder().complex) == (0, 6, 6)
    assert interior_f_vector(cross_polytope_boundary(3).complex) == (6, 12, 8)
    assert interior_f_vector(subdivided_triangle().complex) == (1, 3, 3)


def test_interior_requires_reciprocal():
    with pytest.raises(PreconditionError) as err:
        interior_f_vector(glued_triangles(3).complex)
    assert err.value.witness == (1, 2)


# -- the m_F memo on the complex ------------------------------------------


def _count_sweeps(monkeypatch) -> list:
    swept = []
    inner = enumeration._superset_sweep
    monkeypatch.setattr(
        enumeration, "_superset_sweep", lambda cx: swept.append(cx) or inner(cx)
    )
    return swept


def test_one_sweep_per_complex_across_the_verifiers(monkeypatch):
    swept = _count_sweeps(monkeypatch)
    made = cross_polytope_boundary(4)
    cx, coloring = made.complex, made.coloring
    assert all(rep.holds and not rep.skipped for rep in relations.verify_all(cx))
    for verify in (
        balanced.verify_flag_fh_tilde,
        balanced.verify_flag_reciprocity,
        balanced.verify_balanced_ds,
        balanced.verify_balanced_semi_eulerian,
        stanley_reisner.verify_sr_reciprocity_colored,
    ):
        assert verify(cx, coloring).holds
    assert stanley_reisner.verify_sr_reciprocity(cx).holds
    assert interior_f_vector(cx) == (8, 24, 32, 16)
    assert boundary_f_vector(cx) == (1, 0, 0, 0, 0)
    assert relations.classify(cx, FieldSpec(2)).reciprocal
    assert swept == [cx]
    # every call wraps the kept rows in a table of its own
    first, second = multiplicities(cx), multiplicities(cx)
    assert first is not second and first.rows is second.rows
    assert swept == [cx]


def test_equal_complexes_and_links_sweep_for_themselves(monkeypatch):
    swept = _count_sweeps(monkeypatch)
    cx = cross_polytope_boundary(4).complex
    again = cross_polytope_boundary(4).complex
    assert again == cx and again is not cx
    assert multiplicities(cx).rows == multiplicities(again).rows
    assert swept == [cx, again]
    link = cx.link([1])
    assert multiplicities(link).m_empty == 1
    assert swept == [cx, again, link]
    multiplicities(link)
    assert swept == [cx, again, link]


class _Droppable(Complex):
    """A complex that takes weak references, to see when it is freed."""


def test_memo_keeps_rows_so_a_dropped_complex_is_freed():
    cx = _Droppable.from_facets(cross_polytope_boundary(4).complex.facets)
    table = multiplicities(cx)
    relations.verify_all(cx)
    relations.classify(cx, FieldSpec(2))
    # link() keeps the facet stars in the same memo, as ints only
    assert cx.link([1]).num_faces == 27  # an octahedron
    assert cx._derived["facet stars"] and not hasattr(cx, "_stars")
    assert cx._derived["multiplicities"] is table.rows
    assert not any(isinstance(v, MultiplicityTable) for v in cx._derived.values())
    gone = weakref.ref(cx)
    # with the collector off, only a complex in no reference cycle is freed
    gc.disable()
    try:
        del cx, table
        assert gone() is None
    finally:
        gc.enable()


def test_threads_sharing_a_complex_read_the_same_results():
    # the memo is filled without a lock: threads racing on a fresh complex
    # may each sweep, but every one must see the serial results
    made = cross_polytope_boundary(4)
    expected = [rep.to_json_dict() for rep in relations.verify_all(made.complex)]
    cx = Complex.from_facets(made.complex.facets)
    results, errors = [], []

    def work():
        try:
            for _ in range(5):
                results.append([rep.to_json_dict() for rep in relations.verify_all(cx)])
        except Exception as exc:  # reported below; a thread cannot fail the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 40 and all(r == expected for r in results)
    assert cx._derived["multiplicities"] == multiplicities(made.complex).rows

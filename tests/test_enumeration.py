"""f/h vectors, Euler characteristics, multiplicities and interior splits."""

import gc
import random
import sys
import threading
import time
import weakref

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
    subdivided_triangle,
)

from conftest import (
    odelta_expand,
    ofaces_of,
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


def test_multiplicities_sweep_equals_per_face(randoms, suite, balanced_pairs):
    edge_cases = [
        Complex.from_facets([]),  # {emptyset}
        Complex.from_facets([[5]]),  # a single vertex
        Complex.from_facets([[1, 2, 3], [3, 4], [7], [9, 10]]),  # disconnected, non-pure
    ]
    spheres = [cx for name, cx, _ in balanced_pairs
               if name.startswith(("cross-polytope", "sd-simplex", "barycentric-subdivision-oct"))]
    assert len(spheres) == 6
    corpus = randoms + [made.complex for _, made in suite] + edge_cases + spheres
    for cx in corpus:
        table = multiplicities(cx)
        assert len(table.items()) == cx.num_faces
        for face, m in table.items():
            assert m == multiplicity(cx, face, "superset-sum")


def test_multiplicities_large_cross_polytope_all_one():
    # cp10 has 3^10 faces; visiting each face's subsets took seconds
    t0 = time.perf_counter()
    cx = cross_polytope_boundary(10).complex
    table = multiplicities(cx)
    assert len(table.items()) == 3**10
    assert all(m == 1 for _, m in table.items())
    assert time.perf_counter() - t0 < 30


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
        assert opoly_eq(multiplicities(cx).poly().coeffs, odelta_expand(h))


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

"""Relation verifiers: universal identities, f-versions, Macdonald, classify."""

import random
from math import comb

import pytest
from hypothesis import given, settings

from dskit.balanced import _flag_counts, _mvar_report, verify_balanced_semi_eulerian
from dskit.complexes import Complex
from dskit.enumeration import f_vector, h_vector, multiplicities, reduced_euler_from_f
from dskit.errors import PreconditionError, ValidationError
from dskit.generators import (
    barycentric_subdivision,
    cross_polytope_boundary,
    cylinder,
    double_banana,
    double_banana_minus_triangle,
    glued_tetrahedra,
    glued_triangles,
    simplex_boundary,
    subdivided_triangle,
)
from dskit.homology import FieldSpec, boundary_faces_homological
from dskit.poly import exponents_below
from dskit.relations import (
    RelationReport,
    _ds_f_kernel,
    _poly_report,
    _report,
    classify,
    ds_f_inverse_residuals,
    ds_f_residuals,
    macdonald_residuals,
    macdonald_two_q,
    macdonald_q,
    verify_all,
    verify_ds_f,
    verify_ds_f_inverse,
    verify_ds_h,
    verify_fh_tilde,
    verify_macdonald,
    verify_reciprocity,
    verify_semi_eulerian_h,
)

from conftest import (
    RP2_FACETS,
    TORUS7_FACETS,
    mcomb,
    ofaces_of,
    om_f,
    opoly_add,
    opoly_pow,
    opoly_scale,
    small_facet_lists,
)

PAPER_CYLINDER_F = (1, 4, 8, 4)
PAPER_CYLINDER_F_INT = (0, 4, 4)
PAPER_CYLINDER_F_BD = (1, 4, 4, 0)
PAPER_CYLINDER_M_EMPTY = -1  # (-1)^(d-1) * chi_reduced = (+1) * (-1)


def test_fh_tilde_always_holds(suite, randoms):
    for _, made in suite:
        assert verify_fh_tilde(made.complex).holds
    for cx in randoms:
        assert verify_fh_tilde(cx).holds
    assert verify_fh_tilde(Complex.from_facets([])).holds


def test_reciprocity_golden_polynomials():
    # ascending coefficient vectors of sum_F m_F x^|F|
    cases = [
        (subdivided_triangle().complex, (0, 1, 3, 3)),
        (cross_polytope_boundary(3).complex, (1, 6, 12, 8)),
        (glued_triangles(3).complex, (0, 0, 2, 3)),
        (glued_tetrahedra(3).complex, (0, 0, -2, 0, 3)),
    ]
    for cx, rhs in cases:
        rep = verify_reciprocity(cx)
        assert rep.holds
        assert tuple(rep.context["rhs"]) == rhs


def test_reciprocity_always_holds(randoms):
    for cx in randoms:
        assert verify_reciprocity(cx).holds


def test_ds_f_cylinder_relations():
    rep = verify_ds_f(cylinder().complex)
    assert rep.holds
    assert rep.context["f"] == (1, 6, 12, 6)
    assert rep.context["f_int"] == (0, 6, 6)


def test_ds_f_vector_level_paper_cylinder():
    labels, residuals = ds_f_residuals(
        PAPER_CYLINDER_F, PAPER_CYLINDER_F_INT, PAPER_CYLINDER_M_EMPTY
    )
    assert all(r == 0 for r in residuals)
    by_label = dict(zip(labels, residuals))
    # the four relations listed for Example 3.6
    assert by_label["k=1"] == 0  # f_0 = f0i - 2 f1i + 3 f2i
    assert by_label["k=2"] == 0
    assert by_label["k=3"] == 0
    assert by_label["chi"] == 0  # 4 - 8 + 4 == 0 - 4 + 4


def test_ds_f_simplex_boundary_interior_is_everything():
    cx = simplex_boundary(3).complex
    rep = verify_ds_f(cx)
    assert rep.holds
    assert rep.context["f_int"] == f_vector(cx)[1:]


def test_ds_f_requires_reciprocal():
    with pytest.raises(PreconditionError) as err:
        verify_ds_f(glued_triangles(3).complex)
    assert err.value.witness == (1, 2)


def test_ds_f_inverse_cylinder():
    cx = cylinder().complex
    rep = verify_ds_f_inverse(cx)
    assert rep.holds
    # k=3: f_int_2 == f_2; k=1: f_int_0 = f_0 - 2 f_1 + 3 f_2 = 6-24+18 = 0
    labels, residuals = ds_f_inverse_residuals((1, 6, 12, 6), (0, 6, 6))
    assert all(r == 0 for r in residuals)


def test_ds_f_inverse_vector_level_paper_cylinder():
    labels, residuals = ds_f_inverse_residuals(PAPER_CYLINDER_F, PAPER_CYLINDER_F_INT)
    assert all(r == 0 for r in residuals)


def test_ds_f_equivalence_with_inverse(suite, randoms):
    # for reciprocal complexes the two systems hold together
    for cx in [made.complex for _, made in suite] + randoms[:40]:
        if multiplicities(cx).reciprocity_witness() is not None:
            continue
        assert verify_ds_f(cx).holds
        assert verify_ds_f_inverse(cx).holds


def test_ds_h_octahedron_all_zero():
    rep = verify_ds_h(cross_polytope_boundary(3).complex)
    assert rep.holds
    assert set(rep.context["lhs"]) == {0}  # palindromic h: both sides vanish


def test_ds_h_glued_triangles_sides():
    rep = verify_ds_h(glued_triangles(3).complex)
    assert rep.holds
    assert tuple(rep.context["lhs"]) == (-1, -5, -5, 0)
    assert tuple(rep.context["rhs"]) == (-1, -5, -5, 0)


def test_ds_h_point():
    rep = verify_ds_h(Complex.from_facets([[1]]))
    assert rep.holds
    assert tuple(rep.context["h"]) == (1, 0)
    assert tuple(rep.context["lhs"]) == (-1, 0)


def test_ds_h_always_holds(randoms):
    for cx in randoms:
        assert verify_ds_h(cx).holds


def test_semi_eulerian_h_palindromes():
    rep = verify_semi_eulerian_h(cross_polytope_boundary(3).complex)
    assert rep.holds
    assert rep.context["palindrome"] is True
    assert h_vector(f_vector(cross_polytope_boundary(3).complex)) == (1, 3, 3, 1)

    banana = double_banana().complex
    assert f_vector(banana) == (1, 10, 24, 16)
    rep = verify_semi_eulerian_h(banana)
    assert rep.holds
    assert rep.context["palindrome"] is True
    assert h_vector(f_vector(banana)) == (1, 7, 7, 1)


def test_semi_eulerian_h_odd_dimensional():
    # dim 3 cross-polytope boundary: odd-dimensional, so Eulerian with chi = 0
    cx = cross_polytope_boundary(4).complex
    rep = verify_semi_eulerian_h(cx)
    assert rep.holds
    assert rep.context["eulerian"] is True


def test_semi_eulerian_h_requires_semi_eulerian():
    with pytest.raises(PreconditionError) as err:
        verify_semi_eulerian_h(cylinder().complex)
    assert err.value.witness is not None


def test_macdonald_cylinder():
    rep = verify_macdonald(cylinder().complex)
    assert rep.holds
    assert rep.context["ds_f_holds"] is True
    assert rep.context["residuals_doubled"] is True


def test_macdonald_vector_level_paper_cylinder():
    _, residuals = macdonald_residuals(
        PAPER_CYLINDER_F, PAPER_CYLINDER_F_BD, chi_reduced=-1
    )
    assert all(r == 0 for r in residuals)


def test_macdonald_fake_boundary_regression():
    # (1,5,7,2) satisfies Macdonald's relation but not the full f-version:
    # the implied interior vector (-1,1,2) violates f_2 = f^int_2 at k=3
    fake = (1, 5, 7, 2)
    _, residuals = macdonald_residuals(PAPER_CYLINDER_F, fake, chi_reduced=-1)
    assert all(r == 0 for r in residuals)
    implied_int = tuple(
        PAPER_CYLINDER_F[k] - fake[k] for k in range(1, len(PAPER_CYLINDER_F))
    )
    assert implied_int == (-1, 1, 2)
    labels, ds_res = ds_f_residuals(
        PAPER_CYLINDER_F, implied_int, PAPER_CYLINDER_M_EMPTY
    )
    assert dict(zip(labels, ds_res))["k=3"] != 0


def test_macdonald_fake_boundary_on_complex():
    # same probe on the honest 6-vertex cylinder, its counts read off the
    # complex: (1,7,9,2) solves the reduced system (implied interior
    # (-1,3,4)) but breaks f_2 = f^int_2
    cx = cylinder().complex
    f, fake = f_vector(cx), (1, 7, 9, 2)
    _, residuals = macdonald_residuals(f, fake, reduced_euler_from_f(f))
    assert all(r == 0 for r in residuals)
    implied_int = tuple(f[k] - fake[k] for k in range(1, len(f)))
    assert implied_int == (-1, 3, 4)
    _, ds_res = ds_f_residuals(f, implied_int, multiplicities(cx).m_empty)
    assert any(r != 0 for r in ds_res)


def test_macdonald_reduced_relation_d3():
    # 2 f_1 + 2 f_1^int == 3 f_2^int + 3 f_2 on the paper cylinder: 24 == 24
    f, fi = PAPER_CYLINDER_F, PAPER_CYLINDER_F_INT
    assert 2 * f[2] + 2 * fi[1] == 3 * fi[2] + 3 * f[3] == 24
    # and on the honest 6-vertex cylinder
    cyl_f, cyl_fi = (1, 6, 12, 6), (0, 6, 6)
    assert 2 * cyl_f[2] + 2 * cyl_fi[1] == 3 * cyl_fi[2] + 3 * cyl_f[3]


def test_macdonald_q_is_doubled():
    cx = cylinder().complex
    q2 = macdonald_q(cx)
    assert q2 == macdonald_two_q((1, 6, 12, 6), (1, 6, 6, 0))
    assert q2 == (1, -6, 18, -12)


def test_macdonald_q_matches_the_oracle(suite, randoms):
    # on a reciprocal complex 2Q is the tuple (-1)^k (2 f_(k-1) - f^bd_(k-1)),
    # k = 0..d, the boundary faces those with m_F = 0 by the raw superset
    # sum, f^bd_(-1) = 1; on any other complex macdonald_q refuses
    reciprocal = 0
    for cx in [made.complex for _, made in suite] + randoms:
        faces = ofaces_of(cx)
        m = {face: om_f(faces, face, cx.d) for face in faces if face}
        if any(v not in (0, 1) for v in m.values()):
            with pytest.raises(PreconditionError):
                macdonald_q(cx)
            continue
        reciprocal += 1
        f, fb = [1] + [0] * cx.d, [1] + [0] * cx.d
        for face, v in m.items():
            f[len(face)] += 1
            fb[len(face)] += v == 0
        assert macdonald_q(cx) == tuple((-1) ** k * (2 * f[k] - fb[k]) for k in range(cx.d + 1))
    assert reciprocal >= 20


def test_lemma_a1_implication(suite, randoms):
    # whenever ds-f holds, Macdonald holds (checked corpus-wide)
    checked = 0
    for cx in [made.complex for _, made in suite] + randoms[:40]:
        if multiplicities(cx).reciprocity_witness() is not None:
            continue
        if verify_ds_f(cx).holds:
            checked += 1
            assert verify_macdonald(cx).holds
    assert checked >= 8


def test_classify_goldens():
    c = classify(cross_polytope_boundary(3).complex)
    assert (c.reciprocal, c.semi_eulerian, c.eulerian, c.homology_manifold) == (
        True,
        True,
        True,
        True,
    )

    c = classify(double_banana().complex)
    assert c.eulerian and c.semi_eulerian and c.reciprocal
    assert not c.homology_manifold
    assert c.witnesses["homology_manifold"] in ((1,), (2,))

    c = classify(double_banana_minus_triangle().complex)
    assert c.reciprocal and not c.semi_eulerian
    assert c.witnesses["semi_eulerian"] in ((2,), (4,), (6,), (2, 4), (2, 6), (4, 6))


def test_classification_implications(suite, randoms):
    for cx in [made.complex for _, made in suite] + randoms[:30]:
        c = classify(cx)
        if c.eulerian:
            assert c.semi_eulerian
        if c.semi_eulerian:
            assert c.reciprocal
        if c.homology_manifold:
            assert c.reciprocal


def _cross_route_counts(cx):
    """Check the verdicts of the multiplicity sweep against the link scan's
    over GF(2) and Q; returns how many reciprocity witnesses and closed
    homology manifolds were met.

    A link with ball or sphere homology has m_F in {0, 1}, and m_F = 1 when
    it is a sphere. So the first face whose m_F is outside {0, 1} fails the
    manifold test, and the scan's witness is at or before it in (cardinality,
    mask) order; a homology manifold whose one boundary face is the empty
    face is semi-Eulerian.
    """
    witnessed = closed = 0
    place = lambda face: (len(face), cx.face_mask(face))
    for fld in (FieldSpec(2), FieldSpec(0)):
        c = classify(cx, fld)
        if not c.reciprocal:
            witnessed += 1
            assert not c.homology_manifold
            assert place(c.witnesses["homology_manifold"]) <= place(c.witnesses["reciprocal"])
        if c.homology_manifold and boundary_faces_homological(cx, fld) == ((),):
            closed += 1
            assert c.semi_eulerian
        if c.eulerian:
            assert c.semi_eulerian
    return witnessed, closed


@settings(max_examples=100, deadline=None)
@given(small_facet_lists())
def test_sweep_and_scan_agree_on_small_complexes(facets):
    _cross_route_counts(Complex.from_facets(facets))


def test_sweep_and_scan_agree_on_named_complexes(suite):
    named = [made.complex for _, made in suite]
    named += [Complex.from_facets(RP2_FACETS), Complex.from_facets(TORUS7_FACETS)]
    witnessed, closed = map(sum, zip(*map(_cross_route_counts, named)))
    # neither implication is vacuous: over both fields, four glued
    # complexes and random-23-8 have a reciprocity witness, and eight
    # spheres, RP^2 and the torus are closed homology manifolds
    assert (witnessed, closed) == (2 * 5, 2 * 10)


def test_verify_all_skips_inapplicable():
    reports = verify_all(glued_triangles(3).complex)
    by_name = {r.relation: r for r in reports}
    assert by_name["fh-tilde"].holds and not by_name["fh-tilde"].skipped
    assert by_name["ds-f"].skipped
    assert by_name["semi-eulerian-h"].skipped
    assert all(r.holds for r in reports)  # skipped ones do not fail


def test_report_context_m_empty_is_the_table_entry(suite, randoms):
    # every report derives m_empty from the f-vector; it must equal the
    # superset sweep's entry for the empty face, also in skipped reports
    for cx in [made.complex for _, made in suite] + randoms[:40]:
        m_empty = multiplicities(cx).m_empty
        for rep in verify_all(cx):
            assert rep.context["m_empty"] == m_empty


def test_report_json_round_trip():
    rep = verify_ds_h(glued_triangles(3).complex)
    data = rep.to_json_dict()
    back = RelationReport.from_json_dict(data)
    assert back.relation == rep.relation
    assert back.holds == rep.holds
    assert back.labels == rep.labels
    assert back.residuals == rep.residuals
    assert all(isinstance(x, str) for x in data["residuals"])


def test_reporters_reject_sides_of_unequal_length():
    # sides, labels and residuals are paired strictly: a short list raises
    # ValueError, under python -O too, instead of being cut to fit
    cx = cross_polytope_boundary(2).complex  # d = 2
    assert _poly_report("p", cx, [1, 4, 4], [1, 4, 4]).holds
    for lhs, rhs in (([1, 4, 4], [1, 4]), ([1, 4], [1, 4, 4]), ([1, 4, 4, 0], [1, 4, 4, 0])):
        with pytest.raises(ValueError):
            _poly_report("p", cx, lhs, rhs)
    with pytest.raises(ValueError):
        _poly_report("p", cx, [1, 4, 4], [1, 4, 4], ["i=0"], [0, 0])
    a = (1, 1)
    assert _mvar_report("m", cx, a, [1, 2, 2, 4], [1, 2, 2, 4]).holds
    for lhs, rhs in (([1, 2, 2, 4], [1, 2, 2]), ([1, 2, 2], [1, 2, 2, 4]), ([1] * 5, [1] * 5)):
        with pytest.raises(ValueError):
            _mvar_report("m", cx, a, lhs, rhs)
    with pytest.raises(ValueError):
        _report("r", ["x^0", "x^1"], [0], {})


# -- the f-versions as one involution, against the per-index sums ----------


def ref_ds_f_residuals(f, f_int, m_empty):
    """ds-f by its per-index loop: one sum over i for each k, then chi."""
    d = len(f) - 1
    residuals = []
    for k in range(d + 1):
        rhs = sum((-1) ** (d - i) * comb(i, k) * f_int[i - 1] for i in range(max(k, 1), d + 1))
        if k == 0:
            rhs += (-1) ** d * m_empty
        residuals.append(f[k] - rhs)
    chi = sum((-1) ** (i - 1) * f[i] for i in range(1, d + 1))
    chi_int = sum((-1) ** (i - 1) * f_int[i - 1] for i in range(1, d + 1))
    return residuals + [chi - (-1) ** (d - 1) * chi_int]


def ref_ds_f_inverse_residuals(f, f_int):
    """ds-f-inverse by its per-index loop, k >= 1."""
    d = len(f) - 1
    return [
        f_int[k - 1] - sum((-1) ** (d - i) * comb(i, k) * f[i] for i in range(k, d + 1))
        for k in range(1, d + 1)
    ]


def ref_involution(v, a):
    """(-1)^|a| v(-1-x), coefficientwise: sum over b >= e of (-1)^(|a|-|b|) C(b, e) v_b."""
    lattice = list(exponents_below(a))
    return [
        sum((-1) ** (sum(a) - sum(b)) * mcomb(b, e) * vb for b, vb in zip(lattice, v))
        for e in lattice
    ]


def ref_macdonald_residuals(f, fb, chi_reduced):
    """(-1)^d Q(-x) - Q(1+x) - cte, doubled: Q(1+x) by powers of (1+x), Q(-x) by signs."""
    d = len(f) - 1
    q = [(-1) ** k * (2 * f[k] - fb[k]) for k in range(d + 1)]
    shifted = [0]
    for j, qj in enumerate(q):
        shifted = opoly_add(shifted, opoly_scale(opoly_pow([1, 1], j), qj))
    shifted += [0] * (d + 1 - len(shifted))
    residuals = [(-1) ** d * (-1) ** k * q[k] - shifted[k] for k in range(d + 1)]
    if (d - 1) % 2 == 0:
        residuals[0] -= 2 * chi_reduced
    return residuals


def _sparse(rng, n):
    return [rng.choice((0, rng.randrange(-(10**6), 10**6))) for _ in range(n)]


def test_ds_f_kernel_is_the_involution_of_the_per_index_sums():
    rng = random.Random(1313)
    bounds = [(d,) for d in range(13)] + [(), (0, 2), (2, 0, 1), (3, 2), (1, 1, 1, 1)]
    bounds += [tuple(rng.randrange(0, 4) for _ in range(rng.randrange(1, 4))) for _ in range(30)]
    for a in bounds:
        size = len(list(exponents_below(a)))
        for v in ([0] * size, [1] * size, _sparse(rng, size)):
            got = _ds_f_kernel(a, v)
            assert got == ref_involution(v, a)
            assert _ds_f_kernel(a, got) == v  # S o S = id


def test_ds_f_kernel_turns_face_counts_into_multiplicity_counts(suite, randoms, balanced_pairs):
    # S(f) = sum_F m_F x^b(F) for every complex; at a = (d,) it is the
    # multiplicity polynomial, at a coloring's type the flag m_F sums
    for cx in [made.complex for _, made in suite] + randoms[:40]:
        assert _ds_f_kernel((cx.d,), list(f_vector(cx))) == list(multiplicities(cx).poly())
    for _, cx, coloring in balanced_pairs:
        multiplicities(cx)  # kept, so the face walk adds up the m_F
        f, _, msum = _flag_counts(cx, coloring)
        assert _ds_f_kernel(coloring.a, f) == msum


def test_f_version_residuals_match_the_per_index_sums():
    rng = random.Random(1314)
    for trial in range(120):
        d = trial % 13
        f = [1] + [rng.randrange(1, 10**4) for _ in range(d)]
        f_int = [rng.randrange(-50, 10**4) for _ in range(d)]
        fb = [1] + [rng.randrange(-50, 10**4) for _ in range(d)]
        m_empty, chi = rng.randrange(-3, 4), rng.randrange(-3, 4)
        labels, residuals = ds_f_residuals(f, f_int, m_empty)
        assert labels == tuple(f"k={k}" for k in range(d + 1)) + ("chi",)
        assert list(residuals) == ref_ds_f_residuals(f, f_int, m_empty)
        labels, residuals = ds_f_inverse_residuals(f, f_int)
        assert labels == tuple(f"k={k}" for k in range(1, d + 1))
        assert list(residuals) == ref_ds_f_inverse_residuals(f, f_int)
        labels, residuals = macdonald_residuals(f, fb, chi)
        assert labels == tuple(f"x^{k}" for k in range(d + 1))
        assert list(residuals) == ref_macdonald_residuals(f, fb, chi)


def test_f_version_residuals_reject_bad_vectors():
    with pytest.raises(ValidationError, match="^f-vector must start with f_-1 = 1$"):
        ds_f_residuals((2, 1), (1,), 0)
    with pytest.raises(ValidationError, match="^top face count must be >= 1$"):
        ds_f_inverse_residuals((1, 3, 0), (1, 2))
    for f_int in ((), (1, 2, 3)):
        with pytest.raises(ValidationError, match=r"^interior vector must have length d=2$"):
            ds_f_residuals((1, 3, 3), f_int, 0)
        with pytest.raises(ValidationError, match=r"^interior vector must have length d=2$"):
            ds_f_inverse_residuals((1, 3, 3), f_int)
    with pytest.raises(ValidationError, match=r"^boundary f-vector must be"):
        macdonald_residuals((1, 3, 3), (2, 3, 3), 0)


def test_semi_eulerian_relations_with_a_nonzero_gap():
    # closed manifolds that are not spheres: the gap chi_reduced - (-1)^(d-1)
    # is -2 on the 7-vertex torus and -1 on RP^2, so h is no palindrome
    for facets, h, gap in ((TORUS7_FACETS, (1, 4, 10, -1), -2), (RP2_FACETS, (1, 3, 6, 0), -1)):
        cx = Complex.from_facets(facets)
        rep = verify_semi_eulerian_h(cx)
        assert rep.holds and rep.context["h"] == h
        assert rep.context["palindrome"] is False and rep.context["eulerian"] is False
        assert h[3] - h[0] == gap
        reports = verify_all(cx)
        assert [r.relation for r in reports if r.skipped] == []
        assert all(r.holds for r in reports)
    torus = Complex.from_facets(TORUS7_FACETS)
    assert multiplicities(torus).m_empty == -1  # reaches the k=0 term of ds-f
    sd = barycentric_subdivision(torus)
    rep = verify_balanced_semi_eulerian(sd.complex, sd.coloring)
    assert rep.holds and rep.context["palindrome"] is False

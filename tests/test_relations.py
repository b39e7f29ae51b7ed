"""Relation verifiers: universal identities, f-versions, Macdonald, classify."""

import pytest

from dskit.balanced import _mvar_report
from dskit.complexes import Complex
from dskit.enumeration import f_vector, h_vector, multiplicities
from dskit.errors import PreconditionError
from dskit.generators import (
    cross_polytope_boundary,
    cylinder,
    double_banana,
    double_banana_minus_triangle,
    glued_tetrahedra,
    glued_triangles,
    simplex_boundary,
    subdivided_triangle,
)
from dskit.relations import (
    RelationReport,
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
    # same probe driven through the complex-level op on the honest cylinder:
    # (1,7,9,2) solves the reduced system (implied interior (-1,3,4)) but
    # breaks f_2 = f^int_2
    cx = cylinder().complex
    rep = verify_macdonald(cx, boundary_f=(1, 7, 9, 2))
    assert rep.holds
    assert rep.context["ds_f_holds"] is False


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
    assert q2.coeffs == (1, -6, 18, -12)


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

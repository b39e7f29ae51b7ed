"""Colorings, flag vectors and the multivariate Dehn-Sommerville checks."""

import pytest

from dskit.balanced import (
    b_of,
    flag_f,
    flag_f_mpoly,
    flag_h,
    flag_h_from_expansion,
    multiplicity_mpoly,
    validate_balanced,
    verify_balanced_ds,
    verify_balanced_semi_eulerian,
    verify_flag_fh_tilde,
    verify_flag_reciprocity,
)
from dskit.complexes import Complex
from dskit.enumeration import f_vector, h_vector, multiplicities
from dskit.errors import PreconditionError, ValidationError
from dskit.generators import (
    barycentric_subdivision,
    cross_polytope_boundary,
    cylinder,
    double_banana,
    glued_triangles,
    simplex_boundary,
)
from dskit.poly import IntPoly, exponents_below, mcomb
from dskit.relations import verify_ds_h, verify_reciprocity


def colored_octahedron():
    return cross_polytope_boundary(3)


def test_validate_octahedron_coloring():
    made = colored_octahedron()
    assert made.coloring.a == (1, 1, 1)
    assert made.coloring.kappa[1] == made.coloring.kappa[2] == 1


def test_validate_path_coloring():
    cx = Complex.from_facets([[1, 2], [2, 3]])
    coloring = validate_balanced(cx, {1: 1, 2: 2, 3: 1})
    assert coloring.a == (1, 1)
    # explicit type vector works too
    assert validate_balanced(cx, {1: 1, 2: 2, 3: 1}, a=(1, 1)).a == (1, 1)


def test_monochrome_path_is_balanced_of_type_two():
    # one color class with two vertices per facet is a legal type (2,)
    cx = Complex.from_facets([[1, 2], [2, 3]])
    assert validate_balanced(cx, {1: 1, 2: 1, 3: 1}).a == (2,)


def test_validate_rejects_inconsistent_facet_types():
    cx = Complex.from_facets([[1, 2], [2, 3]])
    with pytest.raises(ValidationError):
        validate_balanced(cx, {1: 1, 2: 1, 3: 2})  # facets disagree: (2,0) vs (1,1)
    with pytest.raises(ValidationError):
        validate_balanced(cx, {1: 1, 2: 2, 3: 1}, a=(2, 0))


def test_validate_rejects_uncolored_vertex():
    cx = Complex.from_facets([[1, 2]])
    with pytest.raises(ValidationError):
        validate_balanced(cx, {1: 1})


def test_validate_rejects_impure_type():
    # non-pure complex: the two facets force different color counts
    cx = Complex.from_facets([[1, 2], [3]])
    with pytest.raises(ValidationError):
        validate_balanced(cx, {1: 1, 2: 2, 3: 1})


def test_b_of():
    made = colored_octahedron()
    kappa, m = made.coloring.kappa, made.coloring.m
    assert b_of((), kappa, m) == (0, 0, 0)
    for facet in made.complex.facets:
        assert b_of(facet, kappa, m) == made.coloring.a
    for face in made.complex.faces():
        if len(face) == 2:
            bf = b_of(face, kappa, m)
            assert sum(bf) == 2 and set(bf) <= {0, 1}


def test_flag_f_octahedron_powers_of_two():
    made = colored_octahedron()
    f = flag_f(made.complex, made.coloring)
    assert f == {b: 2 ** sum(b) for b in exponents_below((1, 1, 1))}


def test_flag_h_octahedron_all_ones():
    made = colored_octahedron()
    h = flag_h(made.complex, made.coloring)
    assert h == {b: 1 for b in exponents_below((1, 1, 1))}


def test_flag_single_colored_vertex():
    cx = Complex.from_facets([[1]])
    coloring = validate_balanced(cx, {1: 1})
    assert flag_f(cx, coloring) == {(0,): 1, (1,): 1}
    assert flag_h(cx, coloring) == {(0,): 1, (1,): 0}


def test_flag_h_closed_form_equals_expansion(balanced_pairs):
    for _, cx, coloring in balanced_pairs:
        assert flag_h(cx, coloring) == flag_h_from_expansion(cx, coloring)


@pytest.mark.parametrize(
    "made",
    [simplex_boundary(4), cylinder(), cross_polytope_boundary(3)],
    ids=["simplex-boundary-4", "cylinder", "octahedron"],
)
def test_flag_h_monochromatic_type_is_h_vector(made):
    # one color, type (d,): the binomial weights C(a-c, b-c) are not all 1,
    # and both flag routes must collapse to the univariate h-vector
    cx = made.complex
    coloring = validate_balanced(cx, {v: 1 for v in cx.vertices})
    assert coloring.a == (cx.d,)
    h = flag_h(cx, coloring)
    assert h == flag_h_from_expansion(cx, coloring)
    assert tuple(h[(k,)] for k in range(cx.d + 1)) == h_vector(f_vector(cx))


def test_flag_h_type_two_one_suspended_triangle():
    # suspension of a triangle boundary; the apexes 4 and 5 take color 2
    cx = Complex.from_facets([[1, 2, 4], [1, 3, 4], [2, 3, 4], [1, 2, 5], [1, 3, 5], [2, 3, 5]])
    coloring = validate_balanced(cx, {1: 1, 2: 1, 3: 1, 4: 2, 5: 2})
    assert coloring.a == (2, 1)
    assert flag_f(cx, coloring) == {
        (0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 6, (2, 0): 3, (2, 1): 6
    }
    h = flag_h(cx, coloring)
    assert h == flag_h_from_expansion(cx, coloring)
    assert h == {b: 1 for b in exponents_below((2, 1))}  # summed by |b|: 1 2 2 1
    assert verify_flag_fh_tilde(cx, coloring).holds
    assert verify_flag_reciprocity(cx, coloring).holds
    assert verify_balanced_ds(cx, coloring).holds
    assert verify_balanced_semi_eulerian(cx, coloring).holds


def test_flag_h_weightless_form_on_completely_balanced(balanced_pairs):
    # with a 0/1 type vector the binomial weights vanish and the plain
    # inclusion-exclusion over f_c gives the same h-numbers
    checked = 0
    for _, cx, coloring in balanced_pairs:
        if coloring.a != (1,) * len(coloring.a):
            continue
        checked += 1
        f = flag_f(cx, coloring)
        h = flag_h(cx, coloring)
        for b in exponents_below(coloring.a):
            plain = sum(
                (-1) ** (sum(b) - sum(c)) * f[c] for c in exponents_below(b)
            )
            assert h[b] == plain
        if checked >= 6:
            break
    assert checked >= 3


def test_flag_fh_tilde(balanced_pairs):
    cx = Complex.from_facets([[1]])
    assert verify_flag_fh_tilde(cx, validate_balanced(cx, {1: 1})).holds
    for _, cx, coloring in balanced_pairs:
        assert verify_flag_fh_tilde(cx, coloring).holds


def test_flag_reciprocity_octahedron_specializes_to_univariate():
    made = colored_octahedron()
    rep = verify_flag_reciprocity(made.complex, made.coloring)
    assert rep.holds
    table = multiplicities(made.complex)
    mp = multiplicity_mpoly(made.complex, made.coloring, table)
    assert mp.specialized() == IntPoly([1, 6, 12, 8])
    # all m_F = 1 here, so the multivariate count is just the flag f-polynomial
    assert mp == flag_f_mpoly(made.complex, made.coloring)


def test_flag_reciprocity_single_vertex():
    cx = Complex.from_facets([[1]])
    coloring = validate_balanced(cx, {1: 1})
    rep = verify_flag_reciprocity(cx, coloring)
    assert rep.holds
    assert dict(rep.context["rhs"]) == {(1,): 1}  # m_empty = 0, m_vertex = 1


def test_flag_reciprocity_subdivided_cylinder():
    made = barycentric_subdivision(cylinder().complex)
    assert verify_flag_reciprocity(made.complex, made.coloring).holds


def test_flag_reciprocity_everywhere(balanced_pairs):
    for _, cx, coloring in balanced_pairs:
        assert verify_flag_reciprocity(cx, coloring).holds


def test_balanced_ds_octahedron_zero_residuals():
    made = colored_octahedron()
    rep = verify_balanced_ds(made.complex, made.coloring)
    assert rep.holds
    assert all(r == 0 for r in rep.residuals)


def test_balanced_ds_subdivided_glued_triangles_brute_force():
    made = barycentric_subdivision(glued_triangles(3).complex)
    cx, coloring = made.complex, made.coloring
    rep = verify_balanced_ds(cx, coloring)
    assert rep.holds
    # independent brute force of the scalar right-hand side
    table = multiplicities(cx)
    h = flag_h(cx, coloring)
    a = coloring.a
    faces = list(cx.faces())
    for b in exponents_below(a):
        acc = 0
        for face in faces:
            bf = b_of(face, coloring.kappa, coloring.m)
            if all(x <= y for x, y in zip(bf, b)):
                eps = (-1) ** (cx.d - 1 - len(face)) * (table.m(face) - 1)
                acc += mcomb(tuple(x - y for x, y in zip(a, bf)),
                             tuple(x - y for x, y in zip(a, b))) * eps
        ab = tuple(x - y for x, y in zip(a, b))
        assert h[b] - h[ab] == (-1) ** (sum(a) - sum(b)) * acc


def test_balanced_ds_everywhere(balanced_pairs):
    for _, cx, coloring in balanced_pairs:
        assert verify_balanced_ds(cx, coloring).holds


def test_balanced_ds_single_color_reduces_to_univariate():
    # one color, a = (d): flag data collapses to the univariate h-vector
    cx = cross_polytope_boundary(3).complex
    coloring = validate_balanced(cx, {v: 1 for v in cx.vertices})
    assert coloring.a == (3,)
    h = flag_h(cx, coloring)
    uni = h_vector(f_vector(cx))
    assert {b[0]: v for b, v in h.items()} == dict(enumerate(uni))
    rep = verify_balanced_ds(cx, coloring)
    assert rep.holds
    assert verify_ds_h(cx).holds


def test_balanced_semi_eulerian_octahedron_palindrome():
    made = colored_octahedron()
    rep = verify_balanced_semi_eulerian(made.complex, made.coloring)
    assert rep.holds
    assert rep.context["palindrome"] is True
    assert rep.context["completely_balanced"] is True


def test_balanced_semi_eulerian_double_banana():
    made = double_banana()
    rep = verify_balanced_semi_eulerian(made.complex, made.coloring)
    assert rep.holds
    assert rep.context["palindrome"] is True  # chi_reduced = (-1)^(d-1)
    h = flag_h(made.complex, made.coloring)
    a = made.coloring.a
    for b in exponents_below(a):
        assert h[b] == h[tuple(x - y for x, y in zip(a, b))]


def test_balanced_semi_eulerian_requires_semi_eulerian():
    made = barycentric_subdivision(glued_triangles(3).complex)
    with pytest.raises(PreconditionError):
        verify_balanced_semi_eulerian(made.complex, made.coloring)


def test_completely_balanced_multibinomials_are_trivial(balanced_pairs):
    # on completely balanced complexes Thm 6.6 needs no binomial weights:
    # recomputing the scalar side without them gives identical residuals
    count = 0
    for _, cx, coloring in balanced_pairs:
        if coloring.a != (1,) * len(coloring.a) or cx.d > 3:
            continue
        count += 1
        table = multiplicities(cx)
        h = flag_h(cx, coloring)
        a = coloring.a
        for b in exponents_below(a):
            acc = 0
            for face in cx.faces():
                bf = b_of(face, coloring.kappa, coloring.m)
                if all(x <= y for x, y in zip(bf, b)):
                    acc += (-1) ** (cx.d - 1 - len(face)) * (table.m(face) - 1)
            ab = tuple(x - y for x, y in zip(a, b))
            assert h[b] - h[ab] == (-1) ** (sum(a) - sum(b)) * acc
    assert count >= 3


def test_specialization_consistency(balanced_pairs):
    # substituting x_i -> x collapses every flag object to its univariate twin
    for _, cx, coloring in balanced_pairs[:15]:
        f = f_vector(cx)
        h = h_vector(f)
        assert flag_f_mpoly(cx, coloring).specialized() == IntPoly(f)
        hm = flag_h(cx, coloring)
        collapsed = [0] * (cx.d + 1)
        for b, v in hm.items():
            collapsed[sum(b)] += v
        assert tuple(collapsed) == h
        # Eq-level: multivariate reciprocity sides specialize to the univariate ones
        rep = verify_flag_reciprocity(cx, coloring)
        uni = verify_reciprocity(cx)
        table = multiplicities(cx)
        mp = multiplicity_mpoly(cx, coloring, table)
        assert tuple(mp.specialized().padded(cx.d).coeffs) == tuple(uni.context["rhs"])


def test_subdivision_is_completely_balanced(randoms):
    from conftest import purify

    checked = 0
    for cx in randoms[:25]:
        base = purify(cx)
        if base.d < 1 or base.d > 4:
            continue
        made = barycentric_subdivision(base)
        assert made.coloring is not None
        assert made.coloring.a == (1,) * base.d
        checked += 1
    assert checked >= 5

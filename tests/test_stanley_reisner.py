"""Hilbert-series identities and cross-route reciprocity checks."""

from dskit.balanced import flag_h, validate_balanced, verify_flag_reciprocity
from dskit.complexes import Complex
from dskit.enumeration import f_vector, h_vector
from dskit.generators import (
    barycentric_subdivision,
    cross_polytope_boundary,
    glued_triangles,
)
from dskit.poly import IntPoly, MPoly
from dskit.relations import verify_reciprocity
from dskit.stanley_reisner import (
    hilbert_series,
    hilbert_series_colored,
    verify_sr_reciprocity,
    verify_sr_reciprocity_colored,
)
from conftest import opoly_add, opoly_mul, opoly_pow
from test_balanced import flag_h_from_expansion


def _numerator_from_faces(f: tuple[int, ...]) -> list[int]:
    """sum_i f_{i-1} L^i (1-L)^(d-i) as d+1 coefficients, by list arithmetic."""
    d = len(f) - 1
    acc = [0]
    for i, fi in enumerate(f):
        acc = opoly_add(acc, opoly_mul([0] * i + [fi], opoly_pow([1, -1], d - i)))
    return acc + [0] * (d + 1 - len(acc))


def test_hilbert_series_single_vertex():
    s = hilbert_series(Complex.from_facets([[1]]))
    assert s.numerator == IntPoly([1])
    assert s.denominator_exponent == 1


def test_hilbert_series_octahedron():
    s = hilbert_series(cross_polytope_boundary(3).complex)
    assert s.numerator == IntPoly([1, 3, 3, 1])
    assert s.denominator_exponent == 3


def test_hilbert_series_empty_complex():
    s = hilbert_series(Complex.from_facets([]))
    assert s.numerator == IntPoly([1])
    assert s.denominator_exponent == 0


def test_hilbert_numerator_is_h_vector(suite, randoms):
    # reference route: clear the denominator of sum_F L^|F| / (1-L)^|F|
    for cx in [made.complex for _, made in suite] + randoms:
        s = hilbert_series(cx)
        assert tuple(s.numerator.coeffs) == h_vector(f_vector(cx))
        assert list(s.numerator.coeffs) == _numerator_from_faces(f_vector(cx))
        assert s.denominator_exponent == cx.d


def test_sr_reciprocity_goldens():
    rep = verify_sr_reciprocity(cross_polytope_boundary(3).complex)
    assert rep.holds
    assert tuple(rep.context["lhs"]) == (1, 6, 12, 8)
    rep = verify_sr_reciprocity(glued_triangles(3).complex)
    assert rep.holds
    assert tuple(rep.context["lhs"]) == (0, 0, 2, 3)
    rep = verify_sr_reciprocity(Complex.from_facets([[1]]))
    assert rep.holds
    assert tuple(rep.context["lhs"]) == (0, 1)


def test_sr_route_equals_direct_route(suite, randoms):
    for cx in [made.complex for _, made in suite] + randoms[:40]:
        sr = verify_sr_reciprocity(cx)
        direct = verify_reciprocity(cx)
        assert sr.holds and direct.holds
        assert tuple(sr.context["rhs"]) == tuple(direct.context["rhs"])
        assert tuple(sr.context["lhs"]) == tuple(direct.context["lhs"])


def test_sr_colored_octahedron_matches_flag_route():
    made = cross_polytope_boundary(3)
    rep = verify_sr_reciprocity_colored(made.complex, made.coloring)
    flag = verify_flag_reciprocity(made.complex, made.coloring)
    assert rep.holds and flag.holds
    assert rep.context["rhs"] == flag.context["rhs"]
    assert rep.context["lhs"] == flag.context["lhs"]
    # colored numerator coefficients are the flag h-numbers
    numer = dict(rep.context["numerator"])
    h = flag_h(made.complex, made.coloring)
    assert numer == {b: v for b, v in h.items() if v}


def test_sr_colored_single_vertex():
    cx = Complex.from_facets([[1]])
    coloring = validate_balanced(cx, {1: 1})
    rep = verify_sr_reciprocity_colored(cx, coloring)
    assert rep.holds
    assert dict(rep.context["lhs"]) == {(1,): 1}  # the polynomial x_1


def test_sr_colored_subdivided_path():
    base = Complex.from_facets([[1, 2], [2, 3]])
    made = barycentric_subdivision(base)
    rep = verify_sr_reciprocity_colored(made.complex, made.coloring)
    assert rep.holds
    # brute-force the multiplicity side from raw faces
    from dskit.balanced import b_of
    from dskit.enumeration import multiplicities

    table = multiplicities(made.complex)
    acc: dict = {}
    for face, m in table.items():
        bf = b_of(face, made.coloring.kappa, made.coloring.m)
        acc[bf] = acc.get(bf, 0) + m
    acc = {b: v for b, v in acc.items() if v}
    assert dict(rep.context["rhs"]) == acc


def test_sr_colored_on_balanced_corpus(balanced_pairs):
    for _, cx, coloring in balanced_pairs:
        # the colored numerator is the closed-form flag_h; the face-sum
        # expansion in test_balanced is its independent reference
        series = hilbert_series_colored(cx, coloring)
        assert series.numerator == MPoly(flag_h(cx, coloring), coloring.a)
        assert series.numerator == MPoly(flag_h_from_expansion(cx, coloring), coloring.a)
        assert series.denominator_exponent == coloring.a
        rep = verify_sr_reciprocity_colored(cx, coloring)
        assert rep.holds
        flag = verify_flag_reciprocity(cx, coloring)
        assert rep.context["rhs"] == flag.context["rhs"]
        assert rep.context["lhs"] == flag.context["lhs"]

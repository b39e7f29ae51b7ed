"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line
per criterion. Every comparison is exact integer equality; the only
non-exact bounds are the stated runtime budgets.
"""

import random
import time
from contextlib import contextmanager

from dskit.balanced import (
    flag_h,
    verify_balanced_ds,
    verify_flag_fh_tilde,
    verify_flag_reciprocity,
)
from dskit.complexes import Complex
from dskit.enumeration import (
    epsilon,
    euler_from_f,
    f_vector,
    h_vector,
    multiplicities,
    multiplicity,
)
from dskit.generators import (
    cross_polytope_boundary,
    cylinder,
    double_banana,
    double_banana_minus_triangle,
    glued_tetrahedra,
    glued_triangles,
    random_complex,
    subdivided_triangle,
)
from dskit.homology import boundary_faces_homological, is_homology_manifold
from dskit.poly import (
    IntPoly,
    MPoly,
    delta_expand,
    exponents_below,
    mdelta_expand,
    mmonomial_to_delta,
    monomial_to_delta,
)
from dskit.relations import (
    classify,
    ds_f_residuals,
    macdonald_residuals,
    verify_ds_f,
    verify_ds_h,
    verify_fh_tilde,
    verify_macdonald,
    verify_reciprocity,
    verify_semi_eulerian_h,
)
from dskit.stanley_reisner import verify_sr_reciprocity, verify_sr_reciprocity_colored

from conftest import balanced_corpus, named_suite, odelta_expand, opoly_eq, random_corpus
from test_balanced import flag_h_from_expansion
from test_stanley_reisner import _numerator_from_faces


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {description}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number}] {description}: PASS ({elapsed:.2f}s)")


def test_criterion_1_section7_golden_outputs():
    with criterion(1, "worked-example reciprocity polynomials"):
        start = time.perf_counter()
        cases = [
            (subdivided_triangle().complex, (0, 1, 3, 3)),      # 3x^3+3x^2+x
            (cross_polytope_boundary(3).complex, (1, 6, 12, 8)),  # 8x^3+12x^2+6x+1
            (glued_triangles(3).complex, (0, 0, 2, 3)),          # 3x^3+2x^2
            (glued_tetrahedra(3).complex, (0, 0, -2, 0, 3)),     # 3x^4-2x^2
        ]
        for cx, expected in cases:
            rep = verify_reciprocity(cx)
            assert rep.holds
            assert tuple(rep.context["rhs"]) == expected
            assert tuple(rep.context["lhs"]) == expected
        assert time.perf_counter() - start < 1.0


def test_criterion_2_example_3_6_reproduction():
    with criterion(2, "triangulated-cylinder vectors and linear relations"):
        f, f_int = (1, 4, 8, 4), (0, 4, 4)
        m_empty = (-1) ** (3 - 1) * (euler_from_f(f) - 1)
        assert m_empty == -1
        labels, residuals = ds_f_residuals(f, f_int, m_empty)
        by_label = dict(zip(labels, residuals))
        # k=1: f_0 = f0i - 2 f1i + 3 f2i ; k=2 ; k=3 ; chi: 4-8+4 = 0-4+4
        assert by_label["k=1"] == 0
        assert by_label["k=2"] == 0
        assert by_label["k=3"] == 0
        assert by_label["chi"] == 0
        assert all(r == 0 for r in residuals)


def test_criterion_3_universal_identities_on_500_random_complexes():
    with criterion(3, "universal identities on 500 seeded complexes"):
        start = time.perf_counter()
        corpus = []
        for seed in range(500):
            n = 3 + (seed % 6)
            density = 0.2 + 0.15 * (seed % 5)
            corpus.append(random_complex(seed, n, density).complex)
        corpus.append(Complex.from_facets([]))
        non_pure = 0
        for cx in corpus:
            non_pure += 0 if cx.is_pure() else 1
            assert verify_fh_tilde(cx).holds       # recovers f-polynomial
            assert verify_reciprocity(cx).holds    # multiplicity count
            assert verify_ds_h(cx).holds           # h-version, poly + scalar
        assert len(corpus) > 500 and non_pure >= 50
        for _, cx, coloring in balanced_corpus():
            assert sum(coloring.a) <= 6
            assert verify_flag_fh_tilde(cx, coloring).holds
            assert verify_flag_reciprocity(cx, coloring).holds
            assert verify_balanced_ds(cx, coloring).holds
        assert time.perf_counter() - start < 60.0


def test_criterion_4_multiplicity_and_error_oracle_equivalence():
    with criterion(4, "dual-route multiplicities and errors agree per face"):
        corpus = [made.complex for _, made in named_suite()] + random_corpus(60)
        for cx in corpus:
            table = multiplicities(cx)
            for face, m_swept in table.items():
                assert m_swept == multiplicity(cx, face, "superset-sum")
                assert m_swept == multiplicity(cx, face, "link-euler")
                assert epsilon(cx, face, "link-euler") == epsilon(
                    cx, face, "multiplicity"
                )


def test_criterion_5_homology_manifold_suite():
    with criterion(5, "manifold recognition and boundary splits"):
        cyl = cylinder().complex
        verdict = is_homology_manifold(cyl)
        assert verdict.is_manifold
        boundary = set(boundary_faces_homological(cyl))
        assert len(boundary) > 1  # manifold WITH boundary
        table = multiplicities(cyl)
        for face, m in table.items():
            if face:
                assert m in (0, 1)
                assert (m == 0) == (face in boundary)  # homological == multiplicity

        banana = double_banana().complex
        table = multiplicities(banana)
        assert all(m == 1 for face, m in table.items() if face)
        assert table.m_empty == 1  # Eulerian
        verdict = is_homology_manifold(banana)
        assert not verdict.is_manifold
        assert verdict.witness in ((1,), (2,))  # a gluing vertex
        assert verdict.witness_betti.b(0) == 1
        assert verdict.witness_betti.b(1) == 2

        cut = double_banana_minus_triangle().complex
        cls = classify(cut)
        assert cls.reciprocal and not cls.semi_eulerian


def test_criterion_6_macdonald_appendix():
    with criterion(6, "Macdonald relation: implication, counterexample, d=3"):
        # the weaker polynomial relation follows wherever the full one holds
        corpus = [made.complex for _, made in named_suite()] + random_corpus(60)
        implications = 0
        for cx in corpus:
            if multiplicities(cx).reciprocity_witness() is not None:
                continue
            if verify_ds_f(cx).holds:
                implications += 1
                assert verify_macdonald(cx).holds
        assert implications >= 10

        # the (1,5,7,2) probe satisfies Macdonald yet breaks relation k=3
        f, chi_r = (1, 4, 8, 4), -1
        _, mres = macdonald_residuals(f, (1, 5, 7, 2), chi_r)
        assert all(r == 0 for r in mres)
        labels, dres = ds_f_residuals(f, (-1, 1, 2), m_empty=-1)
        assert dict(zip(labels, dres))["k=3"] != 0

        # reduced d=3 system on the cylinder numbers: 2f1+2f1i = 3f2i+3f2 = 24
        assert 2 * 8 + 2 * 4 == 3 * 4 + 3 * 4 == 24


def test_criterion_7_delta_basis_round_trips():
    with criterion(7, "delta-basis round trips, 1000 exact cases"):
        rng = random.Random(20240817)
        for _ in range(500):
            d = rng.randrange(0, 13)
            p = IntPoly([rng.randrange(-(10**6), 10**6) for _ in range(d + 1)])
            assert delta_expand(monomial_to_delta(p)) == p
        for _ in range(500):
            m = rng.randrange(1, 5)
            budget = 8
            a = []
            for _ in range(m):
                ai = rng.randrange(0, min(3, budget) + 1)
                budget -= ai
                a.append(ai)
            a = tuple(a)
            coeffs = {
                e: rng.randrange(-(10**6), 10**6)
                for e in exponents_below(a)
                if rng.random() < 0.6
            }
            p = MPoly(coeffs, a)
            assert mdelta_expand(mmonomial_to_delta(p)) == p


def test_criterion_8_stanley_reisner_routes():
    # the series reports share their arithmetic with the direct ones, so
    # the numerators are also checked against face-count expansions that
    # share none: IntPoly products of (1-L), and per-face flag terms
    with criterion(8, "series route equals direct reciprocity route"):
        for name, made in named_suite():
            cx = made.complex
            rep = verify_sr_reciprocity(cx)
            direct = verify_reciprocity(cx)
            assert rep.holds and direct.holds
            assert rep.context["lhs"] == direct.context["lhs"]
            assert rep.context["rhs"] == direct.context["rhs"]
            numerator = _numerator_from_faces(f_vector(cx))
            assert IntPoly(rep.context["numerator"], cx.d) == numerator
            expanded = odelta_expand([numerator.coeff(k) for k in range(cx.d + 1)])
            assert opoly_eq(rep.context["lhs"], expanded)
            if made.coloring is not None:
                colored = verify_sr_reciprocity_colored(cx, made.coloring)
                flag = verify_flag_reciprocity(cx, made.coloring)
                assert colored.holds and flag.holds
                assert colored.context["lhs"] == flag.context["lhs"]
                assert colored.context["rhs"] == flag.context["rhs"]
                reference = MPoly(flag_h_from_expansion(cx, made.coloring), made.coloring.a)
                assert colored.context["numerator"] == reference.items_sorted()


def test_criterion_9_structural_theorems():
    with criterion(9, "palindromes, odd-dimensional rigidity, flag ones"):
        corpus = [made for _, made in named_suite()]
        eulerian_seen = 0
        odd_semi_seen = 0
        for made in corpus:
            cx = made.complex
            cls = classify(cx)
            h = h_vector(f_vector(cx))
            if cls.eulerian:
                eulerian_seen += 1
                assert verify_semi_eulerian_h(cx).holds
                assert h == tuple(reversed(h))  # palindrome
            if cls.semi_eulerian and (cx.d - 1) % 2 == 1:
                odd_semi_seen += 1
                assert euler_from_f(f_vector(cx)) == 0
                assert cls.eulerian
        assert eulerian_seen >= 5
        assert odd_semi_seen >= 3

        made = cross_polytope_boundary(3)
        h = flag_h(made.complex, made.coloring)
        assert all(v == 1 for v in h.values())
        a = made.coloring.a
        for b in exponents_below(a):
            assert h[b] == h[tuple(x - y for x, y in zip(a, b))]

"""Delta-basis transforms against brute-force expansion oracles."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dskit.enumeration import h_vector
from dskit.errors import DomainError
from dskit.poly import (
    DeltaCoeffs,
    IntPoly,
    MDeltaCoeffs,
    MPoly,
    _binomial_transform,
    delta_expand,
    exponents_below,
    mdelta_expand,
    mmonomial_to_delta,
    monomial_to_delta,
)

from conftest import (
    mcomb,
    odelta_expand,
    omdelta_element,
    ompoly_add,
    ompoly_scale,
    opoly_eq,
)


def test_delta_expand_degree_zero():
    assert delta_expand(DeltaCoeffs([5])) == IntPoly([5])


def test_delta_expand_single_element():
    # (x+1)x at d=2
    assert delta_expand(DeltaCoeffs([0, 1, 0])) == IntPoly([0, 1, 1])


def test_delta_expand_cylinder_h():
    # h-vector of the (1,4,8,4) cylinder: yields the interior count poly + m_empty
    got = delta_expand(DeltaCoeffs([1, 1, 3, -1]))
    assert got == IntPoly([-1, 0, 4, 4])
    assert opoly_eq(got.coeffs, odelta_expand([1, 1, 3, -1]))


def test_monomial_to_delta_x_at_d2():
    assert monomial_to_delta(IntPoly([0, 1], 2)) == DeltaCoeffs([-1, 1, 0])


def test_monomial_to_delta_one_at_d1():
    # 1 = (x+1) - x on the basis (x, x+1)
    assert monomial_to_delta(IntPoly([1], 1)) == DeltaCoeffs([-1, 1])


def test_monomial_to_delta_x2_at_d3():
    got = monomial_to_delta(IntPoly([0, 0, 1], 3))
    # verified by expanding back rather than trusting the formula
    assert opoly_eq(odelta_expand(got.coeffs), [0, 0, 1])
    assert got == DeltaCoeffs([-1, 1, 0, 0])


def test_change_basis_matches_symbolic_expansion():
    # the formula's coefficients re-expand to exactly x^k, for every k <= d
    for d in range(7):
        for k in range(d + 1):
            c = monomial_to_delta(IntPoly.monomial(k, 1, d))
            assert opoly_eq(odelta_expand(c.coeffs), [0] * k + [1])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=12).flatmap(
        lambda d: st.lists(
            st.integers(min_value=-(10**6), max_value=10**6),
            min_size=d + 1,
            max_size=d + 1,
        )
    )
)
def test_univariate_round_trip(coeffs):
    p = IntPoly(coeffs)
    assert delta_expand(monomial_to_delta(p)) == p


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=-100, max_value=100), min_size=4, max_size=4),
    st.lists(st.integers(min_value=-100, max_value=100), min_size=4, max_size=4),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
)
def test_transform_linearity(a, b, s, t):
    pa, pb = IntPoly(a), IntPoly(b)
    combo = IntPoly([s * x + t * y for x, y in zip(a, b)])
    ca = monomial_to_delta(pa).coeffs
    cb = monomial_to_delta(pb).coeffs
    expected = [s * x + t * y for x, y in zip(ca, cb)]
    assert list(monomial_to_delta(combo).coeffs) == expected


def test_mdelta_expand_trivial_cases():
    assert mdelta_expand(MDeltaCoeffs({(0,): 1}, (1,))) == MPoly({(0,): 1, (1,): 1}, (1,))
    got = mdelta_expand(MDeltaCoeffs({(0, 0): 1}, (1, 1)))
    assert got == MPoly({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}, (1, 1))


def test_mdelta_expand_difference():
    # x1x2 - (x1+1)(x2+1)
    got = mdelta_expand(MDeltaCoeffs({(1, 1): 1, (0, 0): -1}, (1, 1)))
    oracle = ompoly_add(
        omdelta_element((1, 1), (1, 1)), ompoly_scale(omdelta_element((0, 0), (1, 1)), -1)
    )
    assert got.coeffs == oracle


def test_mmonomial_to_delta_trivial():
    assert mmonomial_to_delta(MPoly({(1,): 1}, (1,))).coeffs == {(1,): 1}
    assert mmonomial_to_delta(MPoly({(0,): 1}, (1,))).coeffs == {(0,): 1, (1,): -1}


def test_mmonomial_to_delta_x1x2_round_trip():
    p = MPoly({(1, 1): 1}, (2, 1))
    c = mmonomial_to_delta(p)
    assert mdelta_expand(c) == p
    # and expanding the delta coefficients against the oracle elements
    acc: dict = {}
    for b, cb in c.coeffs.items():
        acc = ompoly_add(acc, ompoly_scale(omdelta_element(b, (2, 1)), cb))
    assert acc == p.coeffs


def test_mpoly_key_out_of_bound_rejected():
    with pytest.raises(DomainError):
        MPoly({(2,): 1}, (1,))
    with pytest.raises(DomainError):
        MDeltaCoeffs({(0, 2): 1}, (1, 1))


def _random_bound(rng, total_max=8, m_max=4):
    m = rng.randrange(1, m_max + 1)
    a = []
    remaining = total_max
    for _ in range(m):
        ai = rng.randrange(0, min(3, remaining) + 1)
        remaining -= ai
        a.append(ai)
    return tuple(a)


def test_multivariate_round_trip_seeded():
    rng = random.Random(4242)
    for _ in range(200):
        a = _random_bound(rng)
        coeffs = {
            e: rng.randrange(-(10**6), 10**6)
            for e in exponents_below(a)
            if rng.random() < 0.7
        }
        p = MPoly(coeffs, a)
        assert mdelta_expand(mmonomial_to_delta(p)) == p


def test_multivariate_delta_elements_match_oracle():
    rng = random.Random(7)
    for _ in range(40):
        a = _random_bound(rng, total_max=6, m_max=3)
        for b in exponents_below(a):
            got = mdelta_expand(MDeltaCoeffs({b: 1}, a))
            assert got.coeffs == omdelta_element(b, a)


def test_intpoly_equality_ignores_padding():
    assert IntPoly([1, 2, 0, 0]) == IntPoly([1, 2])
    assert IntPoly([0]) == IntPoly([], 5)


# -- the per-index sums that the lattice transform replaced ------------------


def _sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def ref_flag_h(f, a):
    """h_b = sum_{c<=b} (-1)^(|b|-|c|) C(a-c, b-c) f_c, one double sum per b."""
    return {
        b: sum(
            (-1) ** (sum(b) - sum(c)) * mcomb(_sub(a, c), _sub(b, c)) * f[c]
            for c in exponents_below(b)
        )
        for b in exponents_below(a)
    }


def ref_balanced_ds_scalar(eps, a):
    """sum_{c<=b} C(a-c, a-b) E_c for every b <= a (balanced DS, scalar form)."""
    return {
        b: sum(mcomb(_sub(a, c), _sub(a, b)) * eps[c] for c in exponents_below(b))
        for b in exponents_below(a)
    }


def ref_ds_h_scalar(eps, d):
    """sum_c C(d-c, i) eps_c for 0 <= i <= d (univariate DS, scalar form)."""
    return [sum(comb(d - c, i) * eps[c] for c in range(d + 1)) for i in range(d + 1)]


# a = () and a_i = 0 have one-point axes; a_i >= 2 has binomial weights != 1
LATTICE_BOUNDS = [(), (0,), (3,), (0, 2), (2, 0, 1), (3, 2), (1, 1, 1, 1), (0, 0)]


def _sparse_values(rng, keys):
    return {k: rng.choice((0, 0, rng.randrange(-(10**6), 10**6))) for k in keys}


def test_lattice_transform_matches_the_per_b_sums():
    rng = random.Random(515)
    bounds = LATTICE_BOUNDS + [_random_bound(rng) for _ in range(60)]
    for a in bounds:
        lattice = list(exponents_below(a))
        for v in (dict.fromkeys(lattice, 0), _sparse_values(rng, lattice)):
            h = ref_flag_h(v, a)
            assert mmonomial_to_delta(MPoly(v, a)) == MDeltaCoeffs(h, a)
            listed = [v[b] for b in lattice]
            assert _binomial_transform(listed, a, inverse=True) == [h[b] for b in lattice]
            scalar = ref_balanced_ds_scalar(v, a)
            assert mdelta_expand(MDeltaCoeffs(v, a)) == MPoly(scalar, a)
            assert _binomial_transform(listed, a) == [scalar[b] for b in lattice]


def test_univariate_transforms_match_the_per_index_sums():
    rng = random.Random(516)
    for d in range(9):
        eps = [rng.choice((0, rng.randrange(-1000, 1000))) for _ in range(d + 1)]
        # the forward transform of eps at x^(d-i); delta_expand reads its
        # input by the power of (x+1), so eps goes in reversed
        got = delta_expand(DeltaCoeffs(eps[::-1]))
        assert [got.coeff(d - i) for i in range(d + 1)] == ref_ds_h_scalar(eps, d)
        f = [1] + [rng.randrange(0, 1000) for _ in range(d)]
        h = ref_flag_h({(i,): fi for i, fi in enumerate(f)}, (d,))
        assert h_vector(f) == tuple(h[(k,)] for k in range(d + 1))
        assert monomial_to_delta(IntPoly(f, d)).coeffs == h_vector(f)[::-1]

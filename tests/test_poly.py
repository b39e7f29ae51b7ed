"""The binomial transform against brute-force expansion oracles.

poly._binomial_transform is the library's one change of basis. On the
lattice b <= a its forward kernel expands coefficients on the delta basis
x^b (x+1)^(a-b) into monomial ones, and its signed kernel goes back. At
a = (d,) the lattice index is the power of x, so coefficients c_i of
(x+1)^i x^(d-i), as odelta_expand reads them, go in reversed; there the
forward transform is h_to_f and the inverse one is h_vector.
"""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dskit import enumeration
from dskit.enumeration import h_to_f, h_vector
from dskit.errors import DomainError
from dskit.poly import MPoly, _binomial_rows, _binomial_transform, _lattice_transform, exponents_below

from conftest import (
    mcomb,
    odelta_expand,
    omdelta_element,
    ompoly_add,
    ompoly_scale,
    opoly_eq,
)


def _listed(coeffs, a):
    """A sparse {b: c_b} as the list over exponents_below(a) the transform takes."""
    return [coeffs.get(b, 0) for b in exponents_below(a)]


def _nonzero(values, a):
    """The nonzero entries of a list over exponents_below(a), keyed by b."""
    return {b: v for b, v in zip(exponents_below(a), values) if v}


def test_delta_expand_degree_zero():
    assert _binomial_transform([5], (0,)) == [5]
    assert h_to_f([5]) == (5,)


def test_delta_expand_single_element():
    # (x+1)x at d=2 is the lattice element x^1 (x+1)^1
    assert _binomial_transform([0, 1, 0], (2,)) == [0, 1, 1]


def test_delta_expand_cylinder_h():
    # the h-vector of the (1,4,8,4) cylinder on the basis (x+1)^i x^(d-i)
    # yields the interior count poly + m_empty
    h = [1, 1, 3, -1]
    got = h_to_f(h[::-1])
    assert got == (-1, 0, 4, 4)
    assert opoly_eq(got, odelta_expand(h))
    # and on the basis x^i (x+1)^(d-i) it yields the f-vector
    assert h_to_f(h) == (1, 4, 8, 4)


def test_monomial_to_delta_x_at_d2():
    # x = x (x+1) - x^2
    assert _binomial_transform([0, 1, 0], (2,), inverse=True) == [0, 1, -1]


def test_monomial_to_delta_one_at_d1():
    # 1 = (x+1) - x on the basis (x+1, x)
    assert _binomial_transform([1, 0], (1,), inverse=True) == [1, -1]


def test_monomial_to_delta_x2_at_d3():
    got = _binomial_transform([0, 0, 1, 0], (3,), inverse=True)
    # verified by expanding back rather than trusting the formula
    assert opoly_eq(odelta_expand(got[::-1]), [0, 0, 1])
    assert got == [0, 0, 1, -1]


def test_change_basis_matches_symbolic_expansion():
    # the signed kernel's coefficients re-expand to exactly x^k, for every k <= d
    for d in range(7):
        for k in range(d + 1):
            c = _binomial_transform([0] * k + [1] + [0] * (d - k), (d,), inverse=True)
            assert opoly_eq(odelta_expand(c[::-1]), [0] * k + [1])


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
    d = len(coeffs) - 1
    assert h_to_f(_binomial_transform(coeffs, (d,), inverse=True)) == tuple(coeffs)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=-100, max_value=100), min_size=4, max_size=4),
    st.lists(st.integers(min_value=-100, max_value=100), min_size=4, max_size=4),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
)
def test_transform_linearity(a, b, s, t):
    combo = [s * x + t * y for x, y in zip(a, b)]
    ca = _binomial_transform(a, (3,), inverse=True)
    cb = _binomial_transform(b, (3,), inverse=True)
    expected = [s * x + t * y for x, y in zip(ca, cb)]
    assert _binomial_transform(combo, (3,), inverse=True) == expected


def test_mdelta_expand_trivial_cases():
    # x + 1 at a = (1,), and (x1+1)(x2+1) at a = (1, 1)
    assert _binomial_transform([1, 0], (1,)) == [1, 1]
    assert _binomial_transform([1, 0, 0, 0], (1, 1)) == [1, 1, 1, 1]


def test_mdelta_expand_difference():
    # x1x2 - (x1+1)(x2+1)
    a = (1, 1)
    got = _binomial_transform(_listed({(1, 1): 1, (0, 0): -1}, a), a)
    oracle = ompoly_add(
        omdelta_element((1, 1), a), ompoly_scale(omdelta_element((0, 0), a), -1)
    )
    assert _nonzero(got, a) == oracle


def test_mmonomial_to_delta_trivial():
    assert _binomial_transform([0, 1], (1,), inverse=True) == [0, 1]
    assert _binomial_transform([1, 0], (1,), inverse=True) == [1, -1]


def test_mmonomial_to_delta_x1x2_round_trip():
    a = (2, 1)
    p = _listed({(1, 1): 1}, a)
    c = _binomial_transform(p, a, inverse=True)
    assert _binomial_transform(c, a) == p
    # and expanding the delta coefficients against the oracle elements
    acc: dict = {}
    for b, cb in _nonzero(c, a).items():
        acc = ompoly_add(acc, ompoly_scale(omdelta_element(b, a), cb))
    assert acc == {(1, 1): 1}


def test_mpoly_key_out_of_bound_rejected():
    with pytest.raises(DomainError, match=r"exponent \(2,\) outside bound \(1,\)"):
        MPoly({(2,): 1}, (1,))
    # a negative exponent, or a key with the wrong number of variables
    for key in ((0, 2), (-1, 0), (0,), (0, 0, 0)):
        with pytest.raises(DomainError, match="outside bound"):
            MPoly({key: 1}, (1, 1))
    assert MPoly({(1, 0): 0, (0, 1): 2}, (1, 1)).coeffs == {(0, 1): 2}


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
        p = _listed(coeffs, a)
        assert _binomial_transform(_binomial_transform(p, a, inverse=True), a) == p


def test_multivariate_delta_elements_match_oracle():
    rng = random.Random(7)
    for _ in range(40):
        a = _random_bound(rng, total_max=6, m_max=3)
        for b in exponents_below(a):
            got = _binomial_transform(_listed({b: 1}, a), a)
            assert _nonzero(got, a) == omdelta_element(b, a)


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


# a = () and a_i = 0 have one-point axes; a_i >= 2 has binomial weights != 1.
# An axis is one lattice line (the scalar loop, as at (9,) and (0, 0, 0, 2)),
# or runs or extended slices, whichever are fewer: (1,)*9 takes runs on its
# first axes and extended slices on its last; (1,)*4 + (3,) and (2, 0, 3, 1)
# mix both with weights != 1.
LATTICE_BOUNDS = [
    (), (0,), (3,), (0, 2), (2, 0, 1), (3, 2), (1, 1, 1, 1), (0, 0),
    (1,) * 9, (1,) * 4 + (3,), (2, 0, 3, 1), (0, 0, 0, 2), (9,),
]


def _sparse_values(rng, keys):
    return {k: rng.choice((0, 0, rng.randrange(-(10**6), 10**6))) for k in keys}


def test_lattice_transform_matches_the_per_b_sums():
    rng = random.Random(515)
    bounds = LATTICE_BOUNDS + [_random_bound(rng) for _ in range(60)]
    for a in bounds:
        lattice = list(exponents_below(a))
        for v in (dict.fromkeys(lattice, 0), _sparse_values(rng, lattice)):
            h = ref_flag_h(v, a)
            listed = [v[b] for b in lattice]
            assert _binomial_transform(listed, a, inverse=True) == [h[b] for b in lattice]
            scalar = ref_balanced_ds_scalar(v, a)
            assert _binomial_transform(listed, a) == [scalar[b] for b in lattice]


def test_round_trip_on_a_long_lattice():
    a = (1,) * 11
    rng = random.Random(517)
    v = [rng.randrange(-(10**9), 10**9) for _ in range(2**11)]
    assert _binomial_transform(_binomial_transform(v, a, inverse=True), a) == v


def test_univariate_transforms_match_the_per_index_sums():
    rng = random.Random(516)
    for d in range(9):
        eps = [rng.choice((0, rng.randrange(-1000, 1000))) for _ in range(d + 1)]
        # the forward transform of eps, read at x^(d-i)
        got = h_to_f(eps)
        assert [got[d - i] for i in range(d + 1)] == ref_ds_h_scalar(eps, d)
        f = [1] + [rng.randrange(0, 1000) for _ in range(d)]
        h = ref_flag_h({(i,): fi for i, fi in enumerate(f)}, (d,))
        assert h_vector(f) == tuple(h[(k,)] for k in range(d + 1))
        assert _binomial_transform(f, (d,), inverse=True) == list(h_vector(f))


# -- the lattice loop itself, under both kinds of kernel --------------------


def _gather_sums(v, a):
    """Brute force: at e, the sum of v_b over every b that agrees with e on
    each axis where e is below the top, and is anything where e is at it."""
    lattice = list(exponents_below(a))
    return [
        sum(vb for b, vb in zip(lattice, v) if all(x in (y, top) for x, y, top in zip(e, b, a)))
        for e in lattice
    ]


class _SliceSpy(list):
    """A list that records the step of every slice read from it."""

    def __init__(self, values):
        super().__init__(values)
        self.steps = []

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.steps.append(key.step)
        return super().__getitem__(key)


def _check_lattice_transform(a, v):
    """Both kinds of kernel on v against brute force; the slice steps read."""
    lattice = list(exponents_below(a))
    gathered = _SliceSpy(v)
    # in place: the list handed in is the list returned
    assert _lattice_transform(gathered, a, enumeration._gather_rows) is gathered
    assert gathered == _gather_sums(v, a)
    for inverse, ref in ((True, ref_flag_h), (False, ref_balanced_ds_scalar)):
        got = _lattice_transform(list(v), a, lambda ai: _binomial_rows(ai, inverse))
        want = ref(dict(zip(lattice, v)), a)
        assert got == [want[b] for b in lattice]
    return set(gathered.steps)


_RADICES = st.lists(st.integers(0, 5), min_size=1, max_size=5).filter(
    lambda a: len(list(exponents_below(a))) <= 300
)


@settings(max_examples=150, deadline=None)
@given(_RADICES.map(tuple), st.data())
def test_lattice_transform_against_brute_force(a, data):
    n = len(list(exponents_below(a)))
    v = data.draw(st.lists(st.just(0) | st.integers(-(10**6), 10**6), min_size=n, max_size=n))
    steps = _check_lattice_transform(a, v)
    if n == max(a) + 1:  # at most one axis longer than 1: the scalar loop
        assert steps == set()


def test_lattice_transform_takes_each_slice_layout():
    # an axis reads runs (step 1) while its blocks are no more than its
    # stride, else extended slices of step block: (5, 1, 1, 1, 1) takes
    # runs on its first two axes, (1, 1, 1, 1, 5) on its first three and
    # weights C(5, k) on extended slices of step 6. A single axis is the
    # lattice's only line and reads no slice
    rng = random.Random(518)
    for a, layouts in (((5, 1, 1, 1, 1), {1, 8, 4, 2}), ((1, 1, 1, 1, 5), {1, 12, 6}),
                       ((4,), set()), ((0, 3, 0), set()), ((2, 2), {1, 3})):
        n = len(list(exponents_below(a)))
        v = [rng.choice((0, rng.randrange(-(10**6), 10**6))) for _ in range(n)]
        assert _check_lattice_transform(a, v) == layouts

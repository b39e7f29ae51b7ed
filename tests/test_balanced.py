"""Colorings, flag vectors and the multivariate Dehn-Sommerville checks."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dskit import balanced, cli, enumeration, relations
from dskit.balanced import (
    Coloring,
    b_of,
    flag_f,
    flag_h,
    validate_balanced,
    verify_balanced_ds,
    verify_balanced_semi_eulerian,
    verify_flag_fh_tilde,
    verify_flag_reciprocity,
)
from dskit.complexes import Complex, write_colors, write_cplx
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
from dskit.poly import MPoly, exponents_below
from dskit.relations import (
    verify_ds_h,
    verify_fh_tilde,
    verify_reciprocity,
    verify_semi_eulerian_h,
)
from dskit.stanley_reisner import (
    hilbert_series_colored,
    verify_sr_reciprocity,
    verify_sr_reciprocity_colored,
)

from conftest import (
    flag_f_mpoly,
    mcomb,
    multiplicity_mpoly,
    ochi_reduced,
    ofaces_of,
    joinable_pairs,
    ojoin,
    ovalidated_type,
    small_facet_lists,
    specialized,
)


def flag_h_from_expansion(cx, coloring):
    """Flag h-numbers as coefficients of sum_F x^b(F) (1-x)^(a-b(F)).

    Reference route for the closed-form flag_h and for the colored Hilbert
    numerator: each face's term is expanded on its own, with b(F) from b_of.
    """
    a = coloring.a
    out = {b: 0 for b in exponents_below(a)}
    for face in cx.faces():
        bf = b_of(face, coloring.kappa, coloring.m)
        rest = tuple(x - y for x, y in zip(a, bf))
        for extra in exponents_below(rest):
            e = tuple(x + y for x, y in zip(bf, extra))
            out[e] += (-1) ** sum(extra) * mcomb(rest, extra)
    return out


def scalar_ds_brute_force(cx, coloring, table):
    """Per-face right-hand side of the scalar balanced DS relation, for each b:
    (-1)^(|a|-|b|) sum over faces with b(F) <= b of C(a-b(F), a-b) eps_F."""
    a = coloring.a
    faces = [
        (b_of(face, coloring.kappa, coloring.m),
         (-1) ** (cx.d - 1 - len(face)) * (table.m(face) - 1))
        for face in cx.faces()
    ]
    out = {}
    for b in exponents_below(a):
        ab = tuple(x - y for x, y in zip(a, b))
        acc = 0
        for bf, eps in faces:
            if all(x <= y for x, y in zip(bf, b)):
                acc += mcomb(tuple(x - y for x, y in zip(a, bf)), ab) * eps
        out[b] = (-1) ** sum(ab) * acc
    return out


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


@pytest.mark.parametrize("a", [(1.0, 1.0), ("1", "1"), 2])
def test_hand_built_coloring_checks_its_type(a):
    # a Coloring built by hand checks its type as validate_balanced does:
    # an entry that is no integer, or a type that is not iterable, is a
    # ValidationError, not a TypeError from deep in the flag walk
    cx = Complex.from_facets([[1, 2], [2, 3]])
    with pytest.raises(ValidationError, match="type"):
        flag_f(cx, Coloring({1: 1, 2: 2, 3: 1}, a))
    with pytest.raises(ValidationError, match="type"):
        validate_balanced(cx, {1: 1, 2: 2, 3: 1}, a)


def test_hand_built_coloring_keeps_its_type_as_a_tuple():
    cx = Complex.from_facets([[1, 2], [2, 3]])
    coloring = Coloring({1: 1, 2: 2, 3: 1}, [1, 1])
    assert coloring.a == (1, 1)
    assert coloring == validate_balanced(cx, {1: 1, 2: 2, 3: 1})
    assert flag_f(cx, coloring) == {(0, 0): 1, (1, 0): 2, (0, 1): 1, (1, 1): 2}


def test_validate_rejects_impure_type():
    # a non-pure complex is balanced when its facets' largest color counts
    # sum to d: the edge {1, 2} and the point {3} under two colors are of
    # type (1, 1), as the flag walk has them. A type whose largest counts
    # sum past d is rejected, as is a type given that sums to less
    cx = Complex.from_facets([[1, 2], [3]])
    assert validate_balanced(cx, {1: 1, 2: 2, 3: 1}).a == (1, 1)
    assert validate_balanced(cx, {1: 1, 2: 2, 3: 2}, a=(1, 1)).a == (1, 1)
    with pytest.raises(ValidationError, match=r"^type \(2, 1\) sums to 3, not to d=2$"):
        validate_balanced(cx, {1: 1, 2: 1, 3: 2})
    with pytest.raises(ValidationError, match=r"^facet \(1, 2\) has color counts \(1, 1\), above type \(1, 0\)$"):
        validate_balanced(cx, {1: 1, 2: 2, 3: 1}, a=(1, 0))


def _outcome(check, cx, kappa, a):
    """The type check returns, or the type and message of what it raises."""
    try:
        return check(cx, kappa, a)
    except Exception as e:
        return type(e), str(e)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_validate_balanced_matches_the_per_facet_route(balanced_pairs, data):
    _, cx, coloring = data.draw(st.sampled_from(balanced_pairs))
    m = coloring.m
    perm = data.draw(st.permutations(range(1, m + 1)))
    kappa = {v: perm[c - 1] for v, c in coloring.kappa.items()}
    # a few vertices recolored, anywhere from below 1 to above m
    for v in data.draw(st.lists(st.sampled_from(cx.vertices), max_size=3)):
        kappa[v] = data.draw(st.integers(-1, m + 2))
    if data.draw(st.integers(0, 9)) == 0:
        del kappa[data.draw(st.sampled_from(cx.vertices))]
    permuted = tuple(coloring.a[perm.index(i + 1)] for i in range(m))
    a = data.draw(
        st.one_of(
            st.none(),
            st.just(permuted),
            st.lists(st.integers(0, 3), max_size=m + 1).map(tuple),
        )
    )
    want = _outcome(ovalidated_type, cx, kappa, a)
    got = _outcome(validate_balanced, cx, kappa, a)
    if isinstance(got, Coloring):
        assert got.a == want and got.kappa == kappa
    else:
        assert got == want


def _flag_f_of(cx, kappa, a):
    return flag_f(cx, Coloring(kappa, a))


@settings(max_examples=120, deadline=None)
@given(small_facet_lists().filter(bool), st.data())
def test_validate_and_the_flag_walk_accept_the_same_colorings(facets, data):
    # balance is decided in one place: on any complex, non-pure included,
    # validate_balanced and the flag face walk accept and reject the same
    # coloring and type with the same message, and the flag identities hold
    # on every coloring they accept
    cx = Complex.from_facets(facets)
    colors = data.draw(st.integers(2, 4))
    kappa = {v: data.draw(st.integers(1, colors)) for v in cx.vertices}
    if data.draw(st.integers(0, 9)) == 0:
        kappa[data.draw(st.sampled_from(cx.vertices))] = data.draw(st.sampled_from([0, colors + 1]))
    m = max(1, *kappa.values())
    largest = tuple(max(sum(kappa[v] == c for v in f) for f in cx.facets) for c in range(1, m + 1))
    inferred = _outcome(validate_balanced, cx, kappa, None)
    oracle = _outcome(ovalidated_type, cx, kappa, None)
    if isinstance(inferred, Coloring):
        assert inferred.a == oracle == largest
    else:
        assert inferred == oracle
    a = data.draw(st.just(largest) | st.lists(st.integers(0, 3), max_size=colors + 1).map(tuple))
    got = _outcome(validate_balanced, cx, kappa, a)
    walked = _outcome(_flag_f_of, cx, kappa, a)
    if isinstance(got, Coloring):
        assert got.a == a == ovalidated_type(cx, kappa, a)
        assert isinstance(walked, dict)
        for verify in (verify_flag_fh_tilde, verify_flag_reciprocity, verify_balanced_ds):
            assert verify(cx, got).holds
    else:
        assert walked == got == _outcome(ovalidated_type, cx, kappa, a)


def test_validate_names_an_uncolored_vertex():
    cx = Complex.from_facets([[1, 2], [2, 3]])
    with pytest.raises(ValidationError, match="^vertex 2 has no color$"):
        validate_balanced(cx, {1: 1, 3: 2}, a=(1, 1))


def test_validate_rejects_a_color_above_m_that_the_masks_miss():
    # vertex 5's color 3 is in no mask of a = (1, 1), and both facets count
    # (1, 1) in colors 1 and 2; the facet (3, 4, 5) is larger only
    cx = Complex.from_facets([[1, 2], [3, 4, 5]])
    kappa = {1: 1, 2: 2, 3: 1, 4: 2, 5: 3}
    with pytest.raises(ValidationError, match=r"^vertex 5 has color 3 outside 1\.\.2$"):
        validate_balanced(cx, kappa, a=(1, 1))


def test_validate_infers_the_type_from_the_largest_counts():
    # the inferred type is each color's largest count over the facets, and
    # a rejection names the first facet as a tuple: (1, 4) comes first as a
    # tuple, (2, 3) first as a mask
    cx = Complex.from_facets([[1, 4], [2, 3]])
    kappa = {1: 1, 2: 1, 3: 2, 4: 1}
    with pytest.raises(ValidationError, match=r"^type \(2, 1\) sums to 3, not to d=2$"):
        validate_balanced(cx, kappa)
    message = r"^facet \(1, 4\) has color counts \(2, 0\), above type \(1, 1\)$"
    for check in (validate_balanced, _flag_f_of):
        with pytest.raises(ValidationError, match=message):
            check(cx, {v: 1 for v in cx.vertices}, (1, 1))
    assert validate_balanced(cx, {1: 1, 2: 1, 3: 2, 4: 2}).a == (1, 1)


def test_colors_and_types_that_are_no_integers_are_validation_errors():
    # colors and type entries go through operator.index: (1.5, 1.2) is not
    # truncated to the type (1, 1), and 1.0 is no color, also on a
    # hand-built Coloring that reaches the face walk
    cx = Complex.from_facets([[1, 2], [2, 3]])
    kappa = {1: 1, 2: 2, 3: 1}
    for a, bad in (((1.5, 1.2), "1.5"), (("x",), "'x'"), ((1, None), "None")):
        with pytest.raises(ValidationError, match=f"^type entry must be an integer, got {bad}$"):
            validate_balanced(cx, kappa, a=a)
    message = r"^color of vertex 2 must be an integer, got 2\.0$"
    for a in (None, (1, 1)):
        with pytest.raises(ValidationError, match=message):
            validate_balanced(cx, {**kappa, 2: 2.0}, a=a)
    for check in (flag_f, flag_h, verify_balanced_ds):
        with pytest.raises(ValidationError, match=message):
            check(cx, Coloring({**kappa, 2: 2.0}, (1, 1)))
    with pytest.raises(ValidationError, match=r"^color of vertex 1 must be an integer, got '1'$"):
        b_of((1,), {1: "1"}, 1)
    assert validate_balanced(cx, kappa, a=[1, 1]).a == (1, 1)


def test_validate_names_a_vertex_when_every_color_is_below_1():
    # an inferred type has at least one color; the complex has vertices
    cx = Complex.from_facets([[1, 2], [2, 3]])
    for kappa in ({1: 0, 2: 0, 3: 0}, {1: -1, 2: -2, 3: 0}):
        message = f"vertex 1 has color {kappa[1]} outside 1..1"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            validate_balanced(cx, kappa)
        assert _outcome(ovalidated_type, cx, kappa, None) == (ValidationError, message)
    empty = Complex.from_facets([])
    with pytest.raises(ValidationError, match="^cannot infer a type vector without vertices$"):
        validate_balanced(empty, {})


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


def _per_face_counts(cx, coloring, table):
    f, m = {}, {}
    for face in cx.faces():
        bf = b_of(face, coloring.kappa, coloring.m)
        f[bf] = f.get(bf, 0) + 1
        m[bf] = m.get(bf, 0) + table.m(face)
    return f, m


def _wide_and_monochrome_pairs():
    # vertex ids near 10^4, and types with some a_i >= 2
    cx = Complex.from_facets([[9001, 9999, 10007], [9001, 10007, 12000], [9001, 9999, 12001]])
    wide = validate_balanced(cx, {9001: 1, 9999: 2, 10007: 3, 12000: 2, 12001: 3})
    out = [(cx, wide)]
    for made in (cylinder(), simplex_boundary(4), glued_triangles(3)):
        mono = made.complex
        out.append((mono, validate_balanced(mono, {v: 1 for v in mono.vertices})))
    susp = Complex.from_facets(
        [[1, 2, 4], [1, 3, 4], [2, 3, 4], [1, 2, 5], [1, 3, 5], [2, 3, 5]]
    )
    out.append((susp, validate_balanced(susp, {1: 1, 2: 1, 3: 1, 4: 2, 5: 2})))
    return out


def test_flag_counts_equal_per_face_b_of(balanced_pairs):
    pairs = [(cx, coloring) for _, cx, coloring in balanced_pairs]
    pairs += _wide_and_monochrome_pairs()
    assert any(max(coloring.a) >= 2 for _, coloring in pairs)
    for cx, coloring in pairs:
        table = multiplicities(cx)
        f, m = _per_face_counts(cx, coloring, table)
        assert flag_f(cx, coloring) == {b: f.get(b, 0) for b in exponents_below(coloring.a)}
        assert multiplicity_mpoly(cx, coloring) == MPoly(m, coloring.a)
        assert flag_h(cx, coloring) == flag_h_from_expansion(cx, coloring)


def test_flag_counts_validate_each_vertex():
    # a hand-built Coloring skips validate_balanced; the face pass still
    # rejects an uncolored vertex and an out-of-range color, by name, also
    # once a valid coloring has filled the kept counts
    made = cross_polytope_boundary(3)
    cx = made.complex
    for _ in range(2):
        kappa = dict(made.coloring.kappa)
        del kappa[4]
        with pytest.raises(ValidationError, match="^vertex 4 has no color$"):
            flag_f(cx, Coloring(kappa=kappa, a=(1, 1, 1)))
        kappa[4] = 7
        with pytest.raises(ValidationError, match=r"^vertex 4 has color 7 outside 1\.\.3$"):
            verify_balanced_ds(cx, Coloring(kappa=kappa, a=(1, 1, 1)))
        assert verify_balanced_ds(cx, made.coloring).holds


def test_flag_counts_reject_a_type_below_a_facet():
    # a hand-built Coloring whose type is too small for some facet: the
    # walk must not let one color's count spill into another's. A type
    # that fits every facet but sums past d is rejected too: flag
    # reciprocity holds only when |a| = d mod 2, and (3,) on this path
    # made it fail
    path = Complex.from_facets([[1, 2], [2, 3]])
    for kappa, a in (({1: 2, 2: 2, 3: 1}, (2, 1)), ({1: 1, 2: 1, 3: 1}, (1,))):
        with pytest.raises(ValidationError, match=r"^facet \(1, 2\) has color counts \(.*above type"):
            flag_f(path, Coloring(kappa=kappa, a=a))
        with pytest.raises(ValidationError, match="above type"):
            verify_balanced_ds(path, Coloring(kappa=kappa, a=a))
    for kappa, a in (({1: 1, 2: 1, 3: 1}, (3,)), ({1: 1, 2: 2, 3: 3}, (1, 1, 1))):
        with pytest.raises(ValidationError, match=rf"^type \({a[0]},.*\) sums to 3, not to d=2$"):
            flag_f(path, Coloring(kappa=kappa, a=a))
        for verify in (verify_flag_reciprocity, verify_balanced_ds):
            with pytest.raises(ValidationError, match="sums to 3"):
                verify(path, Coloring(kappa=kappa, a=a))
    # a non-pure complex under a type with |a| = d is accepted, and holds
    edge_and_point = Complex.from_facets([[1, 2], [3]])
    coloring = Coloring(kappa={1: 1, 2: 2, 3: 1}, a=(1, 1))
    for verify in (verify_flag_fh_tilde, verify_flag_reciprocity, verify_balanced_ds):
        assert verify(edge_and_point, coloring).holds


def _refuse_sweeps(monkeypatch):
    def refuse(cx):
        raise AssertionError("multiplicity sweep")

    monkeypatch.setattr(enumeration, "_superset_sweep", refuse)
    monkeypatch.setattr(relations, "multiplicities", refuse)
    monkeypatch.setattr(balanced, "multiplicities", refuse)


def test_fh_tilde_verifiers_build_no_multiplicity_table(monkeypatch):
    made = barycentric_subdivision(glued_triangles(3).complex)
    coloring = made.coloring
    m_empty = multiplicities(made.complex).m_empty
    f, h = flag_f(made.complex, coloring), flag_h(made.complex, coloring)
    cx = Complex.from_facets(made.complex.facets)  # equal, with nothing kept
    _refuse_sweeps(monkeypatch)
    for rep in (relations.verify_fh_tilde(cx), verify_flag_fh_tilde(cx, coloring)):
        assert rep.holds
        assert rep.context["m_empty"] == m_empty
    assert flag_f(cx, coloring) == f and flag_h(cx, coloring) == h
    assert hilbert_series_colored(cx, coloring).numerator == MPoly(h, coloring.a)


def _count_walks(monkeypatch) -> list:
    walked = []
    inner = balanced._face_walk

    def counting(cx, *args):
        walked.append(cx)
        return inner(cx, *args)

    monkeypatch.setattr(balanced, "_face_walk", counting)
    return walked


@pytest.mark.parametrize(
    "verifier",
    [verify_flag_fh_tilde, verify_flag_reciprocity, verify_balanced_ds,
     verify_balanced_semi_eulerian, verify_sr_reciprocity_colored],
)
def test_each_flag_verifier_walks_the_faces_once(monkeypatch, verifier):
    walked = _count_walks(monkeypatch)
    made = cross_polytope_boundary(4)
    assert verifier(made.complex, made.coloring).holds
    assert walked == [made.complex]
    assert verifier(made.complex, made.coloring).holds
    assert walked == [made.complex]


@pytest.mark.parametrize(
    "verifier", [verify_flag_reciprocity, verify_balanced_ds, verify_sr_reciprocity_colored]
)
def test_flag_sum_verifiers_sweep_for_themselves(verifier):
    # a verifier that reads the m_F sums sweeps them itself, so a complex
    # never swept gives the report it gives after multiplicities(cx)
    for build in (lambda: cross_polytope_boundary(4), lambda: double_banana(),
                  lambda: barycentric_subdivision(cylinder().complex)):
        made = build()
        fresh = verifier(made.complex, made.coloring).to_json_dict()
        made = build()
        multiplicities(made.complex)
        assert verifier(made.complex, made.coloring).to_json_dict() == fresh


def _flag_objects(cx, coloring):
    """Every flag object, then the flag_f + flag_h pair of the CLI flag command."""
    return [
        flag_f(cx, coloring),
        flag_h(cx, coloring),
        verify_flag_fh_tilde(cx, coloring).holds,
        verify_flag_reciprocity(cx, coloring).holds,
        verify_balanced_ds(cx, coloring).holds,
        verify_balanced_semi_eulerian(cx, coloring).holds,
        verify_sr_reciprocity_colored(cx, coloring).holds,
        hilbert_series_colored(cx, coloring),
        flag_f(cx, coloring),
        flag_h(cx, coloring),
    ]


_CP4_AND_SD_D4 = pytest.mark.parametrize(
    "build",
    [lambda: cross_polytope_boundary(4),
     lambda: barycentric_subdivision(simplex_boundary(4).complex)],
    ids=["cp4", "sd-simplex-boundary-4"],
)


@_CP4_AND_SD_D4
def test_one_walk_per_complex_and_coloring_after_the_sweep(monkeypatch, build):
    walked = _count_walks(monkeypatch)
    made = build()
    cx, coloring = made.complex, made.coloring
    multiplicities(cx)
    first = _flag_objects(cx, coloring)
    assert walked == [cx]
    assert _flag_objects(cx, coloring) == first
    assert walked == [cx]
    fresh = Complex.from_facets(cx.facets)
    assert _flag_objects(fresh, coloring) == first  # same results without the memo


@_CP4_AND_SD_D4
def test_f_only_flag_objects_start_no_sweep(monkeypatch, tmp_path, capsys, build):
    made = build()
    cx, coloring = made.complex, made.coloring
    expected = [flag_f(cx, coloring), flag_h(cx, coloring), hilbert_series_colored(cx, coloring)]
    cplx, colors = tmp_path / "cx.cplx", tmp_path / "cx.colors"
    cplx.write_text(write_cplx(cx))
    colors.write_text(write_colors(dict(coloring.kappa)))
    cx = Complex.from_facets(cx.facets)
    walked = _count_walks(monkeypatch)
    _refuse_sweeps(monkeypatch)
    assert verify_flag_fh_tilde(cx, coloring).holds
    f, h = flag_f(cx, coloring), flag_h(cx, coloring)
    assert [f, h, hilbert_series_colored(cx, coloring)] == expected
    assert (flag_f(cx, coloring), flag_h(cx, coloring)) == (f, h)
    assert walked == [cx]
    for argv in (["flag", str(cplx), "--colors", str(colors), "--json"],
                 ["hilbert", str(cplx), "--colors", str(colors), "--json"]):
        assert cli.main(argv) == 0
    assert len(walked) == 3  # one walk for each parsed complex
    assert capsys.readouterr().err == ""


def test_returned_flag_dicts_are_copies():
    made = cross_polytope_boundary(4)
    cx, coloring = made.complex, made.coloring
    f, h = flag_f(cx, coloring), flag_h(cx, coloring)
    expected = (dict(f), dict(h))
    for got in (f, h):
        got[(0, 0, 0, 0)] = 99
        got.clear()
    assert (flag_f(cx, coloring), flag_h(cx, coloring)) == expected
    assert verify_flag_fh_tilde(cx, coloring).holds


def test_two_colorings_of_one_complex_keep_their_own_counts(monkeypatch):
    made = cross_polytope_boundary(4)
    cx, antipodal = made.complex, made.coloring
    mono = validate_balanced(cx, {v: 1 for v in cx.vertices})
    assert mono.a == (4,)
    walked = _count_walks(monkeypatch)
    table = multiplicities(cx)
    for _ in range(2):
        for coloring in (antipodal, mono, antipodal):
            f, m = _per_face_counts(cx, coloring, table)
            assert flag_f(cx, coloring) == f
            assert multiplicity_mpoly(cx, coloring) == MPoly(m, coloring.a)
            assert flag_h(cx, coloring) == flag_h_from_expansion(cx, coloring)
            assert verify_balanced_ds(cx, coloring).holds
    assert walked == [cx, cx]
    assert flag_h(cx, antipodal) == {b: 1 for b in exponents_below((1, 1, 1, 1))}
    assert flag_h(cx, mono) == {(k,): hk for k, hk in enumerate((1, 4, 6, 4, 1))}
    # two colorings of one type: the key holds the colors, not just a
    path = Complex.from_facets([[1, 2], [2, 3]])
    one, two = validate_balanced(path, {1: 1, 2: 2, 3: 1}), validate_balanced(path, {1: 2, 2: 1, 3: 2})
    assert one.a == two.a == (1, 1)
    assert flag_f(path, one)[(1, 0)] == flag_f(path, two)[(0, 1)] == 2
    assert flag_f(path, one)[(0, 1)] == flag_f(path, two)[(1, 0)] == 1


def test_a_link_walks_its_own_vertices(monkeypatch):
    # a link keeps its parent's labels over fewer vertex bits
    made = cross_polytope_boundary(4)
    cx, coloring = made.complex, made.coloring
    link = cx.link([1])
    link_coloring = validate_balanced(link, coloring.kappa)
    walked = _count_walks(monkeypatch)
    assert flag_f(cx, coloring) != flag_f(link, link_coloring)
    assert flag_f(link, link_coloring) == _per_face_counts(link, link_coloring, multiplicities(link))[0]
    assert verify_balanced_ds(link, link_coloring).holds
    assert walked == [cx, link, link]  # f alone, then with the m_F sums


def test_a_coloring_naming_extra_ids_shares_the_kept_counts(monkeypatch):
    made = cross_polytope_boundary(4)
    cx, coloring = made.complex, made.coloring
    wider = Coloring(kappa={**coloring.kappa, 100: 2, 101: 3}, a=coloring.a)
    walked = _count_walks(monkeypatch)
    assert flag_f(cx, coloring) == flag_f(cx, wider)
    assert flag_h(cx, wider) == flag_h(cx, coloring)
    assert walked == [cx]


def test_equal_complexes_walk_for_themselves(monkeypatch):
    made = cross_polytope_boundary(4)
    cx, coloring = made.complex, made.coloring
    again = Complex.from_facets(cx.facets)
    assert again == cx and again is not cx
    walked = _count_walks(monkeypatch)
    assert flag_f(cx, coloring) == flag_f(again, coloring)
    assert walked == [cx, again]


class _Droppable(Complex):
    """A complex that takes weak references, to see when it is freed."""


def test_kept_flag_counts_let_a_dropped_complex_be_freed():
    made = cross_polytope_boundary(4)
    cx = _Droppable.from_facets(made.complex.facets)
    multiplicities(cx)
    _flag_objects(cx, made.coloring)
    assert any(key[0] == "flag counts" for key in cx._derived if isinstance(key, tuple))
    gone = weakref.ref(cx)
    # with the collector off, only a complex in no reference cycle is freed
    gc.disable()
    try:
        del cx
        assert gone() is None
    finally:
        gc.enable()


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
    mp = multiplicity_mpoly(made.complex, made.coloring)
    assert specialized(mp) == (1, 6, 12, 8)
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
    h = flag_h(cx, coloring)
    a = coloring.a
    rhs = scalar_ds_brute_force(cx, coloring, multiplicities(cx))
    for b in exponents_below(a):
        ab = tuple(x - y for x, y in zip(a, b))
        assert h[b] - h[ab] == rhs[b]


def test_balanced_ds_scalar_sum_equals_per_face_brute_force(balanced_pairs):
    # the verifier sums eps over b-groups; the brute force walks every face.
    # On spheres every eps_F is 0 and both sides vanish, so those are skipped.
    # The 0/1 types of the corpus make every weight C(a-b(F), a-b) 0 or 1;
    # the monochromatic pairs with a boundary give weights above 1.
    pairs = [(cx, coloring) for _, cx, coloring in balanced_pairs]
    pairs += _wide_and_monochrome_pairs()
    checked = 0
    for cx, coloring in pairs:
        table = multiplicities(cx)
        eps = [(-1) ** (cx.d - 1 - c) * (m - 1) for c, row in enumerate(table.rows) for m in row]
        if not any(eps):
            continue
        checked += 1
        rep = verify_balanced_ds(cx, coloring)
        h = flag_h_from_expansion(cx, coloring)
        a = coloring.a
        rhs = scalar_ds_brute_force(cx, coloring, table)
        for b in exponents_below(a):
            diff = h[b] - h[tuple(x - y for x, y in zip(a, b))]
            label = "b=(" + ",".join(str(x) for x in b) + ")"
            assert rep.residual(label) == diff - rhs[b] == 0
    assert checked >= 40


def test_balanced_ds_everywhere(balanced_pairs):
    for _, cx, coloring in balanced_pairs:
        assert verify_balanced_ds(cx, coloring).holds


def _dense(terms, d, sign=1):
    """The x^k coefficients, k <= d, of a flag report's nonzero (b, v) pairs at a = (d,)."""
    coeffs = dict(terms)
    return tuple(sign * coeffs.get((k,), 0) for k in range(d + 1))


def _assert_plain_is_flag_at_one_color(plain, flag, d, sign=1):
    """Sides and x^k residuals of a plain report equal the flag ones at b = (k,)."""
    assert tuple(plain.context["lhs"]) == _dense(flag.context["lhs"], d, sign)
    assert tuple(plain.context["rhs"]) == _dense(flag.context["rhs"], d, sign)
    for k in range(d + 1):
        assert plain.residual(f"x^{k}") == sign * flag.residual(f"x^({k})")


def test_balanced_ds_single_color_reduces_to_univariate(suite, randoms):
    # one color, a = (d,) and b(F) = |F|: every plain identity is its flag
    # identity, side by side and residual by residual, on every complex with
    # a vertex, pure or not
    complexes = [made.complex for _, made in suite] + list(randoms)
    complexes = [cx for cx in complexes if cx.d >= 1]
    assert len(complexes) >= 140 and sum(not cx.is_pure() for cx in complexes) >= 40
    semi_eulerian = 0
    for cx in complexes:
        d = cx.d
        coloring = validate_balanced(cx, {v: 1 for v in cx.vertices})
        assert coloring.a == (d,)
        h = flag_h(cx, coloring)
        assert tuple(h[(k,)] for k in range(d + 1)) == h_vector(f_vector(cx))
        sr, sr_colored = verify_sr_reciprocity(cx), verify_sr_reciprocity_colored(cx, coloring)
        for plain, flag in (
            (verify_fh_tilde(cx), verify_flag_fh_tilde(cx, coloring)),
            (verify_reciprocity(cx), verify_flag_reciprocity(cx, coloring)),
            (sr, sr_colored),
        ):
            _assert_plain_is_flag_at_one_color(plain, flag, d)
        assert _dense(sr_colored.context["numerator"], d) == sr.context["numerator"]
        # ds-h is balanced-ds negated, its scalar i at b = (d - i)
        plain, flag = verify_ds_h(cx), verify_balanced_ds(cx, coloring)
        _assert_plain_is_flag_at_one_color(plain, flag, d, sign=-1)
        for i in range(d + 1):
            assert plain.residual(f"i={i}") == flag.residual(f"b=({d - i})")
        assert plain.holds and flag.holds
        if multiplicities(cx).semi_eulerian_witness() is None:
            semi_eulerian += 1
            plain = verify_semi_eulerian_h(cx)
            flag = verify_balanced_semi_eulerian(cx, coloring)
            assert [plain.residual(f"i={i}") for i in range(d + 1)] == list(flag.residuals)
            assert flag.labels == tuple(f"b=({i})" for i in range(d + 1))
    assert semi_eulerian >= 10


def test_balanced_semi_eulerian_on_the_corpus(balanced_pairs):
    # h_{a-b} - h_b = (-1)^|b| C(a,b) gap on every semi-Eulerian pair, the
    # gap chi_reduced - (-1)^(d-1) from the faces; it is nonzero on the
    # subdivided torus and RP^2 alone, where no flag h is a palindrome
    gaps = {}
    for name, cx, coloring in balanced_pairs:
        if multiplicities(cx).semi_eulerian_witness() is not None:
            continue
        rep = verify_balanced_semi_eulerian(cx, coloring)
        gap = ochi_reduced(ofaces_of(cx)) - (-1) ** (cx.d - 1)
        assert rep.holds and rep.context["palindrome"] == (gap == 0)
        a, h = coloring.a, flag_h(cx, coloring)
        for b in exponents_below(a):
            rest = tuple(x - y for x, y in zip(a, b))
            assert h[rest] - h[b] == (-1) ** sum(b) * mcomb(a, b) * gap
        if gap:
            gaps[name] = gap
    assert gaps == {"sd-torus7": -2, "sd-rp2": -1}


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_flag_numbers_of_a_join_multiply(balanced_pairs, data):
    # with L's ids and colors shifted past K's, K * L is balanced of type
    # a(K) followed by a(L), and f_(b,c) = f_b(K) f_c(L), h_(b,c) = h_b(K) h_c(L)
    pairs = [(cx, coloring) for _, cx, coloring in balanced_pairs]
    (k, kc), (l, lc) = data.draw(joinable_pairs(pairs))
    facets, kappa = ojoin(k.facets, kc.kappa, l.facets, lc.kappa)
    join = Complex.from_facets(facets)
    coloring = validate_balanced(join, kappa)
    assert coloring.a == kc.a + lc.a
    assert join.num_faces == k.num_faces * l.num_faces
    f, h = flag_f(join, coloring), flag_h(join, coloring)
    fk, hk, fl, hl = flag_f(k, kc), flag_h(k, kc), flag_f(l, lc), flag_h(l, lc)
    for b in exponents_below(kc.a):
        for c in exponents_below(lc.a):
            assert f[b + c] == fk[b] * fl[c] and h[b + c] == hk[b] * hl[c]


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
        assert specialized(flag_f_mpoly(cx, coloring)) == f
        hm = flag_h(cx, coloring)
        collapsed = [0] * (cx.d + 1)
        for b, v in hm.items():
            collapsed[sum(b)] += v
        assert tuple(collapsed) == h
        # Eq-level: multivariate reciprocity sides specialize to the univariate ones
        rep = verify_flag_reciprocity(cx, coloring)
        uni = verify_reciprocity(cx)
        mp = multiplicity_mpoly(cx, coloring)
        assert specialized(mp) == uni.context["rhs"]


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

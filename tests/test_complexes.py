"""Complex construction, closure, links and the .cplx format."""

import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dskit import complexes
from dskit.complexes import (
    Complex,
    _closure,
    _stars,
    parse_colors,
    parse_cplx,
    read_cplx,
    write_colors,
    write_cplx,
)
from dskit.errors import DomainError, ParseError, ResourceLimitError, ValidationError
from dskit.generators import (
    barycentric_subdivision,
    cross_polytope_boundary,
    cylinder,
    glued_triangles,
    random_complex,
    simplex_boundary,
)

from conftest import (
    faces_by_dim,
    has_face,
    oclosure,
    ofaces_of,
    olink,
    omaximal,
    ochi_reduced,
)


def test_from_facets_path():
    cx = Complex.from_facets([[1, 2], [2, 3]])
    assert ofaces_of(cx) == {
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({1, 2}),
        frozenset({2, 3}),
    }
    assert cx.d == 2
    assert cx.n == 3


def test_from_facets_single_vertex():
    cx = Complex.from_facets([[1]])
    assert ofaces_of(cx) == {frozenset(), frozenset({1})}
    assert cx.d == 1


def test_from_facets_empty_complex():
    cx = Complex.from_facets([])
    assert ofaces_of(cx) == {frozenset()}
    assert cx.d == 0
    assert cx.num_faces == 1


def test_from_facets_absorbs_contained():
    cx = Complex.from_facets([[1, 2, 3], [1, 2], [3]])
    assert cx.facets == ((1, 2, 3),)


def test_from_facets_idempotent():
    cx = Complex.from_facets([[1, 2, 4], [2, 3], [5]])
    again = Complex.from_facets(cx.facets)
    assert again == cx
    assert again.facets == cx.facets


def test_from_facets_rejects_bad_vertex():
    with pytest.raises(ValidationError):
        Complex.from_facets([[0, 1]])
    with pytest.raises(ValidationError):
        Complex.from_facets([[-2]])


def test_ids_that_are_no_integers_are_validation_errors():
    # ids go through operator.index: 1.5 and 1.9 are not truncated to
    # vertex 1, and a string is not parsed
    for bad in (1.5, 1.0, "3", None):
        with pytest.raises(ValidationError, match=f"^vertex id must be an integer, got {re.escape(repr(bad))}$"):
            Complex.from_facets([[bad, 2]])
    cx = Complex.from_facets([[1, 2]])
    with pytest.raises(ValidationError, match=r"^vertex id must be an integer, got 1\.9$"):
        cx.face_mask((1.9,))
    with pytest.raises(ValidationError, match="got 1.0"):
        cx.link((1.0,))
    assert not has_face(cx, (1.0,)) and has_face(cx, (1,))


def test_from_facets_face_cap():
    with pytest.raises(ResourceLimitError):
        Complex.from_facets([range(1, 30)], max_faces=100)
    # a facet with more subsets than the cap is rejected before its
    # subsets are listed
    with pytest.raises(ResourceLimitError):
        Complex.from_facets([range(1, 201)], max_faces=1000)
    # the cap is exact: 2^7 faces pass a cap of 128 and fail one of 127
    assert Complex.from_facets([range(1, 8)], max_faces=128).num_faces == 128
    with pytest.raises(ResourceLimitError):
        Complex.from_facets([range(1, 8)], max_faces=127)
    with pytest.raises(ResourceLimitError):
        Complex.from_facets([[1, 2, 3], [3, 4, 5]], max_faces=13)
    assert Complex.from_facets([[1, 2, 3], [3, 4, 5]], max_faces=14).num_faces == 14
    # overlapping facets: the cap counts faces, not the submasks walked
    cp5 = cross_polytope_boundary(5).complex.facets
    assert Complex.from_facets(cp5, max_faces=243).num_faces == 3**5
    with pytest.raises(ResourceLimitError, match="^face count exceeds cap 242; "):
        Complex.from_facets(cp5, max_faces=242)
    # two 7-vertex facets sharing 5 vertices have 2^7 faces after the first
    # and 2^7 + 2^7 - 2^5 = 224 after both; a cap from 128 to 223 passes the
    # first and fails at the second, 127 fails at the first, before its
    # subsets are listed
    first, second = range(1, 8), range(3, 10)
    for cap in (127, 128, 223, 224):
        message = (
            f"face count exceeds cap {cap}; raise --max-faces/DSKIT_MAX_FACES if intended"
        )
        for facets, faces in (([first], 128), ([first, second], 224)):
            if cap >= faces:
                assert Complex.from_facets(facets, max_faces=cap).num_faces == faces
            else:
                with pytest.raises(ResourceLimitError, match=f"^{re.escape(message)}$"):
                    Complex.from_facets(facets, max_faces=cap)


def test_face_cap_below_one_is_a_validation_error(monkeypatch):
    # every complex has the empty face, so no cap below 1 can hold one; the
    # argument and the environment variable are checked alike
    for cap in (0, -1, -5):
        with pytest.raises(ValidationError, match=f"at least 1, got {cap}$"):
            Complex.from_facets([], max_faces=cap)
        with pytest.raises(ValidationError, match="at least 1"):
            parse_cplx("1 2\n", max_faces=cap)
        with pytest.raises(ValidationError, match="at least 1"):
            cross_polytope_boundary(3, max_faces=cap)
        monkeypatch.setenv("DSKIT_MAX_FACES", str(cap))
        with pytest.raises(ValidationError, match="at least 1"):
            Complex.from_facets([[1, 2]])
        with pytest.raises(ValidationError, match="at least 1"):
            cylinder()
    monkeypatch.setenv("DSKIT_MAX_FACES", "1")
    assert Complex.from_facets([]).num_faces == 1
    with pytest.raises(ResourceLimitError):
        Complex.from_facets([[1]])
    monkeypatch.delenv("DSKIT_MAX_FACES")
    assert Complex.from_facets([], max_faces=1).num_faces == 1


def _closure_in_order(facets, rng):
    """The closure of facets taken shuffled within each size, largest first."""
    labels = tuple(sorted({v for f in facets for v in f}))
    bit = {v: 1 << i for i, v in enumerate(labels)}
    masks = list({sum(bit[v] for v in f) for f in facets})
    rng.shuffle(masks)
    masks.sort(key=int.bit_count, reverse=True)  # stable: sizes stay shuffled
    return Complex(*_closure(masks, 1 << 24), labels)


def _assert_closure(cx, facets):
    assert ofaces_of(cx) == oclosure(facets)
    assert cx.facets == omaximal(facets)


def test_closure_matches_oracle():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(3, 8)
        facets = [
            sorted(rng.sample(range(1, n + 1), rng.randrange(1, n + 1)))
            for _ in range(rng.randrange(1, 6))
        ]
        _assert_closure(Complex.from_facets(facets), facets)
    # dense overlaps make the walk meet faces an earlier facet closed and
    # skip their runs: cp6 has 729 faces, its 64 facets 64 * 2^6 subsets
    spheres = [cross_polytope_boundary(d).complex for d in range(1, 7)]
    spheres.append(barycentric_subdivision(simplex_boundary(3).complex).complex)
    for cx in spheres:
        facets = list(cx.facets)
        for _ in range(3):
            _assert_closure(_closure_in_order(facets, rng), facets)
        rng.shuffle(facets)
        _assert_closure(Complex.from_facets(facets), facets)
    for _ in range(40):
        n = rng.randrange(9, 13)
        facets = [
            rng.sample(range(1, n + 1), rng.randrange(4, 10))
            for _ in range(rng.randrange(10, 41))
        ]
        # duplicates in another vertex order, and facets inside others
        for f in rng.sample(facets, 3):
            facets.append(f[::-1])
            facets.append(f[: rng.randrange(1, len(f))])
        rng.shuffle(facets)
        _assert_closure(Complex.from_facets(facets), facets)
        _assert_closure(_closure_in_order(facets, rng), facets)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sets(st.integers(1, 12), min_size=1, max_size=9), min_size=1, max_size=30),
    st.randoms(use_true_random=False),
)
def test_closure_property(facets, rng):
    _assert_closure(Complex.from_facets(facets), facets)
    _assert_closure(_closure_in_order(facets, rng), facets)


def test_link_of_empty_face_is_identity():
    cx = glued_triangles(3).complex
    assert cx.link(()) == cx


def test_link_of_octahedron_vertex_is_square():
    cx = cross_polytope_boundary(3).complex
    link = cx.link([1])
    sizes = tuple(len(g) for g in link.masks_by_card)
    assert sizes == (1, 4, 4)  # a 4-cycle


def test_link_of_glued_triangles_edge():
    cx = glued_triangles(3).complex
    link = cx.link([1, 2])
    assert ofaces_of(link) == {frozenset(), frozenset({3}), frozenset({4}), frozenset({5})}
    assert ochi_reduced(ofaces_of(link)) == 2


def test_link_rejects_non_face():
    cx = glued_triangles(3).complex
    with pytest.raises(DomainError):
        cx.link([3, 4])  # apex vertices of different triangles span no edge
    with pytest.raises(DomainError):
        cx.link([9])


def test_link_matches_oracle_and_composes():
    rng = random.Random(17)
    for i in range(20):
        cx = random_complex(300 + i, 6, 0.5).complex
        faces = ofaces_of(cx)
        for face in list(cx.faces())[:12]:
            assert ofaces_of(cx.link(face)) == olink(faces, face)
        # link(link(., F), G) == link(., F u G) for disjoint F, G
        all_faces = list(cx.faces())
        for _ in range(6):
            fg = all_faces[rng.randrange(len(all_faces))]
            if len(fg) < 2:
                continue
            cut = rng.randrange(1, len(fg))
            f, g = fg[:cut], fg[cut:]
            assert cx.link(f).link(g) == cx.link(fg)


def definitional_link(cx, fmask):
    """{G : G disjoint from F, G union F a face}, by a scan of all faces."""
    faces = {g for group in cx.masks_by_card for g in group}
    return frozenset(g for g in faces if g & fmask == 0 and (g | fmask) in faces)


def test_link_from_star_equals_definition(suite, randoms):
    rng = random.Random(19)
    for cx in [made.complex for _, made in suite] + randoms:
        for fmask in (g for group in cx.masks_by_card for g in group):
            link = cx.link_mask(fmask)
            # a star is an antichain, so its closure may take it in any
            # order, sizes rising as well as falling
            star = [g ^ fmask for g in cx.facet_masks if g & fmask == fmask]
            rng.shuffle(star)
            shuffled = Complex(*_closure(star, 1 << 24), cx.labels)
            assert shuffled.masks_by_card == link.masks_by_card
            assert shuffled.facet_masks == link.facet_masks
            faces = definitional_link(cx, fmask)
            top = max(g.bit_count() for g in faces)
            assert link.masks_by_card == tuple(
                tuple(sorted(g for g in faces if g.bit_count() == c)) for c in range(top + 1)
            )
            facets = [g for g in faces if not any(g != h and g & h == g for h in faces)]
            assert link.facet_masks == tuple(sorted(facets))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=12))
def test_stars_list_the_masks_per_bit_in_order(masks):
    # the masks may leave bits out, as a link's facets do
    width = 12
    assert _stars(masks, width) == [[g for g in masks if g >> i & 1] for i in range(width)]
    assert _stars([0b100101, 0b100, 0b100001], 7) == [
        [0b100101, 0b100001], [], [0b100101, 0b100], [], [], [0b100101, 0b100001], [],
    ]


def test_faces_by_dim_grouping():
    assert faces_by_dim(Complex.from_facets([])) == [[()]]
    edge = Complex.from_facets([[1, 2]])
    assert faces_by_dim(edge) == [[()], [(1,), (2,)], [(1, 2)]]


def test_face_count_is_f_sum():
    randoms = [random_complex(900 + i, 7, 0.4).complex for i in range(10)]
    for cx in randoms:
        assert cx.num_faces == sum(len(g) for g in cx.masks_by_card)
        # downward closure: every subset of every face is a face
        faces = ofaces_of(cx)
        for f in faces:
            for v in f:
                assert f - {v} in faces
    # the face index: every face's position round-trips through masks_by_card
    path = Complex.from_facets([[1, 2], [2, 3]])  # facet masks 0b011 and 0b110
    for cx in randoms + [Complex.from_facets([]), path]:
        for group in cx.masks_by_card:
            for j, mask in enumerate(group):
                assert cx._position(mask) == j
    # a non-face subset of the vertices, a mask above the top cardinality,
    # negative masks, and bits past the labels
    for mask in (0b101, 0b111, -1, -0b10, 0b1000, 0b1010):
        assert path._position(mask) is None


def test_cplx_round_trip():
    cx = glued_triangles(4).complex
    text = write_cplx(cx)
    assert parse_cplx(text) == cx
    # writer is deterministic and lexicographic
    assert text.splitlines() == sorted(text.splitlines())


def test_cplx_comments_and_empty():
    assert parse_cplx("") == Complex.from_facets([])
    assert parse_cplx("# nothing\n\n") == Complex.from_facets([])
    cx = parse_cplx("# triangle\n1 2 3\n")
    assert cx.facets == ((1, 2, 3),)


def test_cplx_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_cplx("1 2\nx 3\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_cplx("1 2\n\n0 3\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_cplx("1 1 2\n")
    assert err.value.line == 1


def test_parse_checks_each_facet_once(monkeypatch):
    # parse_cplx checks every id itself and builds the complex from facets
    # it has checked; from_facets' per-facet check does not run again
    calls = []
    checked_vertices = complexes._checked_vertices

    def counting(face):
        calls.append(face)
        return checked_vertices(face)

    monkeypatch.setattr(complexes, "_checked_vertices", counting)
    text = "1 2 3\n# comment\n\n2 3 4\n3\n5 1\n"
    cx = parse_cplx(text)
    assert calls == []
    assert cx == Complex.from_facets([[1, 2, 3], [2, 3, 4], [3], [5, 1]])
    assert len(calls) == 4
    # parse errors come before the cap, and the cap is still enforced
    with pytest.raises(ParseError):
        parse_cplx("1 2 3 4 5\n0 1\n", max_faces=2)
    with pytest.raises(ParseError):
        parse_cplx("1 2\nx\n", max_faces=0)
    with pytest.raises(ResourceLimitError):
        parse_cplx("1 2 3 4 5\n", max_faces=31)
    assert parse_cplx("1 2 3 4 5\n", max_faces=32).num_faces == 32


def test_colors_round_trip():
    kappa = {1: 1, 2: 2, 3: 1}
    assert parse_colors(write_colors(kappa)) == kappa
    with pytest.raises(ParseError):
        parse_colors("1 2 3\n")
    with pytest.raises(ParseError):
        parse_colors("1 1\n1 2\n")


def test_read_cplx_strict_utf8(tmp_path):
    good = tmp_path / "good.cplx"
    good.write_bytes(b"# caf\xc3\xa9\r\n1 2 3\r\n2 3 4\n")
    assert read_cplx(str(good)).facets == ((1, 2, 3), (2, 3, 4))
    bad = tmp_path / "bad.cplx"
    bad.write_bytes(b"1 2\n# \xff\n")
    with pytest.raises(ParseError, match="^not UTF-8 text: invalid start byte at byte 6$"):
        read_cplx(str(bad))


def test_labels_are_the_sorted_ids():
    # bit i of a mask is labels[i], however large the ids are
    cx = Complex.from_facets([[10**30, 5], [7]])
    assert cx.labels == (5, 7, 10**30)
    assert cx.vertex_mask == 0b111
    assert cx.face_mask([5, 10**30]) == 0b101
    assert cx.mask_vertices(0b101) == (5, 10**30)
    assert cx.facets == ((5, 10**30), (7,))
    assert list(cx.faces()) == [(), (5,), (7,), (10**30,), (5, 10**30)]


def test_face_mask_errors():
    cx = Complex.from_facets([[1, 2], [2, 3]])
    for face in ([1, 3], [9], [2, 10**30]):
        with pytest.raises(DomainError, match=re.escape(f"face {tuple(face)} is not")):
            cx.face_mask(face)
        assert not has_face(cx, face)
    with pytest.raises(ValidationError, match="vertex id must be positive, got 0"):
        cx.face_mask([1, 0])
    with pytest.raises(ValidationError, match="duplicate vertex in face"):
        cx.face_mask([2, 2])
    assert not has_face(cx, [-1])
    assert has_face(cx, [3, 2]) and has_face(cx, [])
    with pytest.raises(DomainError, match=re.escape("face (1, 3) is not")):
        cx.link_mask(0b101)
    for mask in (0b1000, -1):  # bits past the labels
        with pytest.raises(DomainError, match=re.escape(f"face {hex(mask)} is not")):
            cx.link_mask(mask)


def test_a_complex_keeps_few_bytes_per_face():
    # each face is one int in one sorted tuple: 8 B of pointer plus the
    # int itself (about 32 B); a set or dict beside it would add 40 B or more
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cx = Complex.from_facets([range(1, 17)])
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cx.num_faces == 1 << 16
    assert kept / cx.num_faces <= 64


def test_equality_follows_vertex_ids_not_masks():
    a = Complex.from_facets([[1, 2]])
    b = Complex.from_facets([[1, 3]])
    assert a.masks_by_card == b.masks_by_card  # both are {0, 0b01, 0b10, 0b11}
    assert a != b
    again = Complex.from_facets([[2, 1]])
    assert again == a and hash(again) == hash(a)


def test_link_equals_the_complex_parsed_from_text():
    cx = parse_cplx("1 2 3\n3 4 5\n3 7\n6\n")
    link = cx.link([3])
    expected = parse_cplx("1 2\n4 5\n7\n")
    assert link.labels == cx.labels != expected.labels  # links keep their labels
    assert link == expected and hash(link) == hash(expected)
    assert link.vertices == (1, 2, 4, 5, 7)
    assert has_face(link, [4, 5]) and not has_face(link, [3]) and not has_face(link, [6])
    assert cx.link([3, 4]) == parse_cplx("5\n") == link.link([4])
    assert cx.link([1, 2, 3]) == Complex.from_facets([])


# -- parser fuzz: every rejection is a ParseError with a line number --------

_TOKENS = (
    "0", "-3", "x", "1.5", "+7", "1_0", "\u0663", "#", "1#2", "\x00", "\ufeff",
    str(10**19), str(10**30), "9" * 4400,
)


def _mutate(text: str, draw) -> str:
    """A few byte and token mutations of text, kept as str by surrogateescape."""
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["set", "insert", "delete", "token"]))
        if kind == "token":
            parts = re.split(r"(\s+)", text)
            i = draw(st.integers(0, len(parts) - 1))
            parts[i] = draw(
                st.sampled_from(_TOKENS)
                | st.integers(-(10**30), 10**30).map(str)
                | st.just(parts[i] + " " + parts[i])  # a repeated vertex
            )
            text = "".join(parts)
            continue
        data = text.encode("utf-8", "surrogateescape")
        pos = draw(st.integers(0, len(data)))
        byte = bytes([draw(st.integers(0, 255))])
        if kind == "insert":
            data = data[:pos] + byte + data[pos:]
        elif kind == "set":
            data = data[:pos] + byte + data[pos + 1 :]
        else:
            data = data[:pos] + data[pos + 1 :]
        text = data.decode("utf-8", "surrogateescape")
    return text


_CPLX_SEEDS = (
    write_cplx(glued_triangles(3).complex),
    write_cplx(cylinder().complex),
    write_cplx(random_complex(3, 7, 0.5).complex),
    "# comment\n\n1 2\n",
)
_COLORS_SEEDS = (
    write_colors(dict(cross_polytope_boundary(3).coloring.kappa)),
    "# colors\n1 1\n2 2\n\n3 1\n",
)


def _parses_or_names_a_line(parse, text: str) -> None:
    try:
        parse(text)
    except ParseError as exc:
        assert exc.line is not None and 1 <= exc.line <= len(text.splitlines())


# int() also reads a sign, underscores between digits and non-ASCII
# digits; an id is ASCII decimal digits only
_NOT_IDS = ("+7", "1_0", "1__0", "_1", "\u0663", "\uff13", "\U0001d7d1", "+0", "0x3", "1.5")


def test_ids_are_ascii_decimal_digits():
    for tok in _NOT_IDS:
        with pytest.raises(ParseError, match="^line 2: expected integer vertex id, got ") as err:
            parse_cplx(f"1 2\n3 {tok}\n")
        assert err.value.args[0].endswith(repr(tok))
        with pytest.raises(ParseError, match="^line 2: expected integers, got ") as err:
            parse_colors(f"1 1\n{tok} 2\n")
        with pytest.raises(ParseError, match="^line 1: expected integers, got "):
            parse_colors(f"1 {tok}\n")
    # the first bad token of a line is named, whatever follows it
    for text, message in (
        ("+3 \u0663\n", "expected integer vertex id, got '+3'"),
        ("3 \u0663\n", "expected integer vertex id, got '\u0663'"),
        ("1 x\n", "expected integer vertex id, got 'x'"),
        ("0 x\n", "vertex ids must be positive, got 0"),
        ("-3 +1\n", "vertex ids must be positive, got -3"),
        ("1 1_0\n", "expected integer vertex id, got '1_0'"),
    ):
        with pytest.raises(ParseError, match=re.escape(f"line 1: {message}")):
            parse_cplx(text)
    for text in ("0 1\n", "-3 1\n", "1 -0\n"):
        with pytest.raises(ParseError, match="^line 1: vertex and color must be positive$"):
            parse_colors(text)
    # leading zeros and wide ids stay valid, as do ids split by a
    # non-ASCII space
    wide = str(10**400)
    assert parse_cplx(f"07 2\n{wide} 1\n1\u00a03\n").facets == ((1, 3), (1, 10**400), (2, 7))
    assert parse_colors(f"07 1\n{wide} 02\n") == {7: 1, 10**400: 2}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cplx_parser_fuzz(data):
    text = _mutate(data.draw(st.sampled_from(_CPLX_SEEDS)), data.draw)
    _parses_or_names_a_line(parse_cplx, text)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_colors_parser_fuzz(data):
    text = _mutate(data.draw(st.sampled_from(_COLORS_SEEDS)), data.draw)
    _parses_or_names_a_line(parse_colors, text)

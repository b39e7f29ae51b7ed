"""Metamorphic tests: relabelling, cones and suspensions.

Vertex ids are names, so relabelling changes nothing: an order-preserving
relabelling must leave every CLI output the same once the ids are mapped
back, and any injective relabelling must keep every invariant that does
not name a face. A cone is acyclic, and a suspension shifts reduced
homology up by one dimension, over every field; coning multiplies f~ by
1+x and keeps h, suspending multiplies f~ by 1+2x and h by 1+x.
"""

import contextlib
import io
import json
import random
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dskit.cli import main
from dskit.complexes import Complex
from dskit.enumeration import f_vector, h_vector
from dskit.homology import (
    FieldSpec,
    _link_scan,
    boundary_faces_homological,
    is_homology_manifold,
    reduced_betti,
)
from dskit.relations import classify

from conftest import RP2_FACETS, irregular_spheres, small_facet_lists, trap_complex

VERTICES = range(1, 9)
# color classes {1,4,7}, {2,5,8}, {3,6}: a facet with one vertex of each
# is balanced of type (1,1,1)
COLOR = {v: (v - 1) % 3 + 1 for v in VERTICES}

any_facets = st.lists(st.sets(st.integers(1, 8), min_size=1, max_size=5), max_size=6)
transversal_facets = st.lists(
    st.tuples(st.sampled_from([1, 4, 7]), st.sampled_from([2, 5, 8]), st.sampled_from([3, 6])),
    min_size=1,
    max_size=6,
)
facet_lists = any_facets | transversal_facets
FIELDS = (FieldSpec(0), FieldSpec(2), FieldSpec(3))

COMMANDS = (
    ["verify"],
    ["classify"],
    ["betti"],
    ["multiplicities"],
    ["interior"],
    ["flag", "--colors"],
)


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _outputs(root: Path, facets, relabel: dict[int, int]) -> list[tuple[int, str, str]]:
    cplx, colors = root / "cx.cplx", root / "cx.colors"
    cplx.write_text("".join(" ".join(str(relabel[v]) for v in f) + "\n" for f in facets))
    colors.write_text("".join(f"{relabel[v]} {COLOR[v]}\n" for v in VERTICES))
    out = []
    for command in COMMANDS:
        argv = [command[0], str(cplx), *command[1:]]
        if command[0] == "flag":
            argv.append(str(colors))
        out.append(_cli(argv + ["--json"]))
    return out


@settings(max_examples=40, deadline=None)
@given(
    facet_lists,
    # eight ids or more above any count, so a long digit run is an id
    st.lists(st.integers(10**7, 10**30), min_size=8, max_size=8, unique=True).map(sorted),
)
def test_order_preserving_relabelling_keeps_cli_output(facets, ids):
    relabel = dict(zip(VERTICES, ids))
    back = {str(new): str(old) for old, new in relabel.items()}
    with tempfile.TemporaryDirectory() as tmp:
        plain = _outputs(Path(tmp), facets, {v: v for v in VERTICES})
        moved = _outputs(Path(tmp), facets, relabel)
    for (code, out, err), expected in zip(moved, plain):
        mapped = [re.sub(r"\d{8,}", lambda m: back[m.group()], s) for s in (out, err)]
        assert (code, *mapped) == expected


@settings(max_examples=60, deadline=None)
@given(
    facet_lists | small_facet_lists(),
    st.lists(st.integers(1, 10**30), min_size=8, max_size=8, unique=True),
)
def test_injective_relabelling_keeps_invariants(facets, ids):
    # ids in drawn order: the relabelling is in general not monotone, so a
    # link's key, which follows the order of its vertices, may change, and
    # its homology may not. Every verdict stays; a scan that runs to the end
    # finds the same sorted multiset of link tables, and one that stops
    # finds a witness whose link, mapped back, has the same table
    relabel = dict(zip(VERTICES, ids))
    back = {new: old for old, new in relabel.items()}
    cx = Complex.from_facets(facets)
    moved = Complex.from_facets([[relabel[v] for v in f] for f in facets])
    assert f_vector(moved) == f_vector(cx)
    assert h_vector(f_vector(moved)) == h_vector(f_vector(cx))
    for field in FIELDS:
        assert reduced_betti(moved, field).betti == reduced_betti(cx, field).betti
        a, b = classify(cx, field), classify(moved, field)
        for flag in ("reciprocal", "semi_eulerian", "eulerian", "homology_manifold"):
            assert getattr(b, flag) == getattr(a, flag)
        verdict = is_homology_manifold(moved, field)
        if verdict.is_manifold:
            tables = sorted(t.betti for t in _link_scan(cx, field).values())
            assert sorted(t.betti for t in _link_scan(moved, field).values()) == tables
            assert len(tables) == cx.num_faces - 1
            bd = {tuple(sorted(relabel[v] for v in f)) for f in boundary_faces_homological(cx, field)}
            assert set(boundary_faces_homological(moved, field)) == bd
        else:
            witness = [back[v] for v in verdict.witness]
            assert reduced_betti(cx.link(witness), field) == verdict.witness_betti


def test_link_scan_ignores_the_vertex_order(randoms, suite):
    # the scan looks a link up by its facets moved onto its own vertices in
    # id order; a relabelling that breaks that order must give every face
    # scanned on both sides the same link Betti table, and the same verdict.
    # A manifold is scanned whole on both sides, and its boundary faces map
    # over; a witness of the relabelled complex, mapped back, fails
    rng = random.Random(20211024)
    rp2 = Complex.from_facets(RP2_FACETS)
    rp2_cone = Complex.from_facets([[*f, 100] for f in RP2_FACETS])
    complexes = randoms + [made.complex for _, made in suite]
    complexes += irregular_spheres() + [trap_complex(), rp2, rp2_cone]
    for cx in complexes:
        ids = list(cx.vertices)
        new = rng.sample(range(1, 3 * len(ids) + 1), len(ids))
        while len(ids) > 1 and new == sorted(new):
            rng.shuffle(new)
        perm = dict(zip(ids, new))
        moved = Complex.from_facets([[perm[v] for v in f] for f in cx.facets])
        for field in (FieldSpec(0), FieldSpec(2)):
            scan, moved_scan = _link_scan(cx, field), _link_scan(moved, field)
            mapped = {moved.face_mask(perm[v] for v in cx.mask_vertices(m)): b for m, b in scan.items()}
            shared = mapped.keys() & moved_scan.keys()
            assert all(mapped[m] == moved_scan[m] for m in shared)
            verdict, moved_verdict = is_homology_manifold(cx, field), is_homology_manifold(moved, field)
            assert moved_verdict.is_manifold == verdict.is_manifold
            if verdict.is_manifold:
                assert len(shared) == len(scan) == cx.num_faces - 1
                bd = {tuple(sorted(perm[v] for v in f)) for f in boundary_faces_homological(cx, field)}
                assert set(boundary_faces_homological(moved, field)) == bd
            else:
                back = {b: a for a, b in perm.items()}
                witness = [back[v] for v in moved_verdict.witness]
                assert reduced_betti(cx.link(witness), field) == moved_verdict.witness_betti


def _classify_json(root: Path, facets, field: str) -> str:
    path = root / "cx.cplx"
    path.write_text("".join(" ".join(map(str, f)) + "\n" for f in facets))
    code, out, err = _cli(["classify", str(path), "--field", field, "--json"])
    assert (code, err) == (0, "")
    return out


def _mapped_classify(out: str, back: dict[int, int]) -> str:
    """A classify --json document with its vertex ids mapped by back."""
    doc = json.loads(out)
    hom = doc["homology"]
    doc["witnesses"] = {k: [back[v] for v in face] for k, face in doc["witnesses"].items()}
    if hom["witness"] is not None:
        hom["witness"] = [back[v] for v in hom["witness"]]
    if hom["boundary_faces"] is not None:
        hom["boundary_faces"] = [[back[v] for v in face] for face in hom["boundary_faces"]]
    return json.dumps(doc, indent=2) + "\n"


def _check_classify_under(facets, ids):
    # ids[i], increasing in i, is the new id of vertex i + 1: classify must
    # give the same document once the ids its faces name are mapped back
    relabel = dict(enumerate(ids, start=1))
    back = {new: old for old, new in relabel.items()}
    moved = [[relabel[v] for v in f] for f in facets]
    with tempfile.TemporaryDirectory() as tmp:
        for field in ("2", "3", "q"):
            plain = _classify_json(Path(tmp), facets, field)
            assert _mapped_classify(_classify_json(Path(tmp), moved, field), back) == plain


# new ids scattered over 1..10^6, where they mix with the counts and the old
# ids, or of 20 digits and more
SCATTERED_IDS = st.lists(st.integers(1, 10**6), min_size=8, max_size=8, unique=True).map(sorted)
WIDE_IDS = st.lists(st.integers(10**19, 10**40), min_size=8, max_size=8, unique=True).map(sorted)


@settings(max_examples=40, deadline=None)
@given(small_facet_lists(), SCATTERED_IDS | WIDE_IDS)
def test_order_preserving_relabelling_keeps_classify_over_every_field(facets, ids):
    _check_classify_under(facets, ids)


def test_order_preserving_relabelling_keeps_classify_of_deep_scans():
    # spheres with links of many shapes, the trap and the cone over RP^2:
    # scans that run to the end or stop late, under both kinds of ids
    rng = random.Random(22)
    complexes = irregular_spheres()[:2] + [trap_complex(), Complex.from_facets([[*f, 7] for f in RP2_FACETS])]
    for cx in complexes:
        # the vertices renumbered 1..n, order kept
        facets = [[cx.vertices.index(v) + 1 for v in f] for f in cx.facets]
        for low, high in ((1, 10**6), (10**19, 10**40)):
            ids = set()
            while len(ids) < cx.n:
                ids.add(rng.randrange(low, high))
            _check_classify_under(facets, sorted(ids))




def _cone(cx):
    apex = max(cx.vertices, default=0) + 1
    return Complex.from_facets([[*f, apex] for f in cx.facets])


def _suspension(cx):
    top = max(cx.vertices, default=0)
    return Complex.from_facets([[*f, pole] for f in cx.facets for pole in (top + 1, top + 2)])


def _times(p, q):
    """Product of two polynomials given as ascending coefficient tuples."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def test_cone_is_acyclic(randoms, suite):
    # also f~(cone X) = (1+x) f~(X), and h(cone X) = h(X) as a polynomial:
    # the cone's h-vector is one entry longer, and that entry is 0
    for cx in randoms + [made.complex for _, made in suite]:
        cone = _cone(cx)
        for field in FIELDS:
            assert set(reduced_betti(cone, field).betti) == {0}
        f = f_vector(cx)
        assert f_vector(cone) == _times(f, (1, 1))
        assert h_vector(f_vector(cone)) == (*h_vector(f), 0)


def test_suspension_shifts_betti_numbers(randoms, suite):
    # beta_i(SX) = beta_{i-1}(X) for i >= 0, and SX is not empty; also
    # f~(SX) = (1+2x) f~(X) and h(SX)(x) = (1+x) h(X)(x)
    for cx in randoms + [made.complex for _, made in suite]:
        susp = _suspension(cx)
        for field in FIELDS:
            table, shifted = reduced_betti(cx, field), reduced_betti(susp, field)
            assert shifted.betti == (0, *table.betti)
        f = f_vector(cx)
        assert f_vector(susp) == _times(f, (1, 2))
        assert h_vector(f_vector(susp)) == _times(h_vector(f), (1, 1))

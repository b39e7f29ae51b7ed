"""CLI subcommands, exit codes, JSON schemas and composition."""

import argparse
import contextlib
import errno
import io
import json
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dskit.cli import _build_parser, main
from dskit.complexes import parse_cplx, write_cplx
from dskit.enumeration import (
    euler_from_f,
    f_vector,
    h_vector,
    multiplicities,
    reduced_euler_from_f,
)
from dskit.generators import (
    cross_polytope_boundary,
    double_banana,
    glued_triangles,
    random_complex,
)
from dskit.relations import RelationReport


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_f_vector_from_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["f-vector"], stdin_text="1 2 3\n1 2 4\n", monkeypatch=monkeypatch
    )
    assert code == 0
    assert out == "1 4 5 2\n"


def test_gen_pipes_into_f_vector(tmp_path):
    gen = subprocess.run(
        [sys.executable, "-m", "dskit.cli", "gen", "cylinder"],
        capture_output=True,
        text=True,
    )
    assert gen.returncode == 0
    fv = subprocess.run(
        [sys.executable, "-m", "dskit.cli", "f-vector"],
        input=gen.stdout,
        capture_output=True,
        text=True,
    )
    assert fv.returncode == 0
    assert fv.stdout == "1 6 12 6\n"


def test_h_vector_json(capsys, monkeypatch, tmp_path):
    path = tmp_path / "oct.cplx"
    code, out, _ = run_cli(capsys, ["gen", "cross-polytope-boundary", "3", "-o", str(path)])
    assert code == 0
    code, out, _ = run_cli(capsys, ["h-vector", str(path), "--json"])
    assert code == 0
    assert json.loads(out) == {"h": ["1", "3", "3", "1"]}


def test_verify_reciprocity_json_schema(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--relation", "reciprocity", "--json"],
        stdin_text="1 2 3\n1 2 4\n1 2 5\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    rep = RelationReport.from_json_dict(reports[0])
    assert rep.relation == "reciprocity" and rep.holds
    # polynomial payloads are decimal strings, ascending degree
    assert reports[0]["context"]["rhs"] == ["0", "0", "2", "3"]


def test_verify_all_exit_zero(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["verify"], stdin_text="1 2 3\n1 2 4\n1 2 5\n", monkeypatch=monkeypatch
    )
    assert code == 0
    assert "ds-f: skipped" in out


def test_verify_precondition_exit_4(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys,
        ["verify", "--relation", "ds-f"],
        stdin_text="1 2 3\n1 2 4\n1 2 5\n",
        monkeypatch=monkeypatch,
    )
    assert code == 4
    assert "witness" in err and "(1, 2)" in err


def test_parse_error_exit_3(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, ["f-vector"], stdin_text="1 two\n", monkeypatch=monkeypatch
    )
    assert code == 3
    assert "line 1" in err


def test_unknown_subcommand_exit_2(capsys):
    assert main(["no-such-command"]) == 2


def test_bad_gen_params_exit_2(capsys):
    assert main(["gen", "no-such-family"]) == 2
    assert main(["gen", "cylinder", "9"]) == 2
    capsys.readouterr()
    for family in ("glued-triangles", "glued-tetrahedra"):
        code, out, err = run_cli(capsys, ["gen", family, "3", "4", "9"])
        assert (code, out) == (2, "")
        assert f"family '{family}' takes 0 or 1 parameter(s), got 3" in err
    code, out, err = run_cli(capsys, ["gen", "random", "1", str(10**400), "0.5"])
    assert (code, out) == (2, "")
    assert "fit a float" in err


def test_gen_takes_no_json(capsys):
    # gen writes .cplx text only, so --json is an unknown option
    code, out, err = run_cli(capsys, ["gen", "cylinder", "--json"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --json" in err


def test_max_faces_cap(capsys, monkeypatch, tmp_path):
    path = tmp_path / "big.cplx"
    path.write_text(" ".join(str(v) for v in range(1, 30)) + "\n")
    code, _, err = run_cli(capsys, ["f-vector", str(path), "--max-faces", "100"])
    assert code == 4
    assert "cap" in err


def test_out_of_memory_exit_4(capsys, monkeypatch):
    # an input within the cap can still outgrow memory: that is exit 4, as
    # for the cap, not exit 1, which means a relation failed
    from dskit import cli

    def exhausted(text, max_faces=None):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_cplx", exhausted)
    code, out, err = run_cli(capsys, ["f-vector"], stdin_text="1 2\n", monkeypatch=monkeypatch)
    assert (code, out) == (4, "")
    assert err == (
        "dskit: out of memory within the face-count cap; lower --max-faces/DSKIT_MAX_FACES\n"
    )


def test_gen_honours_max_faces(capsys, tmp_path):
    # each family compares its closed-form facet and face counts with the cap
    # before it lists a facet, so 2^40 facets fail at once
    facet4 = tmp_path / "facet4.cplx"
    facet4.write_text("1 2 3 4\n")
    for argv, cap in (
        (["cross-polytope-boundary", "12"], "10"),
        (["cross-polytope-boundary", "40"], "1000"),
        (["cross-polytope-boundary", "8"], "6000"),
        (["simplex-boundary", "10"], "10"),
        (["simplex-boundary", "12"], "4096"),
        (["glued-triangles", "20"], "19"),
        (["glued-tetrahedra", "20"], "19"),
        (["random", "1", "100000", "1"], "1000"),
        (["cylinder"], "24"),
    ):
        code, out, err = run_cli(capsys, ["gen", *argv, "--max-faces", cap])
        assert (code, out) == (4, ""), argv
        assert f"cap {cap}" in err
    # the facets fit, and the closed-form face count fails before the
    # closure would
    for argv, cap, count in (
        (["glued-triangles", "10"], "43", "44 faces"),
        (["glued-tetrahedra", "3"], "39", "40 faces"),
        (["barycentric-subdivision", str(facet4)], "149", "150 faces"),
    ):
        code, out, err = run_cli(capsys, ["gen", *argv, "--max-faces", cap])
        assert (code, out) == (4, ""), argv
        assert f"{count} exceed the face-count cap {cap}" in err
    # the octahedron boundary has 27 faces: the cap also bounds the closure
    assert run_cli(capsys, ["gen", "cross-polytope-boundary", "3", "--max-faces", "26"])[0] == 4
    code, out, _ = run_cli(capsys, ["gen", "cross-polytope-boundary", "3", "--max-faces", "27"])
    assert code == 0 and len(out.splitlines()) == 8


def test_gen_barycentric_subdivision_honours_max_faces(capsys, tmp_path):
    base = tmp_path / "octahedron.cplx"
    run_cli(capsys, ["gen", "cross-polytope-boundary", "3", "-o", str(base)])
    # 8 triangles with 3! maximal chains each: 48 facets, 147 faces
    code, out, err = run_cli(capsys, ["gen", "barycentric-subdivision", str(base), "--max-faces", "47"])
    assert (code, out) == (4, "") and "48 facets" in err
    assert run_cli(capsys, ["gen", "barycentric-subdivision", str(base), "--max-faces", "146"])[0] == 4
    code, out, _ = run_cli(capsys, ["gen", "barycentric-subdivision", str(base), "--max-faces", "147"])
    assert code == 0 and len(out.splitlines()) == 48


def test_max_faces_env(capsys, monkeypatch, tmp_path):
    path = tmp_path / "big.cplx"
    path.write_text(" ".join(str(v) for v in range(1, 30)) + "\n")
    monkeypatch.setenv("DSKIT_MAX_FACES", "100")
    code, _, err = run_cli(capsys, ["f-vector", str(path)])
    assert code == 4


def test_face_cap_below_one_is_a_usage_error(capsys, monkeypatch, tmp_path):
    # exit 2 with the cap named, never exit 4 with "exceeds cap -5"
    path = tmp_path / "edge.cplx"
    path.write_text("1 2\n")
    empty = tmp_path / "empty.cplx"
    empty.write_text("")
    (tmp_path / "none").mkdir()  # no .cplx file for batch, and the cap is still checked
    for argv in (
        ["f-vector", str(path), "--max-faces", "-5"],
        ["f-vector", str(empty), "--max-faces", "0"],
        ["verify", str(path), "--max-faces", "0"],
        ["gen", "cross-polytope-boundary", "3", "--max-faces", "-1"],
        ["gen", "cylinder", "--max-faces", "0"],
        ["gen", "barycentric-subdivision", str(path), "--max-faces", "0"],
        ["batch", str(tmp_path / "none"), "--max-faces", "0"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "face-count cap must be at least 1" in err, argv
    assert run_cli(capsys, ["f-vector", str(empty), "--max-faces", "1"])[:2] == (0, "1\n")
    monkeypatch.setenv("DSKIT_MAX_FACES", "0")
    for argv in (["f-vector", str(path)], ["gen", "cylinder"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "") and "at least 1, got 0" in err, argv


def _compute_commands() -> dict:
    """Each subcommand that reads a complex from FILE -> its option strings."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {opt for action in parser._actions for opt in action.option_strings}
        for name, parser in sub.choices.items()
        if any(action.dest == "file" for action in parser._actions)
    }


def test_usage_is_checked_before_any_input(capsys, monkeypatch, tmp_path):
    # a bad cap or field is exit 2 with its message whatever the input: a
    # missing file (else exit 3, the OS error) or malformed stdin (else
    # exit 3, a parse error) is never read, nor a --colors file
    missing = str(tmp_path / "no-such.cplx")
    colors = ["--colors", str(tmp_path / "no-such.colors")]
    cap = "dskit: face-count cap must be at least 1, got 0\n"
    commands = _compute_commands()
    assert set(commands) == {
        "f-vector", "h-vector", "multiplicities", "interior", "classify", "betti", "verify",
        "flag", "hilbert",
    }
    cases = [
        ([name, "--max-faces", "0", *(colors if "--colors" in options else [])], cap)
        for name, options in commands.items()
    ]
    cases += [
        (["classify", "--field", "4"], "dskit: field characteristic must be 0 or prime, got 4\n"),
        (["betti", "--field", "x"], "dskit: field must be 'q' or a prime, got 'x'\n"),
        (["betti", "--field=-0"], "dskit: field must be 'q' or a prime, got '-0'\n"),
    ]
    for argv, message in cases:
        for source in (missing, "-"):
            got = run_cli(capsys, [*argv, source], stdin_text="1 2\nx\n", monkeypatch=monkeypatch)
            assert got == (2, "", message), (argv, source)
    # flag has no uncolored mode: without --colors, or with an empty one,
    # it is a usage error; an empty --colors is one for hilbert too
    for argv in (["flag"], ["flag", "--colors", ""], ["hilbert", "--colors", ""]):
        for source in (missing, "-"):
            code, out, err = run_cli(capsys, [*argv, source], stdin_text="1 2\nx\n", monkeypatch=monkeypatch)
            assert (code, out) == (2, "") and "--colors" in err, (argv, source)
    # the same inputs with good options are the errors the options hide
    for source in (missing, "-"):
        code, out, err = run_cli(capsys, ["f-vector", source], stdin_text="1 2\nx\n", monkeypatch=monkeypatch)
        assert (code, out) == (3, "") and err.startswith("dskit: "), source


def test_precondition_failures_write_nothing(capsys, tmp_path):
    # the result is computed and rendered before -o is opened: a relation
    # precondition, a non-reciprocal complex or an unbalanced coloring is
    # exit 4 with nothing on stdout and no output file
    fan = tmp_path / "fan.cplx"
    fan.write_text("1 2 3\n1 2 4\n1 2 5\n")  # three triangles on one edge
    cp3, unbalanced = tmp_path / "cp3.cplx", tmp_path / "unbalanced.colors"
    cp3.write_text(write_cplx(cross_polytope_boundary(3).complex))
    unbalanced.write_text("\n".join(f"{v} 1" for v in range(1, 6)) + "\n6 2\n")
    out = tmp_path / "out.txt"
    for argv in (
        ["verify", str(fan), "--relation", "ds-f"],
        ["interior", str(fan)],
        ["flag", str(cp3), "--colors", str(unbalanced)],
    ):
        for flags in ([], ["--json"]):
            code, stdout, err = run_cli(capsys, [*argv, *flags, "-o", str(out)])
            assert (code, stdout) == (4, ""), (argv, flags)
            assert err.startswith("dskit: ") and not out.exists(), (argv, flags)


def test_multiplicities_json_schema(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["multiplicities", "--json"],
        stdin_text="1 2\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    data = json.loads(out)
    assert data["f"] == ["1", "2", "1"]
    assert data["h"] == ["1", "0", "0"]
    assert data["chi"] == "1" and data["chi_reduced"] == "0"
    assert {"face": [1, 2], "m": "1"} in data["m"]
    assert {"face": [], "m": "0"} in data["m"]


def test_interior_non_reciprocal_exit_4(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, ["interior"], stdin_text="1 2 3\n1 2 4\n1 2 5\n", monkeypatch=monkeypatch
    )
    assert code == 4
    assert "reciprocal" in err


def test_interior_and_betti(capsys, monkeypatch, tmp_path):
    path = tmp_path / "cyl.cplx"
    run_cli(capsys, ["gen", "cylinder", "-o", str(path)])
    code, out, _ = run_cli(capsys, ["interior", str(path)])
    assert code == 0 and out == "0 6 6\n"
    code, out, _ = run_cli(capsys, ["betti", str(path)])
    assert code == 0 and out == "b[-1]=0 b[0]=0 b[1]=1 b[2]=0\n"
    code, out, _ = run_cli(capsys, ["betti", str(path), "--field", "2", "--json"])
    assert code == 0
    assert json.loads(out)["field"] == "2"


def test_classify_json(capsys, monkeypatch, tmp_path):
    path = tmp_path / "banana.cplx"
    run_cli(capsys, ["gen", "double-banana", "-o", str(path)])
    code, out, _ = run_cli(capsys, ["classify", str(path), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["eulerian"] is True
    assert data["homology"]["homology_manifold"] is False
    assert data["homology"]["witness"] in ([1], [2])
    assert data["homology"]["boundary_faces"] is None

    path2 = tmp_path / "cyl.cplx"
    run_cli(capsys, ["gen", "cylinder", "-o", str(path2)])
    code, out, _ = run_cli(capsys, ["classify", str(path2), "--json"])
    data = json.loads(out)
    assert data["homology"]["homology_manifold"] is True
    assert [1] in data["homology"]["boundary_faces"]
    assert data["homology"]["boundary_is_subcomplex"] is True


def test_flag_command(capsys, monkeypatch, tmp_path):
    cplx = tmp_path / "oct.cplx"
    colors = tmp_path / "oct.colors"
    run_cli(
        capsys,
        ["gen", "cross-polytope-boundary", "3", "-o", str(cplx), "--colors-out", str(colors)],
    )
    code, out, _ = run_cli(capsys, ["flag", str(cplx), "--colors", str(colors), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["a"] == [1, 1, 1]
    assert {"b": [1, 1, 1], "f": "8", "h": "1"} in data["flags"]
    # unbalanced colors (facet color counts disagree) are a precondition failure
    colors.write_text("\n".join(f"{v} 1" for v in range(1, 6)) + "\n6 2\n")
    code2, _, err = run_cli(capsys, ["flag", str(cplx), "--colors", str(colors)])
    assert code2 == 4


def test_flag_requires_colors(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, ["flag"], stdin_text="1 2\n", monkeypatch=monkeypatch
    )
    assert code == 2


def test_hilbert_command(capsys, monkeypatch, tmp_path):
    code, out, _ = run_cli(
        capsys, ["hilbert", "--json"], stdin_text="1 2 3\n", monkeypatch=monkeypatch
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"numerator": ["1", "0", "0", "0"], "denominator_exponent": 3}

    cplx = tmp_path / "oct.cplx"
    colors = tmp_path / "oct.colors"
    run_cli(
        capsys,
        ["gen", "cross-polytope-boundary", "3", "-o", str(cplx), "--colors-out", str(colors)],
    )
    code, out, _ = run_cli(
        capsys, ["hilbert", str(cplx), "--colors", str(colors), "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["denominator_exponent"] == [1, 1, 1]
    assert {"e": [0, 0, 0], "c": "1"} in data["numerator"]


def test_gen_colors_out_requires_canonical_coloring(capsys, tmp_path):
    # the check comes before any output: nothing on stdout, no file made
    cplx, colors = tmp_path / "c.cplx", tmp_path / "c.colors"
    for out in ([], ["-o", str(cplx)]):
        code, stdout, err = run_cli(capsys, ["gen", "cylinder", *out, "--colors-out", str(colors)])
        assert (code, stdout) == (2, ""), out
        assert err == "dskit: family 'cylinder' has no canonical coloring\n"
        assert not cplx.exists() and not colors.exists()


def test_gen_colors_out_on_a_non_pure_base(capsys, tmp_path):
    # the subdivision of a triangle and an edge is colored by cardinality,
    # balanced of type (1, 1, 1), and flag reads that coloring back
    base, sd, colors = tmp_path / "base.cplx", tmp_path / "sd.cplx", tmp_path / "sd.colors"
    base.write_text("1 2 3\n4 5\n")
    argv = ["gen", "barycentric-subdivision", str(base), "-o", str(sd), "--colors-out", str(colors)]
    assert run_cli(capsys, argv) == (0, "", "")
    code, out, err = run_cli(capsys, ["flag", str(sd), "--colors", str(colors), "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["a"] == [1, 1, 1]


def test_batch(capsys, tmp_path):
    run_cli(capsys, ["gen", "cross-polytope-boundary", "3", "-o", str(tmp_path / "a.cplx")])
    run_cli(capsys, ["gen", "glued-triangles", "3", "-o", str(tmp_path / "b.cplx")])
    (tmp_path / "notes.txt").write_text("ignored")
    code, out, _ = run_cli(capsys, ["batch", str(tmp_path)])
    assert code == 0
    assert "a.cplx\treciprocity\tok" in out
    assert "b.cplx\tds-f\tskip" in out
    assert "2 files" in out
    code, out, _ = run_cli(capsys, ["batch", str(tmp_path), "--json"])
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"a.cplx", "b.cplx"}
    for reports in data.values():
        for rep in reports:
            RelationReport.from_json_dict(rep)  # schema round-trips


def test_batch_parse_error_names_the_file(capsys, tmp_path):
    run_cli(capsys, ["gen", "cross-polytope-boundary", "3", "-o", str(tmp_path / "a.cplx")])
    (tmp_path / "b.cplx").write_text("1 x\n")
    run_cli(capsys, ["gen", "cylinder", "-o", str(tmp_path / "c.cplx")])
    code, _, err = run_cli(capsys, ["batch", str(tmp_path)])
    assert code == 3
    assert err == "dskit: parse error: b.cplx: line 1: expected integer vertex id, got 'x'\n"


def test_betti_over_large_prime_field(capsys, tmp_path):
    path = tmp_path / "oct.cplx"
    run_cli(capsys, ["gen", "cross-polytope-boundary", "3", "-o", str(path)])
    code, out, _ = run_cli(capsys, ["betti", str(path), "--field", "2305843009213693951"])
    assert code == 0
    assert out == "b[-1]=0 b[0]=0 b[1]=0 b[2]=1\n"
    code, _, err = run_cli(capsys, ["betti", str(path), "--field", str(2**89 - 1)])
    assert code == 2
    assert "out of range" in err


def test_verify_takes_no_field(capsys, tmp_path):
    # relations are identities over the integers: no coefficient field
    # enters, so verify rejects --field like any unknown option
    path = tmp_path / "oct.cplx"
    run_cli(capsys, ["gen", "cross-polytope-boundary", "3", "-o", str(path)])
    for field in ("4", "2", "q"):
        code, out, err = run_cli(capsys, ["verify", "--field", field, str(path)])
        assert code == 2 and out == ""
        assert "unrecognized arguments: --field" in err
    code, out, _ = run_cli(capsys, ["verify", str(path)])
    assert code == 0 and out.startswith("fh-tilde: ok\n")


def test_non_utf8_input_is_a_parse_error(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "bad.cplx"
    bad.write_bytes(b"\xff1 2\n")
    expected = "not UTF-8 text: invalid start byte at byte 0\n"
    # a .cplx file, stdin, a .colors file and a file in a batch directory
    code, _, err = run_cli(capsys, ["f-vector", str(bad)])
    assert (code, err) == (3, "dskit: parse error: " + expected)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff1 2\n"), "utf-8"))
    code, _, err = run_cli(capsys, ["f-vector"])
    assert (code, err) == (3, "dskit: parse error: " + expected)
    # a lenient text layer (UTF-8 mode's surrogateescape) must not hide a bad
    # byte, in a comment or in a facet line
    for data, at in ((b"# \xff c\n1 2\n", "byte 2"), (b"\xff1 2\n", "byte 0")):
        stdin = io.TextIOWrapper(io.BytesIO(data), "utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run_cli(capsys, ["f-vector"])
        assert (code, out) == (3, "")
        assert err == "dskit: parse error: " + expected.replace("byte 0", at)
    cplx = tmp_path / "oct.cplx"
    colors = tmp_path / "oct.colors"
    run_cli(capsys, ["gen", "cross-polytope-boundary", "3", "-o", str(cplx),
                     "--colors-out", str(colors)])
    colors.write_bytes(b"1 1\n\xfe\n")
    code, _, err = run_cli(capsys, ["flag", str(cplx), "--colors", str(colors)])
    assert (code, err) == (3, "dskit: parse error: " + expected.replace("byte 0", "byte 4"))
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.cplx").write_text("1 2\n")
    (batch / "b.cplx").write_bytes(b"\xff1 2\n")
    code, _, err = run_cli(capsys, ["batch", str(batch)])
    assert (code, err) == (3, "dskit: parse error: b.cplx: " + expected)


def test_huge_vertex_ids(capsys, tmp_path):
    # an id is a name, not a bit position: a mask has one bit per vertex
    for big in (10**19, 10**400):
        cplx = tmp_path / "edge.cplx"
        cplx.write_text(f"1 {big}\n")
        colors = tmp_path / "edge.colors"
        colors.write_text(f"1 1\n{big} 2\n")
        code, out, err = run_cli(capsys, ["f-vector", str(cplx)])
        assert (code, out, err) == (0, "1 2 1\n", "")
        code, out, err = run_cli(capsys, ["verify", str(cplx), "--json"])
        assert (code, err) == (0, "")
        assert all(rep["holds"] for rep in json.loads(out))
        code, out, err = run_cli(capsys, ["classify", str(cplx)])
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "reciprocal: true",
            "semi_eulerian: false  (witness: 1)",
            "eulerian: false  (witness: 1)",
            "homology_manifold: true",
        ]
        code, out, err = run_cli(capsys, ["multiplicities", str(cplx)])
        assert (code, err) == (0, "")
        assert out == f"- : 0\n1 : 0\n{big} : 0\n1 {big} : 1\n"
        code, out, err = run_cli(capsys, ["flag", str(cplx), "--colors", str(colors)])
        assert (code, err) == (0, "")
        assert out == "b=(0,0) f=1 h=1\nb=(0,1) f=1 h=0\nb=(1,0) f=1 h=0\nb=(1,1) f=1 h=0\n"


def test_huge_colors_are_validation_errors(capsys, tmp_path):
    # count vectors are sized by the largest color, so a color above the
    # vertex count is rejected, naming its vertex, before any is built
    cplx = tmp_path / "edge.cplx"
    cplx.write_text("1 2\n")
    colors = tmp_path / "edge.colors"
    for big in (10**19, 10**8):
        colors.write_text(f"1 1\n2 {big}\n")
        for command in ("flag", "hilbert"):
            code, out, err = run_cli(capsys, [command, str(cplx), "--colors", str(colors)])
            assert (code, out) == (2, "")
            assert err == f"dskit: vertex 2 has color {big}, above the vertex count 2\n"
    colors.write_text("1 1\n2 2\n")
    assert run_cli(capsys, ["flag", str(cplx), "--colors", str(colors)])[0] == 0


def test_id_past_the_int_digit_limit_is_a_parse_error(capsys, tmp_path):
    # int() refuses digit strings past 4300 digits; the error names the line
    long_id = "9" * 5000
    cplx = tmp_path / "long.cplx"
    cplx.write_text(f"1 2\n1 {long_id}\n")
    code, out, err = run_cli(capsys, ["f-vector", str(cplx)])
    assert (code, out) == (3, "")
    assert err.startswith("dskit: parse error: line 2: ")
    cplx.write_text("1 2\n")
    colors = tmp_path / "long.colors"
    colors.write_text(f"1 1\n2 1\n{long_id} 1\n")
    code, out, err = run_cli(capsys, ["flag", str(cplx), "--colors", str(colors)])
    assert (code, out) == (3, "")
    assert err.startswith("dskit: parse error: line 3: ")


def test_every_json_command_keeps_the_stdlib_layout(capsys, tmp_path):
    # each --json output, read back and re-rendered by the stdlib, gives the
    # same bytes: cross-polytope with its coloring, and an edge with a wide id
    cp3 = tmp_path / "cp3.cplx"
    colors = tmp_path / "cp3.colors"
    assert main(["gen", "cross-polytope-boundary", "3", "-o", str(cp3), "--colors-out", str(colors)]) == 0
    wide = tmp_path / "wide.cplx"
    wide.write_text(f"1 {10**400}\n")
    runs = [
        ["f-vector", str(wide)],
        ["h-vector", str(wide)],
        ["multiplicities", str(cp3)],
        ["multiplicities", str(wide)],
        ["interior", str(cp3)],
        ["classify", str(cp3), "--field", "2"],
        ["classify", str(wide)],
        ["betti", str(wide), "--field", "2"],
        ["verify", str(cp3)],
        ["verify", str(wide)],
        ["flag", str(cp3), "--colors", str(colors)],
        ["hilbert", str(cp3), "--colors", str(colors)],
        ["hilbert", str(wide)],
        ["batch", str(tmp_path)],
    ]
    for argv in runs:
        capsys.readouterr()
        main(argv + ["--json"])
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def _reference_multiplicities(cx, as_json):
    # the output as it was built before rendering from the face index: one
    # dict per face through json.dumps, or one _face_text line per face
    table = multiplicities(cx)
    if not as_json:
        faces = [(" ".join(map(str, face)) if face else "-", m) for face, m in table.items()]
        return "".join(f"{text} : {m}\n" for text, m in faces)
    f = f_vector(cx)
    data = {
        "f": [str(x) for x in f],
        "h": [str(x) for x in h_vector(f)],
        "m": [{"face": list(face), "m": str(m)} for face, m in table.items()],
        "chi": str(euler_from_f(f)),
        "chi_reduced": str(reduced_euler_from_f(f)),
    }
    return json.dumps(data, indent=2) + "\n"


def test_multiplicities_render_matches_the_per_face_reference(capsys, tmp_path):
    # {emptyset}, one vertex, wide ids of mixed width, the double banana,
    # m_F outside {0, 1} (three triangles on one edge), a non-pure complex,
    # cp3, and cp9, whose rows of 4032, 5376 and 4608 faces are each longer
    # than one written slice; stdout and -o alike
    rand = random_complex(7, 9, 0.5).complex
    assert not rand.is_pure()
    glued = glued_triangles(3).complex
    assert 2 in multiplicities(glued).rows[2]
    inputs = {
        "empty": "",
        "vertex": "5\n",
        "wide": f"1 {10**400}\n3 22 1000 {10**25} 1\n",
        "banana": write_cplx(double_banana().complex),
        "glued": write_cplx(glued),
        "random": write_cplx(rand),
        "cp3": write_cplx(cross_polytope_boundary(3).complex),
        "cp9": write_cplx(cross_polytope_boundary(9).complex),
    }
    for name, text in inputs.items():
        path = tmp_path / f"{name}.cplx"
        path.write_text(text)
        cx = parse_cplx(text)
        for flags in ([], ["--json"]):
            expected = _reference_multiplicities(cx, bool(flags))
            assert run_cli(capsys, ["multiplicities", str(path), *flags]) == (0, expected, ""), (name, flags)
            out = tmp_path / "out.txt"
            assert run_cli(capsys, ["multiplicities", str(path), *flags, "-o", str(out)]) == (0, "", "")
            assert out.read_bytes() == expected.encode(), (name, flags)


def test_multiplicities_failures_write_nothing(capsys, tmp_path):
    # parse, sweep, f and h finish before the first byte is written: a run
    # stopped by the cap (exit 4) or by a parse error (exit 3) leaves stdout
    # empty and creates no -o file, and -o into a missing directory is exit
    # 3 with the OS message
    cp3 = tmp_path / "cp3.cplx"
    cp3.write_text(write_cplx(cross_polytope_boundary(3).complex))
    bad = tmp_path / "bad.cplx"
    bad.write_text("1 2 3\n1 two\n")
    out = tmp_path / "out.txt"
    missing = tmp_path / "no-such-dir" / "out.txt"
    for flags in ([], ["--json"]):
        for argv, code, message in (
            ([str(cp3), "--max-faces", "26"], 4, "cap"),
            ([str(bad)], 3, "line 2"),
        ):
            got, stdout, err = run_cli(capsys, ["multiplicities", *argv, *flags])
            assert (got, stdout) == (code, ""), (argv, flags)
            assert message in err
            got, stdout, err = run_cli(capsys, ["multiplicities", *argv, *flags, "-o", str(out)])
            assert (got, stdout) == (code, "") and message in err
            assert not out.exists()
        got, stdout, err = run_cli(capsys, ["multiplicities", str(cp3), *flags, "-o", str(missing)])
        assert (got, stdout) == (3, "")
        assert err == f"dskit: [Errno 2] No such file or directory: {str(missing)!r}\n"
        assert not missing.parent.exists()


def test_a_write_error_after_the_first_chunk_is_exit_3(capsys, monkeypatch, tmp_path):
    # output is written in chunks, so a full disk can stop it part way: that
    # is the OSError path, exit 3 with the OS message
    class FullDisk(io.StringIO):
        def write(self, text):
            if self.tell():
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(text)

    cp3 = tmp_path / "cp3.cplx"
    cp3.write_text(write_cplx(cross_polytope_boundary(3).complex))
    for flags in ([], ["--json"]):
        stream = FullDisk()
        monkeypatch.setattr(sys, "stdout", stream)
        code = main(["multiplicities", str(cp3), *flags])
        monkeypatch.undo()
        assert code == 3
        assert capsys.readouterr().err == "dskit: [Errno 28] No space left on device\n"
        assert 0 < len(stream.getvalue()) < len(_reference_multiplicities(parse_cplx(cp3.read_text()), bool(flags)))


def test_multiplicities_output_costs_no_memory_beyond_the_sweep(tmp_path):
    # the JSON of cp9 (2.4 MB) is written a row slice at a time, so its
    # traced peak stays within twice that of verify on the same file, where
    # a document held whole, several times over, costs about six times
    cp9 = tmp_path / "cp9.cplx"
    cp9.write_text(write_cplx(cross_polytope_boundary(9).complex))
    out = tmp_path / "out.json"
    assert main(["f-vector", str(cp9), "-o", str(out)]) == 0  # the parser is built once
    peaks = {}
    for command in ("multiplicities", "verify"):
        tracemalloc.start()
        try:
            assert main([command, str(cp9), "--json", "-o", str(out)]) == 0
            peaks[command] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["multiplicities"] <= 2 * peaks["verify"], peaks


# -- input fuzz ------------------------------------------------------------

_TOKENS = ["1", "2", "3", "4", "5", "6", "0", "-1", "+2", "07", "1.5", "x", "#", "\u0663", "1_0",
           str(10**20), "9" * 5000, "\x00", "\ufeff1", "1 2"]


def _lines(rows):
    return "".join(" ".join(map(str, row)) + "\n" for row in rows).encode()


# arbitrary bytes, or lines of tokens some valid and some not, beside
# well-formed complexes on 1..9 (up to 256 faces against the cap of 200)
# and colorings of all of 1..9 in up to 4 colors
_FUZZ_JUNK = st.binary(max_size=40) | st.lists(
    st.lists(st.sampled_from(_TOKENS), max_size=5), max_size=6
).map(_lines)
_FUZZ_CPLX = _FUZZ_JUNK | st.lists(
    st.sets(st.integers(1, 9), min_size=1, max_size=8).map(sorted), max_size=6
).map(_lines)
_FUZZ_COLORS = _FUZZ_JUNK | st.lists(st.integers(1, 4), min_size=9, max_size=9).map(
    lambda colors: _lines(enumerate(colors, 1))
)
_FUZZ_FIELDS = st.text(max_size=6) | st.sampled_from(
    ["q", "Q", "2", "3", "5", "7", "4", "0", "1", "-3", " 5", "\u0663", "0x3", "2147483647",
     str(2**61 - 1), str(2**127 - 1), "9" * 50]
)
_FUZZ_COMMANDS = ["f-vector", "verify", "multiplicities", "classify", "betti", "flag", "hilbert"]


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(_FUZZ_COMMANDS),
    cplx=_FUZZ_CPLX,
    colors=_FUZZ_COLORS,
    field=_FUZZ_FIELDS,
    json_out=st.booleans(),
    colored=st.booleans(),
)
def test_cli_survives_arbitrary_input(command, cplx, colors, field, json_out, colored):
    # any .cplx and .colors bytes and any --field string end in a
    # documented exit code, never a traceback, and a nonzero code comes
    # with a "dskit: " line on stderr
    with tempfile.TemporaryDirectory() as tmp:
        cplx_path, colors_path = Path(tmp) / "in.cplx", Path(tmp) / "in.colors"
        cplx_path.write_bytes(cplx)
        colors_path.write_bytes(colors)
        argv = [command, str(cplx_path), "--max-faces", "200"]
        if command in ("classify", "betti"):
            argv.append(f"--field={field}")
        if command == "flag" or (command == "hilbert" and colored):
            argv += ["--colors", str(colors_path)]
        if json_out:
            argv.append("--json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3, 4), (argv, err)
    assert "Traceback" not in err
    if code:
        assert any(line.startswith("dskit: ") for line in err.splitlines()), (argv, code, err)

"""CLI output pinned byte for byte on a small corpus.

tests/cli_golden.json holds the sha256 of stdout and the exit code of
every command below, and of batch over the whole corpus, recorded from a
known-good build. The test rebuilds the corpus with `gen`, runs each
command in-process and compares, so a change that alters any output
(text or JSON, success or failure) fails here. Regenerate only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from dskit.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

# name -> (gen argv, whether the family has a canonical coloring)
INPUTS = {
    "cylinder": (["cylinder"], False),
    "cp4": (["cross-polytope-boundary", "4"], True),
    "banana": (["double-banana"], True),
    "banana_minus": (["double-banana-minus-triangle"], True),
    "glued_tet3": (["glued-tetrahedra", "3"], False),
    "random7": (["random", "7", "9", "0.5"], False),
    "random11": (["random", "11", "12", "0.3"], False),
}

RELATIONS = (
    "fh-tilde", "reciprocity", "ds-f", "ds-f-inverse", "ds-h", "semi-eulerian-h", "macdonald",
)


def _commands(colored: bool) -> list[list[str]]:
    """Argv templates over {cplx} and {colors}; each runs as text and --json."""
    cmds = [["f-vector", "{cplx}"], ["h-vector", "{cplx}"], ["verify", "{cplx}"]]
    cmds += [["verify", "{cplx}", "--relation", r] for r in RELATIONS]
    cmds += [["classify", "{cplx}", "--field", f] for f in ("q", "2")]
    cmds += [["multiplicities", "{cplx}"], ["interior", "{cplx}"]]
    cmds += [["betti", "{cplx}", "--field", f] for f in ("q", "2")]
    cmds += [["hilbert", "{cplx}"]]
    if colored:
        cmds += [["flag", "{cplx}", "--colors", "{colors}"]]
        cmds += [["hilbert", "{cplx}", "--colors", "{colors}"]]
    return [c + extra for c in cmds for extra in ([], ["--json"])]


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _record(work: Path) -> dict[str, list]:
    """'name: argv template' -> [exit code, stdout sha256], corpus built in work."""
    runs = {}
    for name, (gen, colored) in INPUTS.items():
        cplx, colors = work / f"{name}.cplx", work / f"{name}.colors"
        argv = ["gen", *gen, "-o", str(cplx)]
        if colored:
            argv += ["--colors-out", str(colors)]
        code, _ = _run(argv)
        assert code == 0, argv
        runs[f"{name}: gen"] = [code, hashlib.sha256(cplx.read_bytes()).hexdigest()]
        for template in _commands(colored):
            argv = [a.format(cplx=cplx, colors=colors) for a in template]
            runs[f"{name}: {' '.join(template)}"] = list(_run(argv))
    # the whole corpus, its .colors sidecars beside it, through batch
    for extra in ([], ["--json"]):
        runs[" ".join(["corpus: batch {dir}", *extra])] = list(_run(["batch", str(work), *extra]))
    return runs


def test_cli_output_matches_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _record(tmp_path)
    assert sorted(got) == sorted(expected)
    assert [k for k in expected if got[k] != expected[k]] == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(_record(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

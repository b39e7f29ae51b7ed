"""Command-line interface.

Compute commands read a .cplx complex from FILE or stdin, so `gen`
composes with everything: `dskit gen cylinder | dskit f-vector`.

One dispatcher runs every command in this order: argparse checks the
options, then --field is parsed and the face-count cap checked, then the
complex is read, then the --colors coloring. The command's body computes
its JSON document, a text renderer and its exit code; the renderer runs
only without --json. Only then is -o opened and the output written, so a
usage error reads no input and a failure writes nothing. multiplicities
streams its own output the same way; gen and batch read no complex.

Exit codes: 0 all good, 1 a verified relation failed, 2 usage or
parameter validation, 3 file parse error (message carries the line
number) or a file that cannot be read or written (the OS message; output
is written in chunks, so a write error can come after some of it), 4
precondition/domain failure (message carries a witness face), the
face-count cap, or running out of memory.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

from . import balanced, complexes, generators, relations, stanley_reisner
from .complexes import Complex, parse_colors, parse_cplx, write_cplx, write_colors
from .enumeration import (
    f_vector,
    h_vector,
    interior_f_vector,
    multiplicities,
    euler_from_f,
    reduced_euler_from_f,
)
from .errors import (
    DomainError,
    DskitError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
    ValidationError,
)
from .homology import (
    FieldSpec,
    boundary_faces_homological,
    is_downward_closed,
    reduced_betti,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4


def _read_text(path: Path | None) -> str:
    """Strict UTF-8 text of a file, or of stdin when path is None."""
    if path is not None:
        return complexes._decode_utf8(path.read_bytes())
    # stdin's own error handler may be lenient (surrogateescape in UTF-8
    # mode); a text stream with no bytes underneath is already decoded
    buffer = getattr(sys.stdin, "buffer", None)
    return sys.stdin.read() if buffer is None else complexes._decode_utf8(buffer.read())


def _read_complex(path: str, max_faces: int | None) -> Complex:
    # a bad cap is a usage error, reported before any input is read
    cap = complexes._effective_max_faces(max_faces)
    return parse_cplx(_read_text(None if path == "-" else Path(path)), max_faces=cap)


def _read_coloring(cx: Complex, path: str) -> balanced.Coloring:
    kappa = parse_colors(_read_text(Path(path)))
    # a color past the vertex count is bad input (exit 2), not an
    # unbalanced coloring
    balanced._check_color_range(cx, kappa)
    try:
        return balanced.validate_balanced(cx, kappa)
    except ValidationError as exc:
        # an unbalanced coloring is a precondition failure for flag commands
        raise PreconditionError(str(exc))


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the str chunks in order to stdout, or to the file out.

    The file is created before the first chunk is drawn: a caller finishes
    what can fail before it calls _emit.
    """
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as stream:
        stream.writelines(chunks)


# -- subcommand bodies ----------------------------------------------------
#
# A body takes the parsed arguments, with args.field a FieldSpec and
# args.colors a Coloring, and the complex. It returns its JSON document, a
# function that renders its text without the final newline, and its exit
# code; multiplicities and gen write their own output and return the code.


def _vector(key: str, compute):
    def body(args, cx):
        doc = {key: [str(x) for x in compute(cx)]}
        return doc, lambda: " ".join(doc[key]), EXIT_OK

    return body


_SLICE = 4096  # faces per chunk of multiplicities output


def _multiplicities(args, cx) -> int:
    rows = multiplicities(cx).rows
    # parse, sweep, f and h are done before _emit writes the first byte, so
    # a failure writes nothing
    if args.json:
        f = f_vector(cx)
        doc = json.dumps(
            {
                "f": [str(x) for x in f],
                "h": [str(x) for x in h_vector(f)],
                "m": [{"face": [], "m": str(rows[0][0])}],
                "chi": str(euler_from_f(f)),
                "chi_reduced": str(reduced_euler_from_f(f)),
            },
            indent=2,
        )
        # the other faces' entries go after the empty face's, before the
        # last list of the document, m's, closes
        head, close, tail = doc.rpartition("\n  ]")
        tail = close + tail + "\n"
        labels, sep = ["\n        " + repr(v) for v in cx.labels], ","
    else:
        head, tail = f"- : {rows[0][0]}\n", ""
        labels, sep = [str(v) for v in cx.labels], " "
    walk = complexes._prefix_walk(cx, labels, sep)
    _emit(_multiplicity_chunks(head, walk, rows[1:], tail, args.json), args.out)
    return EXIT_OK


def _multiplicity_chunks(head: str, walk, rows, tail: str, as_json: bool) -> Iterator[str]:
    """head, each row's entries _SLICE faces to a chunk, then tail.

    One text per face from the face index, in table.items() order: the
    bytes that json.dumps of per-face dicts, or "-" and space-joined vertex
    lines, give. These entries are the only JSON text not written by
    json.dumps.
    """
    yield head
    for texts, row in zip(walk, rows):
        for i in range(0, len(row), _SLICE):
            pairs = zip(texts[i : i + _SLICE], row[i : i + _SLICE])
            if as_json:
                yield "".join(
                    [f',\n    {{\n      "face": [{t}\n      ],\n      "m": "{m}"\n    }}' for t, m in pairs]
                )
            else:
                yield "".join([f"{t} : {m}\n" for t, m in pairs])
    yield tail


def _classify(args, cx):
    cls = relations.classify(cx, args.field)
    bd = boundary_faces_homological(cx, args.field) if cls.homology_manifold else None
    doc = cls.to_json_dict()
    doc["homology"] = {
        "homology_manifold": cls.homology_manifold,
        "witness": doc["witnesses"].get("homology_manifold"),
        "boundary_faces": None if bd is None else [list(face) for face in bd],
        "boundary_is_subcomplex": None if bd is None else is_downward_closed(bd),
    }

    def line(flag: str) -> str:
        val, witness = getattr(cls, flag), cls.witnesses.get(flag)
        text = f"{flag}: {str(val).lower()}"
        return text if val or witness is None else f"{text}  (witness: {' '.join(map(str, witness)) or '-'})"

    flags = ("reciprocal", "semi_eulerian", "eulerian", "homology_manifold")
    return doc, lambda: "\n".join(map(line, flags)), EXIT_OK


def _betti(args, cx):
    table = reduced_betti(cx, args.field)
    doc = {"field": str(args.field), "betti": [{"dim": i, "b": str(b)} for i, b in table.items()]}
    return doc, lambda: " ".join(f"b[{e['dim']}]={e['b']}" for e in doc["betti"]), EXIT_OK


def _report_line(rep) -> str:
    if rep.skipped:
        return f"{rep.relation}: skipped ({rep.skipped})"
    if rep.holds:
        return f"{rep.relation}: ok"
    bad = [f"{lbl}={res}" for lbl, res in zip(rep.labels, rep.residuals) if res]
    return f"{rep.relation}: FAIL [{', '.join(bad)}]"


def _verify(args, cx):
    if args.relation == "all":
        reports = relations.verify_all(cx)
    else:
        reports = [relations.verify_relation(cx, args.relation)]
    code = EXIT_OK if all(r.holds for r in reports) else EXIT_FAILED
    return [rep.to_json_dict() for rep in reports], lambda: "\n".join(map(_report_line, reports)), code


def _flag(args, cx):
    f = balanced.flag_f(cx, args.colors)
    h = balanced.flag_h(cx, args.colors)
    entries = [{"b": list(b), "f": str(f[b]), "h": str(h[b])} for b in sorted(f)]

    def render() -> str:
        return "\n".join(f"b=({','.join(map(str, e['b']))}) f={e['f']} h={e['h']}" for e in entries)

    return {"a": list(args.colors.a), "flags": entries}, render, EXIT_OK


def _hilbert(args, cx):
    if args.colors:
        series = stanley_reisner.hilbert_series_colored(cx, args.colors)
        exps = list(series.denominator_exponent)
        terms = [{"e": list(e), "c": str(c)} for e, c in series.numerator.items_sorted()]

        def render() -> str:
            text = " ".join(f"({','.join(map(str, t['e']))}):{t['c']}" for t in terms)
            return f"numerator: {text}\ndenominator: prod (1-w_i)^({','.join(map(str, exps))})"
    else:
        series = stanley_reisner.hilbert_series(cx)
        exps = series.denominator_exponent
        terms = [str(c) for c in series.numerator]

        def render() -> str:
            return f"numerator: {' '.join(terms)}\ndenominator: (1-x)^{exps}"

    return {"numerator": terms, "denominator_exponent": exps}, render, EXIT_OK


def _gen(args, _cx) -> int:
    base = None
    params = list(args.params)
    if args.family == "barycentric-subdivision":
        if len(params) != 1:
            raise ValidationError("barycentric-subdivision takes one FILE parameter")
        base = _read_complex(params[0], args.max_faces)
        params = []
    made = generators.gen(args.family, params, base=base, max_faces=args.max_faces)
    if args.colors_out and made.coloring is None:
        raise ValidationError(f"family {args.family!r} has no canonical coloring")
    _emit([write_cplx(made.complex)], args.out)
    if args.colors_out:
        Path(args.colors_out).write_text(
            write_colors(dict(made.coloring.kappa)), encoding="utf-8"
        )
    return EXIT_OK


def _batch(args, _cx):
    root = Path(args.dir)
    if not root.is_dir():
        raise ValidationError(f"not a directory: {args.dir}")
    cap = complexes._effective_max_faces(args.max_faces)  # checked also when no file is read
    results = {}
    for path in sorted(root.glob("*.cplx")):
        try:
            cx = parse_cplx(_read_text(path), max_faces=cap)
        except (ParseError, ResourceLimitError) as exc:
            raise type(exc)(f"{path.name}: {exc}") from exc
        results[path.name] = relations.verify_all(cx)
    reports = [rep for reps in results.values() for rep in reps]

    def text() -> str:
        lines = [
            f"{name}\t{rep.relation}\t{'skip' if rep.skipped else 'ok' if rep.holds else 'FAIL'}"
            for name, reps in results.items()
            for rep in reps
        ]
        checked = sum(1 for r in reports if not r.skipped)
        failed = sum(1 for r in reports if not r.holds)
        return "\n".join([*lines, f"# {len(results)} files, {checked} relations checked, {failed} failed"])

    doc = {name: [rep.to_json_dict() for rep in reps] for name, reps in results.items()}
    return doc, text, EXIT_OK if all(r.holds for r in reports) else EXIT_FAILED


# -- the command table ----------------------------------------------------


def _arg(*flags: str, **kw) -> tuple:
    return flags, kw


def _nonempty(path: str) -> str:
    # an empty --colors names no file: a usage error for flag, which has no
    # uncolored mode, and for hilbert, whose uncolored mode is no --colors
    if not path:
        raise argparse.ArgumentTypeError("expected a file name")
    return path


_JSON = _arg("--json", action="store_true", help="machine-readable output")
_CAP = _arg("--max-faces", type=int, default=None, help="face-count cap")
_OUT = _arg("-o", dest="out", default=None, help="write output to a file")
_FIELD = _arg("--field", default="q", help="q or a prime")
_COMMON = (_arg("file", nargs="?", default="-", help=".cplx file or - for stdin"), _JSON, _CAP, _OUT)

# command -> (body, its options beyond _COMMON); gen and batch read no
# complex and list all their options
_COMMANDS = {
    "f-vector": (_vector("f", f_vector), ()),
    "h-vector": (_vector("h", lambda cx: h_vector(f_vector(cx))), ()),
    "multiplicities": (_multiplicities, ()),
    "interior": (_vector("f_int", interior_f_vector), ()),
    "classify": (_classify, (_FIELD,)),
    "betti": (_betti, (_FIELD,)),
    "verify": (_verify, (_arg("--relation", default="all", choices=[*relations.RELATION_NAMES, "all"]),)),
    "flag": (_flag, (_arg("--colors", required=True, type=_nonempty, help=".colors sidecar file"),)),
    "hilbert": (_hilbert, (_arg("--colors", default=None, type=_nonempty, help=".colors sidecar file"),)),
    "gen": (_gen, (
        _arg("family", help=", ".join(generators.FAMILIES)),
        _arg("params", nargs="*", help="family parameters"),
        _CAP, _OUT,
        _arg("--colors-out", default=None, help="write the canonical coloring"),
    )),
    "batch": (_batch, (_arg("dir", help="directory of .cplx files"), _JSON, _CAP, _OUT)),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing does not change the parser
    ap = argparse.ArgumentParser(prog="dskit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flags, kw in options if name in ("gen", "batch") else (*_COMMON, *options):
            p.add_argument(*flags, **kw)
    return ap


def _dispatch(args) -> int:
    if "field" in args:
        args.field = FieldSpec.parse(args.field)
    cx = _read_complex(args.file, args.max_faces) if "file" in args else None
    if getattr(args, "colors", None):
        args.colors = _read_coloring(cx, args.colors)
    result = _COMMANDS[args.command][0](args, cx)
    if isinstance(result, int):  # the body wrote its own output
        return result
    doc, render, code = result
    _emit((json.dumps(doc, indent=2) if args.json else render(), "\n"), args.out)
    return code


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return _dispatch(args)
    except ParseError as exc:
        print(f"dskit: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, DomainError, ResourceLimitError) as exc:
        print(f"dskit: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except DskitError as exc:
        print(f"dskit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"dskit: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError:  # an input within the face-count cap can still outgrow memory
        msg = f"out of memory within the face-count cap; lower --max-faces/{complexes.MAX_FACES_ENV}"
        print(f"dskit: {msg}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())

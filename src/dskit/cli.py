"""Command-line interface.

Compute commands read a .cplx complex from FILE or stdin, so `gen`
composes with everything: `dskit gen cylinder | dskit f-vector`.

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


def _print_json(data, out: str | None) -> None:
    """json.dumps(data, indent=2) and a newline, written as two chunks.

    Every --json document is json.dumps output; multiplicities alone
    writes its face entries itself, see _multiplicity_chunks.
    """
    _emit((json.dumps(data, indent=2), "\n"), out)


def _face_text(face) -> str:
    return " ".join(str(v) for v in face) if face else "-"


def _add_common(p: argparse.ArgumentParser, colors: bool = False) -> None:
    p.add_argument("file", nargs="?", default="-", help=".cplx file or - for stdin")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--max-faces", type=int, default=None, help="face-count cap")
    p.add_argument("-o", dest="out", default=None, help="write output to a file")
    if colors:
        p.add_argument("--colors", default=None, help=".colors sidecar file")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing does not change the parser
    ap = argparse.ArgumentParser(prog="dskit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("f-vector", "h-vector", "multiplicities", "interior"):
        _add_common(sub.add_parser(name))

    p = sub.add_parser("classify")
    _add_common(p)
    p.add_argument("--field", default="q", help="q or a prime")

    p = sub.add_parser("betti")
    _add_common(p)
    p.add_argument("--field", default="q", help="q or a prime")

    p = sub.add_parser("verify")
    _add_common(p)
    p.add_argument(
        "--relation",
        default="all",
        choices=list(relations.RELATION_NAMES) + ["all"],
    )

    p = sub.add_parser("flag")
    _add_common(p, colors=True)

    p = sub.add_parser("hilbert")
    _add_common(p, colors=True)

    p = sub.add_parser("gen")
    p.add_argument("family", help=", ".join(generators.FAMILIES))
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-faces", type=int, default=None)
    p.add_argument("-o", dest="out", default=None)
    p.add_argument("--colors-out", default=None, help="write the canonical coloring")

    p = sub.add_parser("batch")
    p.add_argument("dir", help="directory of .cplx files")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-faces", type=int, default=None)
    p.add_argument("-o", dest="out", default=None)
    return ap


# -- subcommand bodies ----------------------------------------------------


def _emit_vector(args, key: str, vec) -> int:
    if args.json:
        _print_json({key: [str(x) for x in vec]}, args.out)
    else:
        _emit((" ".join(str(x) for x in vec), "\n"), args.out)
    return EXIT_OK


def _cmd_vectors(args) -> int:
    f = f_vector(_read_complex(args.file, args.max_faces))
    if args.command == "f-vector":
        return _emit_vector(args, "f", f)
    return _emit_vector(args, "h", h_vector(f))


_SLICE = 4096  # faces per chunk of multiplicities output


def _cmd_multiplicities(args) -> int:
    cx = _read_complex(args.file, args.max_faces)
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
    bytes that json.dumps of per-face dicts, or _face_text lines, give.
    These entries are the only JSON text not written by json.dumps.
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


def _cmd_interior(args) -> int:
    cx = _read_complex(args.file, args.max_faces)
    return _emit_vector(args, "f_int", interior_f_vector(cx))


def _cmd_classify(args) -> int:
    fld = FieldSpec.parse(args.field)
    cx = _read_complex(args.file, args.max_faces)
    cls = relations.classify(cx, fld)
    data = cls.to_json_dict()
    homology = {
        "homology_manifold": cls.homology_manifold,
        "witness": list(cls.witnesses["homology_manifold"])
        if "homology_manifold" in cls.witnesses
        else None,
        "boundary_faces": None,
        "boundary_is_subcomplex": None,
    }
    if cls.homology_manifold:
        bd = boundary_faces_homological(cx, fld)
        homology["boundary_faces"] = [list(face) for face in bd]
        homology["boundary_is_subcomplex"] = is_downward_closed(bd)
    data["homology"] = homology
    if args.json:
        _print_json(data, args.out)
    else:
        lines = []
        for flag in ("reciprocal", "semi_eulerian", "eulerian", "homology_manifold"):
            val = getattr(cls, flag)
            suffix = ""
            if not val and flag in cls.witnesses:
                suffix = f"  (witness: {_face_text(cls.witnesses[flag])})"
            lines.append(f"{flag}: {str(val).lower()}{suffix}")
        _emit(("\n".join(lines), "\n"), args.out)
    return EXIT_OK


def _cmd_betti(args) -> int:
    fld = FieldSpec.parse(args.field)
    cx = _read_complex(args.file, args.max_faces)
    table = reduced_betti(cx, fld)
    if args.json:
        data = {
            "field": str(fld),
            "betti": [{"dim": i, "b": str(b)} for i, b in table.items()],
        }
        _print_json(data, args.out)
    else:
        _emit((" ".join(f"b[{i}]={b}" for i, b in table.items()), "\n"), args.out)
    return EXIT_OK


def _report_line(rep) -> str:
    if rep.skipped:
        return f"{rep.relation}: skipped ({rep.skipped})"
    if rep.holds:
        return f"{rep.relation}: ok"
    bad = [
        f"{lbl}={res}" for lbl, res in zip(rep.labels, rep.residuals) if res
    ]
    return f"{rep.relation}: FAIL [{', '.join(bad)}]"


def _cmd_verify(args) -> int:
    cx = _read_complex(args.file, args.max_faces)
    if args.relation == "all":
        reports = relations.verify_all(cx)
    else:
        reports = [relations.verify_relation(cx, args.relation)]
    if args.json:
        _print_json([rep.to_json_dict() for rep in reports], args.out)
    else:
        _emit(("\n".join(_report_line(r) for r in reports), "\n"), args.out)
    return EXIT_OK if all(r.holds for r in reports) else EXIT_FAILED


def _cmd_flag(args) -> int:
    if not args.colors:
        raise ValidationError("flag requires --colors")
    cx = _read_complex(args.file, args.max_faces)
    coloring = _read_coloring(cx, args.colors)
    f = balanced.flag_f(cx, coloring)
    h = balanced.flag_h(cx, coloring)
    entries = [
        {"b": list(b), "f": str(f[b]), "h": str(h[b])} for b in sorted(f)
    ]
    if args.json:
        _print_json({"a": list(coloring.a), "flags": entries}, args.out)
    else:
        lines = [
            "b=({}) f={} h={}".format(
                ",".join(str(x) for x in e["b"]), e["f"], e["h"]
            )
            for e in entries
        ]
        _emit(("\n".join(lines), "\n"), args.out)
    return EXIT_OK


def _cmd_hilbert(args) -> int:
    cx = _read_complex(args.file, args.max_faces)
    if args.colors:
        coloring = _read_coloring(cx, args.colors)
        series = stanley_reisner.hilbert_series_colored(cx, coloring)
        numer = series.numerator
        if args.json:
            data = {
                "numerator": [
                    {"e": list(e), "c": str(c)} for e, c in numer.items_sorted()
                ],
                "denominator_exponent": list(series.denominator_exponent),
            }
            _print_json(data, args.out)
        else:
            terms = " ".join(
                f"({','.join(str(x) for x in e)}):{c}" for e, c in numer.items_sorted()
            )
            exps = ",".join(str(x) for x in series.denominator_exponent)
            _emit([f"numerator: {terms}\ndenominator: prod (1-w_i)^({exps})\n"], args.out)
    else:
        series = stanley_reisner.hilbert_series(cx)
        if args.json:
            data = {
                "numerator": [str(c) for c in series.numerator.coeffs],
                "denominator_exponent": series.denominator_exponent,
            }
            _print_json(data, args.out)
        else:
            coeffs = " ".join(str(c) for c in series.numerator.coeffs)
            _emit(
                [f"numerator: {coeffs}\ndenominator: (1-x)^{series.denominator_exponent}\n"],
                args.out,
            )
    return EXIT_OK


def _cmd_gen(args) -> int:
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


def _cmd_batch(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise ValidationError(f"not a directory: {args.dir}")
    cap = complexes._effective_max_faces(args.max_faces)  # checked also when no file is read
    all_ok, results = True, {}
    for path in sorted(root.glob("*.cplx")):
        try:
            cx = parse_cplx(_read_text(path), max_faces=cap)
        except (ParseError, ResourceLimitError) as exc:
            raise type(exc)(f"{path.name}: {exc}") from exc
        reports = relations.verify_all(cx)
        results[path.name] = reports
        all_ok = all_ok and all(r.holds for r in reports)
    if args.json:
        data = {
            name: [rep.to_json_dict() for rep in reps]
            for name, reps in results.items()
        }
        _print_json(data, args.out)
    else:
        lines = []
        for name, reps in results.items():
            for rep in reps:
                status = "skip" if rep.skipped else ("ok" if rep.holds else "FAIL")
                lines.append(f"{name}\t{rep.relation}\t{status}")
        checked = sum(1 for reps in results.values() for r in reps if not r.skipped)
        failed = sum(1 for reps in results.values() for r in reps if not r.holds)
        lines.append(f"# {len(results)} files, {checked} relations checked, {failed} failed")
        _emit(("\n".join(lines), "\n"), args.out)
    return EXIT_OK if all_ok else EXIT_FAILED


_COMMANDS = {
    "f-vector": _cmd_vectors,
    "h-vector": _cmd_vectors,
    "multiplicities": _cmd_multiplicities,
    "interior": _cmd_interior,
    "classify": _cmd_classify,
    "betti": _cmd_betti,
    "verify": _cmd_verify,
    "flag": _cmd_flag,
    "hilbert": _cmd_hilbert,
    "gen": _cmd_gen,
    "batch": _cmd_batch,
}


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"dskit: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, DomainError, ResourceLimitError) as exc:
        print(f"dskit: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValidationError as exc:
        print(f"dskit: {exc}", file=sys.stderr)
        return EXIT_USAGE
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

"""dskit benchmark: seeded workloads, independent oracles, an optional trace.

Run from the root of a checkout (the directory that holds src/dskit):

    python3 perfbench/run.py --workload homology --seed 1 --seconds 20 --trace 0

Without --workload it runs balanced-ds, homology and random-batch one after
the other. Each workload runs in its own fresh `python3 -I` interpreter
(perfbench/child.py) that imports dskit from ./src and nothing else. This
process never imports dskit: it checks every op's output with
perfbench/oracle.py and prints one metric per line with its unit, a
provenance line, and as its last line one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 reports the per-layer metrics: spans that perfbench/tracer.py
installs around dskit's functions from outside, work counts computed from
the inputs, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FIELDS = {"balanced-ds": [], "homology": ["q", "2"], "random-batch": ["2"]}
RUN_LIMIT_S = 170
MAX_SHOWN = 5


class BenchError(Exception):
    """The benchmark could not run; the message says why."""


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "dskit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _per_layer(rounds: list[dict], record: dict) -> dict[str, float]:
    """Median over the traced rounds of each span metric."""
    def one(trace: dict) -> dict[str, float]:
        s, self_s, calls, edges = trace["s"], trace["self_s"], trace["calls"], trace["edges"]
        out = {
            "homology.rank_q.s": s.get("homology.rank_rational", 0.0),
            "homology.rank_gf.s": s.get("homology.rank_mod", 0.0),
            "homology.rank.calls": calls.get("homology.rank_rational", 0)
            + calls.get("homology.rank_mod", 0),
            "homology.boundary_matrix.s": s.get("homology.boundary_matrix", 0.0),
        }
        for name in ("homology.reduced_betti", "homology.is_homology_manifold",
                     "homology.boundary_faces_homological", "complexes.parse_cplx",
                     "balanced.flag_h", "balanced.verify_balanced_ds",
                     "balanced.verify_flag_fh_tilde", "balanced.verify_flag_reciprocity",
                     "balanced.verify_balanced_semi_eulerian",
                     "stanley_reisner.verify_sr_reciprocity",
                     "stanley_reisner.verify_sr_reciprocity_colored",
                     "relations.verify_all", "relations.classify", "cli.main"):
            out[name + ".self_s"] = self_s.get(name, 0.0)
        for name in ("complexes.link_mask", "complexes.from_facets", "enumeration.multiplicities",
                     "balanced.flag_f", "balanced.flag_h_from_expansion",
                     "stanley_reisner.hilbert_series", "stanley_reisner.hilbert_series_colored",
                     "relations.verify_fh_tilde", "relations.verify_reciprocity",
                     "relations.verify_ds_f", "relations.verify_ds_f_inverse",
                     "relations.verify_ds_h", "relations.verify_semi_eulerian_h",
                     "relations.verify_macdonald", "poly.delta_expand", "poly.mdelta_expand"):
            out[name + ".s"] = s.get(name, 0.0)
        for name in ("complexes.link_mask", "enumeration.multiplicities", "balanced.flag_h",
                     "poly.delta_expand", "poly.mdelta_expand"):
            out[name + ".calls"] = calls.get(name, 0)
        lookups = calls.get("homology._link_betti", 0)
        misses = edges.get("homology._link_betti>complexes.link_mask", 0)
        out["homology.link_cache_hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
        return out

    per_round = [one(r["trace"]) for r in rounds]
    merged = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    setup = record["trace_setup"]["s"]
    for name in ("cross_polytope_boundary", "barycentric_subdivision", "random_complex"):
        merged[f"generators.{name}.s"] = setup.get(f"generators.{name}", 0.0)
    return merged


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("output_bytes"):
        return "bytes"
    return "count"


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    src = root / "src"
    started = monotonic()
    work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        argv = [sys.executable, "-I", str(HERE / "child.py"), "--src", str(src),
                "--work", str(work), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        try:
            child = subprocess.run(argv, capture_output=True, text=True,
                                   timeout=max(1.0, RUN_LIMIT_S - (monotonic() - started)))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: the workload did not finish within {RUN_LIMIT_S} s")
        if child.returncode != 0:
            raise BenchError(f"{workload}: the workload process failed:\n{child.stderr}")
        record = json.loads((work / "record.json").read_text(encoding="utf-8"))
        manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
        return _evaluate(work, workload, trace, record, manifest)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


def _evaluate(work: Path, workload: str, trace: int, record: dict, manifest: dict) -> dict:
    ops = [tuple(op) for op in record["ops"]]
    orc = oracle.Oracle(work, manifest)
    problems: dict[str, list[str]] = {}
    with (work / "outputs.jsonl").open(encoding="utf-8") as fh:
        for (name, key), line in zip(ops, fh):
            found = orc.check(name, key, json.loads(line))
            if found:
                problems[name] = found
    general = orc.cross_field()
    if len(set(record["input_digests"])) != 1:
        general.append("generated inputs differ between set-up repetitions")
    attempts = dict(zip((name for name, _ in ops), record["attempts"]))
    failed = sum(attempts[name] for name in problems)
    failed += sum(1 for name in record["mismatches"] if name not in problems)
    for name in record["mismatches"]:
        problems.setdefault(name, []).append("output differs from the op's first output")
    attempted = sum(attempts.values())
    wall = sum(record["op_s"])
    raw = {"wall_s": _metric(wall, "s"), "setup_s": _metric(record["setup_s"], "s"),
           "reference_loop_ms": _metric(1000 * record["reference_s"], "ms")}
    largest = None
    if trace:
        traced = record["traced_rounds"]
        metrics = {k: _metric(v, _unit(k)) for k, v in _per_layer(traced, record).items()}
        counts = orc.counts(ops)
        metrics.update({k: _metric(v, "count") for k, v in counts.items()})
        metrics.update({k: _metric(v, _unit(k)) for k, v in _output_counts(work, ops).items()})
        self_s = traced[-1]["trace"]["self_s"]
        top = sorted(self_s, key=self_s.get, reverse=True)[:3]
        largest = ", ".join(f"{k} {self_s[k]:.3g} s" for k in top)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_ratio"] = _metric(traced_wall / wall - 1, "ratio")
    else:
        # a verdict: everything the workload asks about one complex
        per_complex: dict[str, float] = {}
        for (_, key), t in zip(ops, record["op_nominal_s"]):
            per_complex[key] = per_complex.get(key, 0.0) + t
        verdict_ms = sorted(1000 * t for t in per_complex.values())
        metrics = {
            "nominal_wall_s": _metric(sum(record["op_nominal_s"]), "s"),
            "nominal_verdict_p50_ms": _metric(statistics.median(verdict_ms), "ms"),
            # inclusive: with 6 or 12 complexes the default method would
            # extrapolate past the slowest one
            "nominal_verdict_p90_ms": _metric(
                statistics.quantiles(verdict_ms, n=10, method="inclusive")[8], "ms"),
            "peak_rss_mb": _metric(record["peak_rss_kb"] / 1024, "MB"),
            "setup_s": _metric(record["setup_nominal_s"], "s"),
        }
    census = _census(orc, manifest, workload)
    return {
        "workload": workload,
        "correct": failed == 0 and not general,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "raw": raw,
        "problems": {**problems, **({"workload": general} if general else {})},
        "census": census,
        "largest_self_time": largest,
        "traced_rounds": len(record.get("traced_rounds", [])),
        "wrapped": record.get("wrapped"),
        "ops": len(ops),
    }


def _output_counts(work: Path, ops: list[tuple[str, str]]) -> dict[str, int]:
    """Skipped relation reports and CLI output bytes of one round."""
    skipped = output_bytes = 0
    with (work / "outputs.jsonl").open(encoding="utf-8") as fh:
        for (name, _), line in zip(ops, fh):
            out = json.loads(line)
            parts = list(out.values()) if name.endswith(".verdict") else [out]
            for part in parts:
                reports = part if name.endswith(".verify_all") else None
                if isinstance(part, dict) and "stdout" in part:
                    output_bytes += len(part["stdout"].encode())
                    data = json.loads(part["stdout"])
                    reports = data if isinstance(data, list) else None
                skipped += sum(1 for r in reports or () if r["skipped"])
    return {"relations.skipped": skipped, "cli.output_bytes": output_bytes}


def _census(orc: oracle.Oracle, manifest: dict, workload: str) -> dict:
    keys = list(manifest)
    cxs = [orc.cx(k) for k in keys]
    share = lambda flags: round(sum(flags) / len(keys), 4)
    return {
        "complexes": len(keys),
        "faces": sum(len(cx.faces) for cx in cxs),
        "non_pure_share": share(not cx.is_pure() for cx in cxs),
        "wide_id_share": share(bool(manifest[k].get("wide")) for k in keys),
        "non_manifold_share_gf2": share(orc.search(k, 2)[0] is not None for k in keys),
        "fields": FIELDS[workload],
        "why": WORKLOADS[workload],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="one workload; all three when omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time of one workload run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dskit" / "__init__.py").is_file():
        print("perfbench: run from the root of a dskit checkout (no src/dskit here)",
              file=sys.stderr)
        return 2
    provenance = {
        "commit": _commit(root),
        "src_sha256": _src_digest(root / "src"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    try:
        for name in names:
            results.append(run_workload(root, name, args.seed, args.seconds, args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for res in results:
        fails = res["failed"]
        print(f"# {res['workload']}: {res['ops']} ops, {res['attempted']} op runs"
              + (f", {res['traced_rounds']} traced rounds, {res['wrapped']} functions wrapped"
                 if args.trace else ""))
        for name, m in res["metrics"].items():
            print(f"{res['workload']}.{name} = {m['value']:.6g} {m['unit']}")
        for name, m in res["raw"].items():
            print(f"{res['workload']}.{name} = {m['value']:.6g} {m['unit']} (raw, not rescaled)")
        if res["largest_self_time"]:
            print(f"# {res['workload']} largest self time: {res['largest_self_time']}")
        print(f"{res['workload']}.fail_ratio = {fails / res['attempted']:.6g} "
              f"({fails} of {res['attempted']} ops)")
        for op, found in list(res["problems"].items())[:MAX_SHOWN]:
            for p in found[:MAX_SHOWN]:
                print(f"  FAIL {op}: {p}")
        print(json.dumps({"provenance": provenance, "workload": res["workload"],
                          "census": res["census"]}, sort_keys=True))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

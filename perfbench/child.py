"""One workload in a fresh single-threaded interpreter.

run.py starts this file with `python3 -I` and reads back the JSON record it
writes. It imports dskit from the given src directory and generates the
inputs SETUP_REPS times (set-up time). It runs one round of the workload's
ops, then keeps cycling through the ops until the measuring time is spent;
each op reports the median of its samples. Every output is rendered and
hashed after the op's clock stops: the first round's outputs go to a file
for the oracles in run.py, and every later output must hash the same. With
--trace 1 the first round is followed by whole rounds with tracer spans
installed, for the rest of the measuring time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SETUP_REPS = 5
IMPORT_PROBES = 9
PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
         "import dskit, dskit.cli; print(time.perf_counter() - t)")

# On a shared host the CPU speed swings by up to 1.8x for seconds to
# minutes at a time. A fixed reference loop runs at least every REF_EVERY_S,
# and each phase (set-up, then measuring) is rescaled to nominal speed by
# (REF_NOMINAL_S / r) ** REF_EXPONENT, where r is the phase's median
# reference time. The library's times swing less than the loop's: over
# three batches of ten seeds per workload (68 runs), exponents 0.5, 0.75
# and 1 left worst spreads of 15%, 20% and 22%, and no rescaling 27%.
REF_NOMINAL_S = 0.003
REF_EXPONENT = 0.5
REF_EVERY_S = 0.2
# 16 facets of 6 vertices out of 24, one fixed draw
REF_FACETS = tuple(sum(1 << v for v in random.Random(k).sample(range(24), 6)) for k in range(16))


def _reference_loop() -> int:
    """Closure, superset sweep and JSON text of a fixed complex: the library's
    kind of work (int masks, sets, dicts, strings) in code it does not share."""
    faces = {0}
    for g in REF_FACETS:
        sub = g
        while sub:
            faces.add(sub)
            sub = (sub - 1) & g
    m = dict.fromkeys(faces, 0)
    for g in faces:
        s = -1 if g.bit_count() % 2 else 1
        sub = g
        while True:
            m[sub] += s
            if not sub:
                break
            sub = (sub - 1) & g
    return len(json.dumps(sorted(m.items())))


class Speed:
    """Reference-loop times along the run, for rescaling to nominal speed."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (midpoint, seconds)

    def probe(self, force: bool = False) -> None:
        if force or not self.marks or perf_counter() - self.marks[-1][0] >= REF_EVERY_S:
            t0 = perf_counter()
            _reference_loop()
            dt = perf_counter() - t0
            self.marks.append((t0 + dt / 2, dt))

    def scale(self, since: int = 0) -> float:
        """Nominal over measured speed, from the probes since mark `since`."""
        return (REF_NOMINAL_S / statistics.median(r for _, r in self.marks[since:])) ** REF_EXPONENT

    def timed(self, fn):
        """(result, raw seconds) of fn(), with a probe on each side."""
        self.probe()
        t0 = perf_counter()
        value = fn()
        dt = perf_counter() - t0
        self.probe()
        return value, dt


def _digest(texts: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(texts):
        h.update(name.encode() + b"\0" + texts[name].encode() + b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import dskit
    import dskit.cli

    origin = Path(dskit.__file__).resolve()
    if src not in origin.parents:
        print(f"dskit imported from {origin}, not from {src}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer
    import workloads

    work = Path(args.work)
    record = {"input_digests": []}

    speed = Speed()

    def setup():
        inputs = workloads.make_inputs(dskit, args.workload, args.seed)
        for name, text in inputs.texts.items():
            (work / name).write_text(text, encoding="utf-8")
        return inputs

    def import_probe() -> float:
        out = subprocess.run([sys.executable, "-I", "-c", PROBE, str(src)],
                             capture_output=True, text=True, timeout=60, check=True)
        return float(out.stdout)

    # set-up: importing dskit in a fresh interpreter, then generating inputs
    imports = [speed.timed(import_probe)[0] for _ in range(IMPORT_PROBES)]
    gens = []
    for _ in range(SETUP_REPS):
        inputs, dt = speed.timed(setup)
        gens.append(dt)
        record["input_digests"].append(_digest(inputs.texts))
    record["setup_s"] = statistics.median(imports) + statistics.median(gens)
    record["setup_nominal_s"] = record["setup_s"] * speed.scale()
    measuring = len(speed.marks)
    (work / "manifest.json").write_text(json.dumps(inputs.manifest), encoding="utf-8")
    ops = workloads.make_ops(dskit, args.workload, inputs, work)
    record["ops"] = [[name, key] for name, key, _ in ops]

    samples = [[] for _ in ops]
    digests = [None] * len(ops)
    mismatches: list[str] = []

    def run_op(i: int, sink=None) -> float:
        name, _, fn = ops[i]
        gc.collect()
        try:
            value, dt = speed.timed(fn)
        except Exception as exc:  # a raising op is a failed op, not a failed run
            value, dt = {"exception": f"{type(exc).__name__}: {exc}"}, 0.0
        data = json.dumps(workloads.jsonable(dskit, value), sort_keys=True)
        digest = hashlib.sha256(data.encode()).hexdigest()
        if digests[i] is None:
            digests[i] = digest
        elif digest != digests[i]:
            mismatches.append(name)
        if sink:
            sink.write(data + "\n")
        return dt

    # the first round writes every output for the oracles in run.py
    start = perf_counter()
    with (work / "outputs.jsonl").open("w", encoding="utf-8") as sink:
        for i in range(len(ops)):
            samples[i].append(run_op(i, sink))
    i = 0
    while not args.trace and perf_counter() - start < args.seconds:
        samples[i].append(run_op(i))
        i = (i + 1) % len(ops)
    speed.probe(force=True)
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["op_s"] = [statistics.median(s) for s in samples]
    record["op_nominal_s"] = [t * speed.scale(measuring) for t in record["op_s"]]
    record["attempts"] = [len(s) for s in samples]
    record["reference_s"] = statistics.median(r for _, r in speed.marks[measuring:])
    if args.trace:
        spans = tracer.Tracer()
        record["wrapped"] = tracer.install(spans, dskit)
        record["input_digests"].append(_digest(setup().texts))
        record["trace_setup"] = spans.snapshot()
        record["traced_rounds"] = []
        while not record["traced_rounds"] or perf_counter() - start < args.seconds:
            spans.reset()
            wall = sum(run_op(i) for i in range(len(ops)))
            record["traced_rounds"].append({"wall_s": wall, "trace": spans.snapshot()})
        for n in range(len(ops)):
            record["attempts"][n] += len(record["traced_rounds"])
    record["mismatches"] = mismatches
    (work / "record.json").write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

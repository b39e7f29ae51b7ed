"""Seeded inputs and the op lists of the three workloads.

Runs inside the workload's own interpreter, next to the dskit under test.
Inputs are built with dskit's generators, then written out as .cplx and
.colors text: every op starts from that text, as a command-line run would.
The seed shuffles the facet lines of every input; the complexes themselves
are fixed. The generated ones keep the generators' vertex ids: the dense
eliminations' fill depends on the vertex order, and a relabelling moved
single homology ops by up to half their time, which would drown the bounds.

Each op is a (name, complex key, callable) triple; the callable returns a
JSON-ready value that the parent process checks against its own oracles.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

WORKLOADS = {
    "balanced-ds": (
        "dense pure Eulerian balanced spheres through the whole library suite: "
        "the 2^|G| superset sweep, the flag-lattice loops and the runtime "
        "expansion cross-check do the work, homology is never called"
    ),
    "homology": (
        "CLI betti and classify over q and 2: one large rank per dimension "
        "against thousands of tiny link ranks, Bareiss growth over Q, and "
        "non-manifolds that stop at their first witness"
    ),
    "random-batch": (
        "240 sparse, mostly non-pure random complexes through CLI verify and "
        "classify: per-call overhead, parse/closure, JSON output and "
        "fail-fast classification dominate; one file in eight has wide ids"
    ),
}

# random-batch: 6 cells of (n, density), 40 complexes each; one complex in
# WIDE_EVERY of every cell gets its ids scattered over 1..WIDE_IDS
BATCH_CELLS = ((12, 0.5), (12, 1.0), (30, 0.5), (30, 1.0), (60, 0.5), (60, 1.0))
BATCH_PER_CELL = 40
WIDE_EVERY = 8
WIDE_IDS = 10_000
# The random complexes are one fixed draw. Drawn from --seed, their cost
# spread made the seed, not the code, decide the metrics: over five seeds
# random-batch's wall time spread by 21% and p90 by 34%, and homology's
# op-time median by 41%. A complex's cost hangs on how many links
# classify builds before its first witness, which no cheap size measure
# predicts.
RANDOM_CORPUS_SEED = 20211024


class Inputs:
    """Input texts of one workload and the facts the oracles need."""

    def __init__(self):
        self.texts: dict[str, str] = {}  # file name -> text
        self.manifest: dict[str, dict] = {}  # complex key -> description

    def add(self, key: str, facets, rng: random.Random, kind: dict,
            kappa: dict | None = None, relabel: dict | None = None) -> None:
        lines = [" ".join(str(relabel[v] if relabel else v) for v in f) for f in facets]
        rng.shuffle(lines)
        self.texts[key + ".cplx"] = "\n".join(lines) + "\n"
        if kappa is not None:
            self.texts[key + ".colors"] = "".join(f"{v} {kappa[v]}\n" for v in sorted(kappa))
        self.manifest[key] = kind


def _add_generated(inputs: Inputs, key: str, made, rng: random.Random, kind: dict) -> None:
    kappa = dict(made.coloring.kappa) if made.coloring is not None else None
    inputs.add(key, made.complex.facets, rng, kind, kappa)


def _spheres(dskit, names) -> dict:
    """The balanced spheres by name, with the oracle's description."""
    g = dskit.generators
    cp = lambda d: (lambda: g.cross_polytope_boundary(d), {"sphere": "cp", "d": d})
    table = {
        "cp6": cp(6),
        "cp7": cp(7),
        "cp8": cp(8),
        "cp9": cp(9),
        "sd_d4": (lambda: g.barycentric_subdivision(g.simplex_boundary(4).complex),
                  {"sphere": "sd", "base": {"sphere": "simplex", "d": 4}}),
        "sd_d5": (lambda: g.barycentric_subdivision(g.simplex_boundary(5).complex),
                  {"sphere": "sd", "base": {"sphere": "simplex", "d": 5}}),
        "sd_cp4": (lambda: g.barycentric_subdivision(g.cross_polytope_boundary(4).complex),
                   {"sphere": "sd", "base": {"sphere": "cp", "d": 4}}),
        "sdsd_cp3": (lambda: g.barycentric_subdivision(
                         g.barycentric_subdivision(g.cross_polytope_boundary(3).complex).complex),
                     {"sphere": "sd", "base": {"sphere": "sd", "base": {"sphere": "cp", "d": 3}}}),
    }
    return {name: table[name] for name in names}


def make_inputs(dskit, workload: str, seed: int) -> Inputs:
    rng = random.Random(f"{workload}:{seed}")
    inputs = Inputs()
    g = dskit.generators
    if workload == "balanced-ds":
        for key, (build, kind) in _spheres(dskit, ("cp7", "cp8", "sd_cp4", "sd_d5", "sdsd_cp3", "cp9")).items():
            _add_generated(inputs, key, build(), rng, kind)
    elif workload == "homology":
        for key, (build, kind) in _spheres(dskit, ("cp6", "cp7", "sd_d4", "sd_cp4", "sdsd_cp3")).items():
            _add_generated(inputs, key, build(), rng, kind)
        _add_generated(inputs, "cylinder", g.cylinder(), rng, {"known": "cylinder"})
        _add_generated(inputs, "double_banana", g.double_banana(), rng,
                       {"known": "double_banana", "gluing": [1, 2]})
        _add_generated(inputs, "double_banana_minus_triangle", g.double_banana_minus_triangle(), rng,
                       {"known": "double_banana_minus_triangle", "gluing": [1, 2]})
        corpus = random.Random(RANDOM_CORPUS_SEED)
        for i in range(4):
            made = g.random_complex(corpus.randrange(1 << 31), 30, 0.5)
            inputs.add(f"random{i}", made.complex.facets, rng, {"random": True})
    elif workload == "random-batch":
        corpus = random.Random(RANDOM_CORPUS_SEED)
        for n, density in BATCH_CELLS:
            for i in range(BATCH_PER_CELL):
                made = g.random_complex(corpus.randrange(1 << 31), n, density)
                relabel = None
                if i % WIDE_EVERY == 0:
                    relabel = dict(zip(range(1, n + 1), corpus.sample(range(1, WIDE_IDS + 1), n)))
                inputs.add(f"n{n}_d{density}_{i:02d}", made.complex.facets, rng,
                           {"random": True, "wide": relabel is not None}, relabel=relabel)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


# -- ops ------------------------------------------------------------------


def _cli(dskit, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dskit.cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _library_ops(dskit, key: str, text: str, colors: str) -> list:
    """The full library suite on one balanced sphere, parse first.

    Ops return the library's own result objects; jsonable() renders them
    after the clock has stopped.
    """
    state = {}

    def parse():
        cx = dskit.parse_cplx(text)
        col = dskit.validate_balanced(cx, dskit.complexes.parse_colors(colors))
        state["cx"], state["col"] = cx, col
        return {"f": dskit.f_vector(cx), "a": col.a}

    cx, col = lambda: state["cx"], lambda: state["col"]
    ops = [
        ("parse", parse),
        ("multiplicities", lambda: dskit.multiplicities(cx())),
        ("verify_all", lambda: dskit.verify_all(cx())),
        ("flag_f", lambda: dskit.flag_f(cx(), col())),
        ("flag_h", lambda: dskit.flag_h(cx(), col())),
        ("verify_flag_fh_tilde", lambda: dskit.verify_flag_fh_tilde(cx(), col())),
        ("verify_flag_reciprocity", lambda: dskit.verify_flag_reciprocity(cx(), col())),
        ("verify_balanced_ds", lambda: dskit.verify_balanced_ds(cx(), col())),
        ("verify_balanced_semi_eulerian", lambda: dskit.verify_balanced_semi_eulerian(cx(), col())),
        ("verify_sr_reciprocity", lambda: dskit.verify_sr_reciprocity(cx())),
        ("verify_sr_reciprocity_colored", lambda: dskit.verify_sr_reciprocity_colored(cx(), col())),
        ("hilbert_series_colored", lambda: dskit.hilbert_series_colored(cx(), col())),
    ]
    return [(f"{key}.{name}", key, fn) for name, fn in ops]


def jsonable(dskit, value):
    """A library result as plain JSON data; dict keys become [key, value] pairs."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if isinstance(value, dskit.MultiplicityTable):
        return [[list(face), m] for face, m in value.items()]
    if isinstance(value, dskit.RationalSeries):
        return {"numerator": [[list(e), c] for e, c in value.numerator.items_sorted()],
                "denominator_exponent": list(value.denominator_exponent)}
    if isinstance(value, dict) and value and isinstance(next(iter(value)), tuple):
        return [[list(k), jsonable(dskit, v)] for k, v in sorted(value.items())]
    if isinstance(value, dict):
        return {k: jsonable(dskit, v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(dskit, v) for v in value]
    return value


def make_ops(dskit, workload: str, inputs: Inputs, work: Path) -> list:
    path = lambda name: str(work / name)
    ops = []
    if workload == "balanced-ds":
        for key in ("cp7", "cp8", "sd_cp4", "sd_d5", "sdsd_cp3"):
            ops += _library_ops(dskit, key, inputs.texts[key + ".cplx"], inputs.texts[key + ".colors"])
        cplx, colors = path("cp9.cplx"), path("cp9.colors")
        for name, argv in (("verify", ["verify", cplx, "--json"]),
                           ("multiplicities", ["multiplicities", cplx, "--json"]),
                           ("flag", ["flag", cplx, "--colors", colors, "--json"])):
            ops.append((f"cp9.cli_{name}", "cp9", lambda argv=argv: _cli(dskit, argv)))
    elif workload == "homology":
        # Q ranks of cp7 (about 16 s) and sd_cp4 (about 12 s) stay out at
        # this commit: each alone would exceed a run
        plan = {
            "cp6": ("betti q", "classify q", "classify 2"),
            "cp7": ("betti 2", "classify 2"),
            "sd_d4": ("betti q", "classify q"),
            "sd_cp4": ("betti 2", "classify q"),
            "sdsd_cp3": ("betti 2", "classify q"),
        }
        small = ("betti q", "betti 2", "classify q", "classify 2")
        for key in ("cylinder", "double_banana", "double_banana_minus_triangle",
                    "random0", "random1", "random2", "random3"):
            plan[key] = small
        for key, cmds in plan.items():
            for cmd in cmds:
                command, fld = cmd.split()
                argv = [command, path(key + ".cplx"), "--field", fld, "--json"]
                ops.append((f"{key}.{command}_{fld}", key, lambda argv=argv: _cli(dskit, argv)))
    else:
        for name in inputs.manifest:
            cplx = path(name + ".cplx")

            def verdict(cplx=cplx):
                return {"verify": _cli(dskit, ["verify", cplx, "--json"]),
                        "classify": _cli(dskit, ["classify", cplx, "--field", "2", "--json"])}

            ops.append((f"{name}.verdict", name, verdict))
    return ops

"""Oracles that live outside the library, and the computed work counts.

This module never imports dskit. It reads the generated .cplx text itself,
closes it downward with its own code, and checks each op's output against
closed forms (cross-polytopes, barycentric subdivisions, hand-derived Betti
numbers), against its own multiplicity sweep and link homology, and against
identities such as Euler-Poincare. Faces are bit masks over the vertex ids
renumbered in increasing order, so ordering by (size, mask) is the order
dskit reports faces in, whatever the width of the ids.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

RELATIONS = ("fh-tilde", "reciprocity", "ds-f", "ds-f-inverse", "ds-h",
             "semi-eulerian-h", "macdonald")
NEEDS_RECIPROCAL = {"ds-f", "ds-f-inverse", "macdonald"}


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def _submasks(g: int):
    sub = g
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & g


class Cx:
    """A complex read from .cplx text, with its own closure."""

    def __init__(self, text: str):
        facets = [[int(t) for t in line.split()] for line in text.splitlines()
                  if line.strip() and not line.lstrip().startswith("#")]
        self.ids = sorted({v for f in facets for v in f})
        index = {v: i for i, v in enumerate(self.ids)}
        self.facets = {sum(1 << index[v] for v in f) for f in facets}
        faces = {0}
        for g in self.facets:
            faces.update(_submasks(g))
        self.faces = faces
        self.d = max(g.bit_count() for g in faces)
        self.by_card = [[] for _ in range(self.d + 1)]
        for g in faces:
            self.by_card[g.bit_count()].append(g)
        for group in self.by_card:
            group.sort()
        self.f = [len(group) for group in self.by_card]
        self._m = None

    def ids_of(self, mask: int) -> list[int]:
        return [v for i, v in enumerate(self.ids) if mask >> i & 1]

    def ordered(self):
        """Non-empty faces in dskit's report order: size, then mask."""
        for group in self.by_card[1:]:
            yield from group

    @property
    def chi_reduced(self) -> int:
        return sum(_sign(k - 1) * fk for k, fk in enumerate(self.f))

    @property
    def superset_terms(self) -> int:
        return sum(fk << k for k, fk in enumerate(self.f))

    @property
    def m(self) -> dict[int, int]:
        """m_F by this module's own superset sweep."""
        if self._m is None:
            m = dict.fromkeys(self.faces, 0)
            for g in self.faces:
                s = _sign(self.d - g.bit_count())
                for sub in _submasks(g):
                    m[sub] += s
            self._m = m
        return self._m

    def first(self, bad) -> int | None:
        return next((g for g in self.ordered() if bad(self.m[g])), None)

    def link(self, fmask: int) -> list[int]:
        return [g & ~fmask for g in self.faces if g & fmask == fmask]

    def is_pure(self) -> bool:
        return len({g.bit_count() for g in self.facets}) == 1


# -- homology of small face sets -------------------------------------------


def _rank(columns: list[dict[int, int]], p: int) -> int:
    """Rank of a sparse integer matrix over Q (p == 0) or GF(p)."""
    pivots: dict[int, dict] = {}
    one = Fraction(1) if p == 0 else 1
    for col in columns:
        col = {r: (one * v if p == 0 else v % p) for r, v in col.items()}
        col = {r: v for r, v in col.items() if v}
        while col:
            low = max(col)
            if low not in pivots:
                pivots[low] = col
                break
            piv = pivots[low]
            factor = col[low] / piv[low] if p == 0 else col[low] * pow(piv[low], p - 2, p) % p
            for r, v in piv.items():
                nv = col.get(r, 0) - factor * v
                if p:
                    nv %= p
                if nv:
                    col[r] = nv
                else:
                    col.pop(r, None)
    return len(pivots)


def reduced_betti(faces: list[int], p: int) -> list[int]:
    """Reduced Betti numbers b_-1..b_top of a downward-closed mask set."""
    top = max(g.bit_count() for g in faces)
    by_card = [sorted(g for g in faces if g.bit_count() == c) for c in range(top + 1)]
    ranks = [0] * (top + 2)
    for c in range(1, top + 1):
        index = {g: i for i, g in enumerate(by_card[c - 1])}
        columns = []
        for g in by_card[c]:
            col, pos, rest = {}, 0, g
            while rest:
                bit = rest & -rest
                col[index[g ^ bit]] = _sign(pos)
                pos += 1
                rest ^= bit
            columns.append(col)
        ranks[c] = _rank(columns, p)
    return [len(by_card[c]) - ranks[c] - ranks[c + 1] for c in range(top + 1)]


def _ball_or_sphere(betti: list[int], dim: int) -> bool:
    """betti[j] is b_(j-1): zero everywhere except 0 or 1 in dimension dim."""
    return all(b in (0, 1) if j - 1 == dim else b == 0 for j, b in enumerate(betti))


def manifold_search(cx: Cx, p: int) -> tuple[int | None, list[int]]:
    """(first face whose link is no ball or sphere, faces whose links it built).

    Without a witness the second item is every non-empty face, in order.
    """
    built = []
    for g in cx.ordered():
        built.append(g)
        if not _ball_or_sphere(reduced_betti(cx.link(g), p), cx.d - 1 - g.bit_count()):
            return g, built
    return None, built


# -- closed forms for the balanced spheres ---------------------------------


def _stirling2(n: int, k: int) -> int:
    return sum(_sign(k - j) * comb(k, j) * j ** n for j in range(k + 1)) // factorial(k)


def sphere_f(kind: dict) -> list[int]:
    """f-vector by cardinality, the empty face first."""
    if kind["sphere"] == "cp":
        return [comb(kind["d"], k) << k for k in range(kind["d"] + 1)]
    if kind["sphere"] == "simplex":
        return [comb(kind["d"] + 1, k) for k in range(kind["d"] + 1)]
    base = sphere_f(kind["base"])  # sd: chains of non-empty faces
    d = len(base) - 1
    return [1] + [sum(base[j] * factorial(k) * _stirling2(j, k) for j in range(k, d + 1))
                  for k in range(1, d + 1)]


def sphere_flag_f(kind: dict) -> dict[tuple, int]:
    """Flag f-numbers for type (1,...,1) under the generator's coloring."""
    if kind["sphere"] == "cp":
        d = kind["d"]
        return {b: 1 << sum(b) for b in _cube(d)}
    # barycentric subdivision colored by cardinality: chains with sizes S
    base = sphere_f(kind["base"])
    d = len(base) - 1
    out = {}
    for b in _cube(d):
        sizes = [i + 1 for i in range(d) if b[i]]
        if not sizes:
            out[b] = 1
            continue
        steps = [y - x for x, y in zip([0] + sizes, sizes)]
        out[b] = base[sizes[-1]] * factorial(sizes[-1]) // prod(factorial(s) for s in steps)
    return out


def _cube(d: int) -> list[tuple]:
    return [tuple((i >> j) & 1 for j in reversed(range(d))) for i in range(1 << d)]


def flag_h_of(flag_f: dict[tuple, int]) -> dict[tuple, int]:
    """Inclusion-exclusion over the 0/1 cube."""
    out = {}
    for b in flag_f:
        ones = [i for i, x in enumerate(b) if x]
        total = 0
        for r in range(len(ones) + 1):
            for drop in combinations(ones, r):
                c = list(b)
                for i in drop:
                    c[i] = 0
                total += _sign(r) * flag_f[tuple(c)]
        out[b] = total
    return out


def h_of(f: list[int]) -> list[int]:
    d = len(f) - 1
    return [sum(_sign(k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
            for k in range(d + 1)]


# -- checks ------------------------------------------------------------------


class Check:
    """Collects the reasons an op's output is wrong."""

    def __init__(self):
        self.problems: list[str] = []

    def eq(self, what: str, got, want) -> None:
        if got != want:
            self.problems.append(f"{what}: got {str(got)[:120]}, want {str(want)[:120]}")

    def true(self, what: str, cond: bool) -> None:
        if not cond:
            self.problems.append(what)


class Oracle:
    """Expected outputs of one workload, from its input files."""

    def __init__(self, work, manifest: dict):
        self.work = work
        self.manifest = manifest
        self._cx: dict[str, Cx] = {}
        self._search: dict[tuple[str, int], tuple] = {}
        self.betti: dict[tuple[str, int], list[int]] = {}

    def cx(self, key: str) -> Cx:
        if key not in self._cx:
            self._cx[key] = Cx((self.work / f"{key}.cplx").read_text(encoding="utf-8"))
        return self._cx[key]

    def kind(self, key: str) -> dict:
        return self.manifest[key]

    def search(self, key: str, p: int) -> tuple[int | None, list[int]]:
        if (key, p) not in self._search:
            cx, kind = self.cx(key), self.kind(key)
            if "sphere" in kind:  # links of PL-sphere faces are spheres
                self._search[key, p] = (None, list(cx.ordered()))
            else:
                self._search[key, p] = manifold_search(cx, p)
        return self._search[key, p]

    def flag_f(self, key: str) -> dict[tuple, int]:
        return sphere_flag_f(self.kind(key))

    # -- per op -----------------------------------------------------------

    def check(self, op: str, key: str, out) -> list[str]:
        c = Check()
        kind = op.rsplit(".", 1)[1]
        if isinstance(out, dict) and "exception" in out:
            return [f"raised {out['exception']}"]
        try:
            getattr(self, "_" + kind.replace("-", "_"))(c, key, out)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            c.problems.append(f"malformed output: {type(exc).__name__}: {exc}")
        return c.problems

    def _sphere_common(self, c: Check, key: str) -> Cx:
        cx = self.cx(key)
        c.eq("f-vector of the input against the closed form", cx.f, sphere_f(self.kind(key)))
        return cx

    def _parse(self, c, key, out):
        cx = self._sphere_common(c, key)
        c.eq("f", out["f"], cx.f)
        c.eq("a", out["a"], [1] * cx.d)

    def _multiplicities(self, c, key, out):
        cx = self.cx(key)
        c.eq("faces", [f for f, _ in out], [cx.ids_of(g) for group in cx.by_card for g in group])
        c.true("every m_F of a sphere is 1", all(m == 1 for _, m in out))

    def _reports(self, c, key, reports):
        cx = self.cx(key)
        m = cx.m if "sphere" not in self.kind(key) else dict.fromkeys(cx.faces, 1)
        reciprocal = all(m[g] in (0, 1) for g in cx.faces if g)
        semi = all(m[g] == 1 for g in cx.faces if g)
        c.eq("relations", [r["relation"] for r in reports], list(RELATIONS))
        mpoly = [0] * (cx.d + 1)
        for g, mg in m.items():
            mpoly[g.bit_count()] += mg
        h = h_of(cx.f)
        for r in reports:
            name = r["relation"]
            skip = (name in NEEDS_RECIPROCAL and not reciprocal) or (
                name == "semi-eulerian-h" and not semi)
            c.eq(f"{name} skipped", r["skipped"] is not None, skip)
            c.true(f"{name} holds", r["holds"] is True)
            c.true(f"{name} residuals are zero", all(x == "0" for x in r["residuals"]))
            ctx = r["context"]
            c.eq(f"{name} chi_reduced", ctx["chi_reduced"], str(cx.chi_reduced))
            c.eq(f"{name} m_empty", ctx["m_empty"], str(m[0]))
            if skip:
                continue
            if "h" in ctx:
                c.eq(f"{name} h", ctx["h"], [str(x) for x in h])
            rhs = {"fh-tilde": cx.f, "reciprocity": mpoly,
                   "ds-h": [x - y for x, y in zip(mpoly, cx.f)]}.get(name)
            if rhs is not None:
                c.eq(f"{name} rhs", ctx["rhs"], [str(x) for x in rhs])
                c.eq(f"{name} lhs", ctx["lhs"], ctx["rhs"])
            if "f_int" in ctx:
                f_int = [sum(1 for g in cx.faces if g.bit_count() == k and m[g] == 1)
                         for k in range(1, cx.d + 1)]
                c.eq(f"{name} f_int", ctx["f_int"], [str(x) for x in f_int])

    def _verify_all(self, c, key, out):
        self._reports(c, key, out)

    def _flag_f(self, c, key, out):
        c.eq("flag f", {tuple(b): v for b, v in out}, self.flag_f(key))

    def _flag_h(self, c, key, out):
        c.eq("flag h", {tuple(b): v for b, v in out}, flag_h_of(self.flag_f(key)))

    def _balanced_report(self, c, key, out):
        c.true("not skipped", out["skipped"] is None)
        c.true("holds", out["holds"] is True)
        c.true("residuals are zero", all(x == "0" for x in out["residuals"]))
        c.eq("a", out["context"].get("a", ["1"] * self.cx(key).d), ["1"] * self.cx(key).d)

    _verify_flag_fh_tilde = _verify_flag_reciprocity = _balanced_report
    _verify_balanced_ds = _verify_balanced_semi_eulerian = _balanced_report
    _verify_sr_reciprocity = _verify_sr_reciprocity_colored = _balanced_report

    def _hilbert_series_colored(self, c, key, out):
        h = flag_h_of(self.flag_f(key))
        c.eq("numerator", {tuple(e): v for e, v in out["numerator"]},
             {b: v for b, v in h.items() if v})
        c.eq("denominator", out["denominator_exponent"], [1] * self.cx(key).d)

    # -- CLI ----------------------------------------------------------------

    def _cli(self, c, out) -> dict | list | None:
        c.eq("exit code", out["exit"], 0)
        c.eq("stderr", out["stderr"], "")
        try:
            return json.loads(out["stdout"])
        except ValueError:
            c.problems.append("stdout is not JSON")
            return None

    def _cli_verify(self, c, key, out):
        data = self._cli(c, out)
        if data is not None:
            self._reports(c, key, data)

    def _cli_multiplicities(self, c, key, out):
        data = self._cli(c, out)
        if data is None:
            return
        cx = self._sphere_common(c, key)
        c.eq("f", data["f"], [str(x) for x in cx.f])
        c.eq("h", data["h"], [str(x) for x in h_of(cx.f)])
        c.eq("chi_reduced", data["chi_reduced"], str(cx.chi_reduced))
        c.eq("chi", data["chi"], str(cx.chi_reduced + 1))
        self._multiplicities(c, key, [[e["face"], int(e["m"])] for e in data["m"]])

    def _cli_flag(self, c, key, out):
        data = self._cli(c, out)
        if data is None:
            return
        f = self.flag_f(key)
        h = flag_h_of(f)
        c.eq("a", data["a"], [1] * self.cx(key).d)
        c.eq("flags", {tuple(e["b"]): (int(e["f"]), int(e["h"])) for e in data["flags"]},
             {b: (f[b], h[b]) for b in f})

    def _betti(self, c, key, out, p):
        data = self._cli(c, out)
        if data is None:
            return
        cx, kind = self.cx(key), self.kind(key)
        c.eq("field", data["field"], "q" if p == 0 else str(p))
        c.eq("dims", [e["dim"] for e in data["betti"]], list(range(-1, cx.d)))
        b = [int(e["b"]) for e in data["betti"]]
        c.eq("Euler-Poincare", sum(_sign(i) * x for i, x in enumerate(b)), -cx.chi_reduced)
        want = None
        if "sphere" in kind:
            want = [int(i == cx.d) for i in range(cx.d + 1)]
        elif "known" in kind:
            want = {"cylinder": [0, 0, 1, 0], "double_banana": [0, 0, 1, 2],
                    "double_banana_minus_triangle": [0, 0, 1, 1]}[kind["known"]]
        if want is not None:
            c.eq("Betti numbers", b, want)
        self.betti[key, p] = b

    def _classify(self, c, key, out, p):
        data = self._cli(c, out)
        if data is None:
            return
        cx, kind = self.cx(key), self.kind(key)
        m = cx.m if "sphere" not in kind else dict.fromkeys(cx.faces, 1)
        rec_w = cx.first(lambda v: v not in (0, 1)) if "sphere" not in kind else None
        semi_w = cx.first(lambda v: v != 1) if "sphere" not in kind else None
        eulerian = semi_w is None and m[0] == 1
        c.eq("reciprocal", data["reciprocal"], rec_w is None)
        c.eq("semi_eulerian", data["semi_eulerian"], semi_w is None)
        c.eq("eulerian", data["eulerian"], eulerian)
        c.eq("field", data["field"], "q" if p == 0 else str(p))
        witness, _ = self.search(key, p)
        want_w = {}
        if rec_w is not None:
            want_w["reciprocal"] = cx.ids_of(rec_w)
        if semi_w is not None:
            want_w["semi_eulerian"] = cx.ids_of(semi_w)
        if not eulerian:
            want_w["eulerian"] = cx.ids_of(semi_w) if semi_w is not None else []
        if witness is not None:
            want_w["homology_manifold"] = cx.ids_of(witness)
        c.eq("witnesses", data["witnesses"], want_w)
        hom = data["homology"]
        c.eq("homology_manifold", data["homology_manifold"], witness is None)
        c.eq("homology.homology_manifold", hom["homology_manifold"], witness is None)
        c.eq("homology.witness", hom["witness"], None if witness is None else cx.ids_of(witness))
        if "gluing" in kind:
            c.true("witness is a gluing vertex", hom["witness"] is not None
                   and len(hom["witness"]) == 1 and hom["witness"][0] in kind["gluing"])
        if witness is not None:
            c.eq("boundary_faces", hom["boundary_faces"], None)
            return
        if "sphere" in kind:
            boundary = [0]
        else:
            boundary = [0]
            for g in cx.ordered():  # ball links: no homology in dimension d-1-|F|
                betti = reduced_betti(cx.link(g), p)
                if cx.d - g.bit_count() >= len(betti) or betti[cx.d - g.bit_count()] == 0:
                    boundary.append(g)
        c.eq("boundary_faces", hom["boundary_faces"], [cx.ids_of(g) for g in boundary])
        closed = set(boundary)
        c.eq("boundary_is_subcomplex", hom["boundary_is_subcomplex"],
             all(g & ~(1 << i) in closed for g in boundary
                 for i in range(g.bit_length()) if g >> i & 1))

    def _betti_q(self, c, key, out):
        self._betti(c, key, out, 0)

    def _betti_2(self, c, key, out):
        self._betti(c, key, out, 2)

    def _classify_q(self, c, key, out):
        self._classify(c, key, out, 0)

    def _classify_2(self, c, key, out):
        self._classify(c, key, out, 2)

    def _verdict(self, c, key, out):
        self._cli_verify(c, key, out["verify"])
        self._classify(c, key, out["classify"], 2)

    def cross_field(self) -> list[str]:
        """Universal coefficients: b_i over GF(2) is at least b_i over Q."""
        return [f"{key}: Betti over 2 {b2} below Q {self.betti[key, 0]}"
                for (key, p), b2 in self.betti.items()
                if p == 2 and (key, 0) in self.betti
                and any(x < y for x, y in zip(b2, self.betti[key, 0]))]

    # -- computed work counts ---------------------------------------------

    def counts(self, ops: list[tuple[str, str]]) -> dict[str, int]:
        """Work implied by one round's ops, derived from the inputs alone.

        complexes.faces: faces of each parsed input; superset_terms: one
        sum of 2^|G| per op that needs m_F; matrix_*: the boundary matrices
        of betti and of every link classify builds up to its first witness;
        faces_scanned: links built times the faces a whole-set scan reads;
        ds_scalar_terms: #b times #faces per balanced-ds verification.
        """
        n = dict.fromkeys(("complexes.faces", "enumeration.superset_terms",
                           "homology.matrix_nnz", "homology.matrix_cells",
                           "homology.matrix_max_dim", "complexes.link_mask.faces_scanned",
                           "balanced.ds_scalar_terms"), 0)

        def matrices(f: list[int]) -> None:
            for k in range(1, len(f)):
                n["homology.matrix_nnz"] += k * f[k]
                n["homology.matrix_cells"] += f[k] * f[k - 1]
                n["homology.matrix_max_dim"] = max(n["homology.matrix_max_dim"], f[k], f[k - 1])

        def classify(key: str, p: int) -> None:
            cx = self.cx(key)
            n["complexes.faces"] += len(cx.faces)
            n["enumeration.superset_terms"] += cx.superset_terms
            _, built = self.search(key, p)
            n["complexes.link_mask.faces_scanned"] += len(built) * len(cx.faces)
            for g in built:
                link_f = [0] * (cx.d + 1 - g.bit_count())
                for h in cx.link(g):
                    link_f[h.bit_count()] += 1
                while len(link_f) > 1 and not link_f[-1]:
                    link_f.pop()
                matrices(link_f)

        sweeps = {"multiplicities", "verify_all", "verify_flag_reciprocity", "verify_balanced_ds",
                  "verify_balanced_semi_eulerian", "verify_sr_reciprocity",
                  "verify_sr_reciprocity_colored", "cli_verify", "cli_multiplicities"}
        for op, key in ops:
            kind = op.rsplit(".", 1)[1]
            cx = self.cx(key)
            if kind in ("parse", "cli_verify", "cli_multiplicities", "cli_flag") \
                    or kind.startswith("betti"):
                n["complexes.faces"] += len(cx.faces)
            if kind in sweeps:
                n["enumeration.superset_terms"] += cx.superset_terms
            if kind == "verify_balanced_ds":
                n["balanced.ds_scalar_terms"] += (1 << cx.d) * len(cx.faces)
            if kind.startswith("betti"):
                matrices(cx.f)
            if kind.startswith("classify"):
                classify(key, 0 if kind.endswith("q") else 2)
            if kind == "verdict":
                n["complexes.faces"] += len(cx.faces)
                n["enumeration.superset_terms"] += cx.superset_terms
                classify(key, 2)
        return n

"""Outside-in spans around dskit, installed by the benchmark.

Every public function of every dskit module is wrapped in each dskit
namespace that holds a reference to it, and so are Complex.link_mask and
Complex.from_facets. The library itself is not edited. A span's self time
is its duration minus the durations of the wrapped calls it makes. Its
inclusive time counts only the outermost of nested spans with one name, so
the module-level from_facets alias and the classmethod it calls are not
counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter_ns

# Per-element helpers, called once per face or per lattice point, are not
# layer boundaries: a wrapper there would charge its own cost to the layer
# that calls them, so their time stays in the caller's self time.
PER_ELEMENT = frozenset({
    "complexes.face_mask",
    "complexes.mask_vertices",
    "balanced.b_of",
    "poly.mcomb",
    "poly.exponents_below",
})
# The link-Betti cache lookup is private; it is wrapped to count hits.
PRIVATE = frozenset({"homology._link_betti"})


class Tracer:
    """Per-name call counts, inclusive and self nanoseconds, parent edges."""

    def __init__(self):
        self._stack: list[list] = []  # [name, child_ns] per open span
        self._depth: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.edges: dict[tuple[str, str], int] = {}

    def reset(self) -> None:
        for table in (self.calls, self.total_ns, self.self_ns, self.edges):
            table.clear()

    def wrap(self, name: str, fn):
        stack, depth = self._stack, self._depth
        calls, total_ns, self_ns, edges = self.calls, self.total_ns, self.self_ns, self.edges

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                depth[name] -= 1
                calls[name] = calls.get(name, 0) + 1
                self_ns[name] = self_ns.get(name, 0) + dt - frame[1]
                if depth[name] == 0:
                    total_ns[name] = total_ns.get(name, 0) + dt
                if parent is not None:
                    parent[1] += dt
                    key = (parent[0], name)
                    edges[key] = edges.get(key, 0) + 1

        return span

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "s": {k: v / 1e9 for k, v in self.total_ns.items()},
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "edges": {f"{p}>{c}": n for (p, c), n in self.edges.items()},
        }


def install(tracer: Tracer, package) -> int:
    """Wrap the package's functions in place; returns how many were wrapped."""
    prefix = package.__name__ + "."
    modules = [m for name, m in sorted(sys.modules.items())
               if m is package or name.startswith(prefix)]
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            if name in PER_ELEMENT or (attr.startswith("_") and name not in PRIVATE):
                continue
            wrappers[obj] = tracer.wrap(name, obj)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    cx = package.complexes.Complex
    cx.link_mask = tracer.wrap("complexes.link_mask", cx.__dict__["link_mask"])
    cx.from_facets = classmethod(
        tracer.wrap("complexes.from_facets", cx.__dict__["from_facets"].__func__)
    )
    return len(wrappers) + 2

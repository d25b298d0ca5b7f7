"""Span tracing of the vknots layers from outside the package.

``Tracer.install`` replaces every public function of the layer modules,
wherever its name is bound inside the ``vknots`` package, with a wrapper
that records a span (name, start, end, parent span, request id).  Nothing
in the package changes; ``uninstall`` puts the original functions back.
A few wrappers also count work at the boundary (colorings returned,
assignments scanned, sites found, keys already seen).

Spans stay in memory; ``summary`` turns them into per-function self
times, where a span's self time is its duration minus the durations of
its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYER_MODULES = ("algebra", "cli", "diagram", "intlin", "invariants", "moves", "solver", "weights")

FIND_SITES = (
    "moves.find_r1_sites",
    "moves.find_r2_sites",
    "moves.find_r3_sites",
    "moves.find_vkink_sites",
    "moves.find_poke_remove_sites",
    "moves.find_virtual_slide_sites",
    "moves.find_semi_virtual_slide_sites",
)


def _count_enumerate(tracer, args, result):
    d, q, f = args["d"], args["q"], args["f"]
    tracer.see("solver.enumerate_colorings", (d, q.table, f.images))
    tracer.counts["solver.enumerate_colorings.colorings"] += len(result)


def _count_brute_force(tracer, args, result):
    tracer.counts["solver.brute_force_colorings.assignments"] += args["q"].order ** args["d"].edges


def _count_automorphisms(tracer, args, result):
    tracer.see("algebra.automorphisms", (args["q"].table, args["bound"]))


def _count_sites(tracer, args, result):
    tracer.counts["moves.find_sites.scans"] += 1
    if result:
        tracer.counts["moves.find_sites.found"] += 1


def _count_applied(tracer, args, result):
    tracer.counts["moves.applied"] += 1


HOOKS = {
    "solver.enumerate_colorings": _count_enumerate,
    "solver.brute_force_colorings": _count_brute_force,
    "algebra.automorphisms": _count_automorphisms,
    "moves.apply_move": _count_applied,
    **{name: _count_sites for name in FIND_SITES},
}


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: Counter = Counter()
        self.request = -1  # -1 while the inputs are generated
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}
        self._restore: list[tuple[object, str, object]] = []

    def see(self, name: str, key) -> None:
        """Count a call whose key was already seen by the same function."""
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self.counts[name + ".repeats"] += 1
        else:
            seen.add(key)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules, in every binding."""
        import vknots

        replace = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"vknots.{short}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ == module.__name__:
                    replace[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        namespaces = [vknots] + [
            m for n, m in sys.modules.items() if n.startswith("vknots.") and m is not None
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-function self time, total time and calls, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        functions: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = functions.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            row["self_s"] += end - start - child[i]
            row["total_s"] += end - start
            row["calls"] += 1
        return {"functions": functions, "counts": dict(self.counts)}


def merge_summaries(summaries) -> dict:
    """Sum summaries taken in separate processes."""
    functions: dict[str, dict] = {}
    counts: Counter = Counter()
    for s in summaries:
        for name, row in s["functions"].items():
            acc = functions.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            for k in acc:
                acc[k] += row[k]
        counts.update(s["counts"])
    return {"functions": functions, "counts": dict(counts)}


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, as {name: (value, unit)}."""
    fns, counts = summary["functions"], summary["counts"]

    def self_s(*names):
        return sum(fns.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(*names):
        return sum(fns.get(n, {}).get("calls", 0) for n in names)

    def share(part, whole):
        return part / whole if whole else 0.0

    invariants = [n for n in fns if n.startswith("invariants.")]
    enum_calls = calls("solver.enumerate_colorings")
    aut_calls = calls("algebra.automorphisms")
    return {
        "solver.enumerate_colorings.s": (self_s("solver.enumerate_colorings"), "s"),
        "solver.enumerate_colorings.calls": (enum_calls, "count"),
        "solver.enumerate_colorings.repeat_share": (
            share(counts.get("solver.enumerate_colorings.repeats", 0), enum_calls), "ratio"),
        "solver.enumerate_colorings.colorings": (
            counts.get("solver.enumerate_colorings.colorings", 0), "count"),
        "solver.brute_force_colorings.s": (self_s("solver.brute_force_colorings"), "s"),
        "solver.brute_force_colorings.assignments": (
            counts.get("solver.brute_force_colorings.assignments", 0), "count"),
        "moves.find_sites.s": (self_s(*FIND_SITES), "s"),
        "moves.find_sites.calls": (calls(*FIND_SITES), "count"),
        "moves.find_sites.yield": (
            share(counts.get("moves.find_sites.found", 0), counts.get("moves.find_sites.scans", 0)),
            "ratio"),
        "moves.apply_move.s": (self_s("moves.apply_move"), "s"),
        "moves.applied": (counts.get("moves.applied", 0), "count"),
        "diagram.relabel_canonical.s": (self_s("diagram.relabel_canonical"), "s"),
        "diagram.relabel_canonical.calls": (calls("diagram.relabel_canonical"), "count"),
        "invariants.self_s": (self_s(*invariants), "s"),
        "algebra.automorphisms.s": (self_s("algebra.automorphisms"), "s"),
        "algebra.automorphisms.calls": (aut_calls, "count"),
        "algebra.automorphisms.repeat_share": (
            share(counts.get("algebra.automorphisms.repeats", 0), aut_calls), "ratio"),
        "algebra.validate_quandle.s": (self_s("algebra.validate_quandle"), "s"),
        "weights.validate_cocycle.s": (self_s("weights.validate_cocycle"), "s"),
        "weights.preservation_witness.s": (self_s("weights.preservation_witness"), "s"),
        "weights.cocycle_space_basis.s": (self_s("weights.cocycle_space_basis"), "s"),
        "intlin.kernel_mod.s": (self_s("intlin.kernel_mod"), "s"),
        "diagram.parse_diagram.s": (self_s("diagram.parse_diagram"), "s"),
        "diagram.validate_diagram.s": (self_s("diagram.validate_diagram"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
    }

"""Spans at the program's module boundaries, recorded from outside it.

``Tracer.install`` replaces every public function of ``edds`` (the names in
``edds.__all__`` plus ``cli.main``) with a shim, in the defining module and in
every module that imported the name (``edds.order.solve_fixed_order``,
``edds.cli.brute_force_order``, ``edds.verify.hessian_block``, ...).  While an
item id is set, each call records a span: name, start, end, parent span and
item id.  Spans stay in memory until ``write``; ``layer_metrics`` turns them
into per-layer calls, self time and work counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
from time import perf_counter

import edds
from edds import cli, csolve, discrete, model, order, verify

MODULES = (model, csolve, order, discrete, verify, cli)

# Spans whose arguments and results the work counters read.
_KEEP = {
    "csolve.solve_fixed_order",
    "discrete.greedy_allocate",
    "verify.check_convexity",
    "verify.check_monotone",
    "verify.check_supermodular",
}


def public_functions() -> dict[int, tuple[str, object]]:
    """id(function) -> ("module.name", function) for every traced function."""
    out = {}
    for name in list(edds.__all__) + ["main"]:
        fn = getattr(cli if name == "main" else edds, name, None)
        # A generator function returns before doing its work, so a span
        # around the call would time nothing.
        if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
            out[id(fn)] = (f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", fn)
    return out


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, item id, (args, kwargs, result)]
        self.spans: list[list] = []
        self.item: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _shim(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if name in _KEEP:
                rec[5] = (args, kwargs, result)
            return result

        shim.traced_name = name
        return shim

    def install(self) -> None:
        targets = public_functions()
        shims = {key: self._shim(name, fn) for key, (name, fn) in targets.items()}
        for mod in (edds, *MODULES):
            for attr, value in list(vars(mod).items()):
                if id(value) in shims:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, shims[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([rec[:5] for rec in self.spans], fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            own[rec[3]] -= rec[2] - rec[1]
    return own


def greedy_candidates(inst, params, trace) -> int:
    """Candidates the greedy scored: one per open slot plus n while a slot may open.

    Each committed step is one scan; a run that stops before the budget is
    spent made one more scan that committed nothing.
    """
    slots = 0
    total = 0
    for step in trace:
        total += slots + (inst.n if slots < params.max_slots else 0)
        if step.action == "open":
            slots += 1
    if len(trace) < params.budget_quanta:
        total += slots + (inst.n if slots < params.max_slots else 0)
    return total


# (module.function) pairs whose calls and self time are reported.
CALLS = (
    "cli.main",
    "order.brute_force_order",
    "csolve.solve_fixed_order",
    "csolve.hessian_block",
    "model.evaluate_cost",
    "model.shannon_bits",
    "discrete.greedy_allocate",
    "discrete.oracle_allocate",
    "discrete.discrete_cost",
)
SELF_ONLY = ("verify.check_convexity", "verify.check_supermodular", "verify.check_monotone")


def layer_metrics(spans: list[list], edge_ids: set[str]) -> dict[str, float]:
    """Per-layer calls, self seconds and work counts.

    Spans of robustness-slice items (`edge_ids`) feed only
    ``csolve.edge.self_s``, so a fixed crash does not move the other numbers.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    edge_s = 0.0
    iterations: list[int] = []
    nonconverged = 0
    steps = candidates = trials = violations = 0
    for rec, t in zip(spans, own):
        name, item = rec[0], rec[4]
        if item in edge_ids:
            if name.startswith("csolve."):
                edge_s += t
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        if rec[5] is None:
            continue
        args, kwargs, result = rec[5]
        if name == "csolve.solve_fixed_order":
            iterations.append(result.iterations)
            nonconverged += not result.converged
        elif name == "discrete.greedy_allocate":
            steps += len(result[2])
            candidates += greedy_candidates(args[0], args[1], result[2])
        else:
            trials += result.trials
            violations += result.violations
    searches = calls.get("order.brute_force_order", 0)
    search_solves = sum(
        1
        for rec in spans
        if rec[0] == "csolve.solve_fixed_order"
        and rec[3] >= 0
        and spans[rec[3]][0] == "order.brute_force_order"
        and rec[4] not in edge_ids
    )
    out: dict[str, float] = {}
    for name in CALLS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["order.solves_per_search"] = search_solves / searches if searches else 0.0
    out["order.useful_solve_ratio"] = searches / search_solves if search_solves else 0.0
    out["csolve.iterations_total"] = sum(iterations)
    out["csolve.iterations_p50"] = statistics.median_low(iterations) if iterations else 0
    out["csolve.iterations_max"] = max(iterations, default=0)
    out["csolve.nonconverged"] = nonconverged
    out["csolve.edge.self_s"] = edge_s
    out["discrete.greedy_steps"] = steps
    out["discrete.greedy_candidates"] = candidates
    greedy_s = self_s.get("discrete.greedy_allocate", 0.0)
    out["discrete.greedy_us_per_step"] = 1e6 * greedy_s / steps if steps else 0.0
    out["verify.trials"] = trials
    out["verify.violations"] = violations
    return out

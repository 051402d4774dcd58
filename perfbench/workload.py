"""The benchmark's workloads: seeded inputs, one call per item, and checks.

An item is one unit of user-visible work.  Running it calls the program
only through module attributes (``csolve.solve_fixed_order``, ``cli.main``,
...), so the shims that ``tracing`` installs on those attributes see every
call.  Each item kind has two functions:

* ``run(payload)`` does the work and returns the program's output, whose
  ``repr`` a rerun must reproduce byte for byte (for ``cli.main`` the output
  is the exit code and the captured stdout);
* ``check(payload, output)`` returns ``None`` or the reason the output is
  wrong, recomputed from public functions, never from the solver's own
  report of itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from edds import cli, csolve, discrete, model, order, verify

WORKLOADS = ("solve-search", "discrete-certify")

KKT_TOL = 1e-6  # projected-gradient residual; the solver stops at 1e-8
SLACK_TOL = 1e-6  # unspent energy, relative to the budget
COST_RTOL = 1e-9  # reported total against a fresh evaluation
RATIO_BOUND = 2.0  # certified greedy/oracle factor
BHAT_TOL = 0.05  # bits, reference instances
NONCONVERGED = "converged=False"  # a failure, but not a wrong answer

# A solve-search round holds 51 single solves and 40 brute-force searches,
# shuffled together.  Solve sizes: 40 small (n = 4..8), 10 of n = 16 and one
# n = 64.  Search sizes besides the two reference instances (n = 2): n!
# solves per item, so n = 4 (24 solves) is a tail of one in 40.  The item
# times spread smoothly from about 50 ms to 1 s, so neither percentile sits
# on the jump between two size groups, and the sizes are the same in every
# round, so only B and E vary with the seed.
SOLVE_N = (4,) * 20 + (5,) * 8 + (6,) * 6 + (8,) * 6 + (16,) * 10 + (64,)
SEARCH_N = (2,) * 10 + (3,) * 27 + (4,)
# A discrete-certify round holds the sweep as 78 items, one per (bits, slot
# length) with both quanta and all six budgets; GREEDY_DRAWS realistic
# greedy sizes, each run with and without spend_all; and 5 property probes.
# The greedy items, 18 of 101, are the heaviest, from about 0.1 s to 1 s,
# so the 90th percentile sits in the middle of their smooth spread instead
# of at the top of the sweep items, where any slow spell of the host would
# move it; the median sits inside the 54 three-packet sweep items.
GREEDY_DRAWS = 9
ROUNDS = 6  # rounds generated at set-up; the timed loop cycles through them

# Reference instances 1 and 2: (bits, energy, bhat targets, expected perm).
REFERENCES = (
    ((15.0, 20.0), 50.0, (13.667, 19.1396), [1, 2]),
    ((12.0, 20.0), 20.0, (7.663, 15.8431), None),
)

# Inputs that have made the solver fail: exp2 overflows to
# NaN and project_budget then indexes an empty array (first three), or the
# line search stalls with converged=False (last).
EDGE_INSTANCES = (
    ((1100.0,), 50.0),
    ((60.0, 80.0, 100.0), 50.0),
    ((60.0,), 3.0),
    ((30.0, 30.0, 30.0), 1e-3),
)


@dataclass(frozen=True)
class Item:
    id: str
    kind: str
    payload: Any


def _stratified(rng: np.random.Generator, cells: np.ndarray, count: int) -> np.ndarray:
    """Points of [0, 1): one uniform draw in each of the given cells of `count` equal strata."""
    return (cells + rng.uniform(0.0, 1.0, len(cells))) / count


def _factors(seed: int, stream: int, r: int, n: int, m: int) -> np.ndarray:
    """E/sum(B) factors from U[0.5, 4] for round r's m items of size n.

    The seed's ROUNDS * m equal strata are dealt out m to a round, so every
    round, and every run of a few rounds, sees the whole range.
    """
    cells = np.random.default_rng([seed, stream, n]).permutation(ROUNDS * m)[(r % ROUNDS) * m:][:m]
    return 0.5 + 3.5 * _stratified(np.random.default_rng([seed, stream, n, r]), cells, ROUNDS * m)


def _shuffled(rng: np.random.Generator, items: list) -> list:
    return [items[k] for k in rng.permutation(len(items))]


def _random_instance(rng: np.random.Generator, n: int, factor: float) -> model.Instance:
    """spf_agreement_experiment's distribution: B ~ U[1,25], E = factor * sum(B).

    The n bits are drawn one in each of n equal strata of [1, 25], in random
    order, which keeps the marginal distribution and narrows the spread of
    solver work between instances of one size.
    """
    bits = 1.0 + 24.0 * _stratified(rng, rng.permutation(n), n)
    return model.Instance(tuple(float(b) for b in bits), factor * float(bits.sum()))


def _sized_instances(seed: int, stream: int, r: int,
                     sizes: tuple[int, ...]) -> list[tuple[int, model.Instance]]:
    """One random instance per entry of `sizes`, factors stratified per size.

    Each `stream` draws from random numbers of its own.
    """
    rng = np.random.default_rng([seed, stream, r])
    factors = {n: iter(_factors(seed, stream, r, n, sizes.count(n))) for n in set(sizes)}
    return [(n, _random_instance(rng, n, float(next(factors[n])))) for n in sizes]


def _search_argv(bits, energy) -> tuple[str, ...]:
    return ("solve", "--bits", ",".join(repr(float(b)) for b in bits),
            "--energy", repr(float(energy)), "--search", "brute")


def _solve_search_round(seed: int, r: int) -> list[Item]:
    items = [
        Item(f"solve-r{r}-{k}-n{n}", "solve", inst)
        for k, (n, inst) in enumerate(_sized_instances(seed, 0, r, SOLVE_N))
    ]
    items += [
        Item(f"search-r{r}-ref{k + 1}", "search", (_search_argv(bits, energy), (targets, perm)))
        for k, (bits, energy, targets, perm) in enumerate(REFERENCES)
    ]
    items += [
        Item(f"search-r{r}-{k}-n{n}", "search", (_search_argv(inst.bits, inst.energy), None))
        for k, (n, inst) in enumerate(_sized_instances(seed, 1, r, SEARCH_N))
    ]
    return _shuffled(np.random.default_rng([seed, 2, r]), items)


def _discrete_round(seed: int, r: int) -> list[Item]:
    rng = np.random.default_rng([seed, r])
    groups: dict[tuple, list] = {}
    for inst, params in discrete.certificate_sweep():
        groups.setdefault((inst.bits, params.slot_len), []).append((inst, params))
    items = [Item(f"sweep-r{r}-{k}", "sweep", tuple(group)) for k, group in enumerate(groups.values())]
    # One size scale u per draw, one draw in each of GREEDY_DRAWS equal
    # strata of [0, 1), so every round holds the whole range: n from 8 to 64,
    # Q from 500 to 2000 and the slot length from 1 down to 0.25 follow it.
    scales = _stratified(rng, np.arange(GREEDY_DRAWS), GREEDY_DRAWS)
    for k, u in enumerate(scales):
        n = int(round(8 + 56 * u))
        q = int(round(500 + 1500 * u))
        slot_len = float(1.0 - 0.75 * u)
        bits = tuple(float(b) for b in rng.uniform(1.0, 25.0, n))
        inst = model.Instance(bits, float(q))
        params = discrete.DiscreteParams.for_instance(inst, slot_len, 1.0)
        for spend_all in (False, True):
            tag = "all" if spend_all else "stop"
            items.append(Item(f"greedy-r{r}-{k}-n{n}-Q{q}-{tag}", "greedy", (inst, params, spend_all)))
    cell_bits = float(rng.uniform(1.0, 4.0))
    cell_slot = float(rng.choice((0.5, 1.0)))
    probe_seed = int(rng.integers(0, 2**31))
    items += [
        Item(f"probe-r{r}-c08-supermodular", "probe", ("c08", None, True)),
        Item(f"probe-r{r}-cells10-monotone", "probe", ("cells10-monotone", (cell_bits, cell_slot), False)),
        Item(f"probe-r{r}-cells10-supermodular", "probe", ("cells10-supermodular", (cell_bits, cell_slot), False)),
        Item(f"probe-r{r}-convexity-ref1", "probe", ("convexity", (0, probe_seed), True)),
        Item(f"probe-r{r}-convexity-ref2", "probe", ("convexity", (1, probe_seed + 1), True)),
    ]
    return _shuffled(rng, items)


_ROUND_BUILDERS = {
    "solve-search": _solve_search_round,
    "discrete-certify": _discrete_round,
}


def build(workload: str, seed: int, rounds: int = ROUNDS) -> list[Item]:
    """The workload's item sequence for `seed`: `rounds` shuffled rounds."""
    make = _ROUND_BUILDERS[workload]
    return [item for r in range(rounds) for item in make(seed, r)]


def edge_items(workload: str) -> list[Item]:
    """The robustness slice: run once per run, timed apart from the rest."""
    if workload != "solve-search":
        return []
    return [
        Item(f"edge-bits{'_'.join(f'{b:g}' for b in bits)}-E{energy:g}", "solve",
             model.Instance(bits, energy))
        for bits, energy in EDGE_INSTANCES
    ]


def warmup_items(workload: str) -> list[Item]:
    """Small items of the workload's kinds, run once before timing."""
    if workload == "solve-search":
        return [Item("warmup-solve", "solve", model.Instance((5.0, 9.0, 14.0, 20.0), 80.0)),
                Item("warmup-search", "search", (_search_argv((9.0, 14.0), 40.0), None))]
    inst = model.Instance((2.0, 3.0), 3.0)
    return [Item("warmup", "sweep", ((inst, discrete.DiscreteParams(1.0, 1.0, 3, 6)),))]


# ---------------------------------------------------------------------------
# Continuous answers: solve-search.


def kkt_residual(inst: model.Instance, alloc: model.ContinuousAllocation) -> float:
    """||x - Proj(x - grad U(x))|| at unit step over the feasible set."""
    g = csolve.gradient(inst, alloc)
    e = np.asarray(alloc.energies)
    t = np.asarray(alloc.times)
    re = e - csolve.project_budget(e - g[0::2], inst.energy)
    rt = t - np.maximum(t - g[1::2], model.T_MIN)
    return math.sqrt(float(re @ re + rt @ rt))


def check_continuous(inst, alloc, total: float, converged: bool) -> str | None:
    """KKT residual, energy slack and cost agreement of a continuous answer."""
    if not converged:
        return NONCONVERGED
    r = kkt_residual(inst, alloc)
    if not r <= KKT_TOL:
        return f"KKT residual {r:.3g} > {KKT_TOL:g}"
    slack = inst.energy - float(np.sum(alloc.energies))
    if not abs(slack) <= SLACK_TOL * inst.energy:
        return f"energy slack {slack:.3g} exceeds {SLACK_TOL:g} * E"
    fresh = model.evaluate_cost(inst, alloc).total
    if not abs(fresh - total) <= COST_RTOL * max(1.0, abs(total)):
        return f"evaluate_cost gives {fresh!r}, report says {total!r}"
    return None


def run_solve(inst):
    return csolve.solve_fixed_order(inst, order.spf_order(inst))


def check_solve(inst, report) -> str | None:
    return check_continuous(inst, report.alloc, report.cost.total, report.converged)


def run_search(payload):
    argv, _ = payload
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def check_search(payload, output) -> str | None:
    _, reference = payload
    code, stdout = output
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
        inst, _ = model.instance_from_doc(doc["instance"])
        alloc = model.allocation_from_doc(doc["alloc"])
        total, bhat, converged = doc["cost"]["total"], doc["cost"]["bhat"], doc["converged"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"invalid output JSON: {exc}"
    reason = check_continuous(inst, alloc, total, converged)
    if reason is None and reference is not None:
        targets, perm = reference
        if any(not abs(b - want) <= BHAT_TOL for b, want in zip(bhat, targets)):
            reason = f"bhat {bhat} off reference {list(targets)} by more than {BHAT_TOL}"
        elif perm is not None and doc["alloc"]["perm"] != perm:
            reason = f"perm {doc['alloc']['perm']}, reference {perm}"
    return reason


# ---------------------------------------------------------------------------
# Discrete answers: discrete-certify.


def _trace_reason(inst, trace) -> str | None:
    """Greedy totals must fall strictly at every committed step."""
    prev = float(sum(2.0**b for b in inst.bits))
    for step in trace:
        if not step.total_cost < prev:
            return f"trace not strictly decreasing at step {step.iteration}"
        prev = step.total_cost
    return None


def _cost_reason(inst, params, alloc, cost) -> str | None:
    try:
        fresh = discrete.discrete_cost(inst, params, alloc).total
    except ValueError as exc:  # InfeasibleError: over budget or slot cap
        return f"infeasible allocation: {exc}"
    if not abs(fresh - cost.total) <= COST_RTOL * max(1.0, abs(cost.total)):
        return f"discrete_cost gives {fresh!r}, greedy says {cost.total!r}"
    return None


def run_sweep(group):
    """Greedy and oracle on each (instance, params) pair of a sweep group."""
    out = []
    for inst, params in group:
        g_alloc, g_cost, g_trace = discrete.greedy_allocate(inst, params)
        o_alloc, o_cost = discrete.oracle_allocate(inst, params)
        out.append((g_alloc, g_cost, g_trace, o_alloc, o_cost))
    return tuple(out)


def sweep_ratio(output) -> float:
    """The worst greedy/oracle cost ratio over a group's instances."""
    return max(g_cost.total / o_cost.total for _, g_cost, _, _, o_cost in output)


def check_sweep(group, output) -> str | None:
    for (inst, params), (g_alloc, g_cost, g_trace, _, o_cost) in zip(group, output):
        ratio = g_cost.total / o_cost.total
        reason = (
            f"greedy/oracle ratio {ratio:.6g} > {RATIO_BOUND:g} (oracle {o_cost.total!r})"
            if not ratio <= RATIO_BOUND + 1e-12
            else _trace_reason(inst, g_trace) or _cost_reason(inst, params, g_alloc, g_cost)
        )
        if reason is not None:
            return f"e={params.quantum:g} Q={params.budget_quanta}: {reason}"
    return None


def run_greedy(payload):
    inst, params, spend_all = payload
    return discrete.greedy_allocate(inst, params, spend_all=spend_all)


def check_greedy(payload, output) -> str | None:
    inst, params, spend_all = payload
    alloc, cost, trace = output
    reason = None if spend_all else _trace_reason(inst, trace)
    return reason or _cost_reason(inst, params, alloc, cost)


def _cells10(cell_bits: float, slot_len: float) -> verify.SetFunction:
    """Packet 1's full discrete cost over 10 cells: 3 slots x 4 levels, cut to 10."""
    inst = model.Instance((cell_bits,), 4.0)
    params = discrete.DiscreteParams(slot_len, 1.0, 4, 3)
    sf = verify.di_as_set_function(inst, params, 1, {1: 1, 2: 1, 3: 1}, max_level=4)
    return verify.SetFunction(sf.ground[:10], sf.fn)


def run_probe(payload):
    name, args, _ = payload
    if name == "c08":  # the acceptance gate's distortion-only supermodularity
        inst = model.Instance((2.0,), 3.0)
        params = discrete.DiscreteParams(1.0, 1.0, 3, 3)
        sf = verify.di_as_set_function(inst, params, 1, {1: 1, 2: 1, 3: 1}, distortion_only=True)
        return verify.check_supermodular(sf)
    if name == "cells10-monotone":
        return verify.check_monotone(_cells10(*args), exhaustive=True)
    if name == "cells10-supermodular":
        return verify.check_supermodular(_cells10(*args), exhaustive=True)
    ref, seed = args
    bits, energy, _, _ = REFERENCES[ref]
    return verify.check_convexity(model.Instance(bits, energy), model.Order.identity(2),
                                  trials=1000, seed=seed)


def check_probe(payload, report) -> str | None:
    _, _, expect_zero = payload
    if report.trials <= 0:
        return "probe ran no trials"
    if expect_zero and report.violations:
        return f"{report.violations} violations where the gate expects none"
    return None


@dataclass(frozen=True)
class Kind:
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]


KINDS = {
    "solve": Kind(run_solve, check_solve),
    "search": Kind(run_search, check_search),
    "sweep": Kind(run_sweep, check_sweep),
    "greedy": Kind(run_greedy, check_greedy),
    "probe": Kind(run_probe, check_probe),
}

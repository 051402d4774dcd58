"""Acceptance gate.

One test per shipped guarantee, each printing exactly one PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them inline).
Tolerances are pinned at the top; a failure here means the package does not
meet its contract, not that a unit broke.
"""

import json
import subprocess
import sys
import time

import numpy as np

from edds.csolve import gradient, solve_fixed_order
from edds.discrete import (
    DiscreteAllocation,
    DiscreteParams,
    certificate_sweep,
    discrete_cost,
    greedy_allocate,
    oracle_allocate,
)
from edds.model import Instance, Order
from edds.order import brute_force_order, spf_order
from edds.verify import check_convexity, check_supermodular, di_as_set_function

from test_csolve import fd_gradient, random_interior_point

TOL_BHAT = 0.05  # bits, per reference value
TOL_GRAD = 1e-5  # relative, analytic vs finite differences
TOL_TIGHT = 1e-6  # energy slack, relative to the budget
TOL_MATCH = 1e-9  # cost ties, greedy replay, and greedy-vs-oracle matches
RATIO_BOUND = 2.0  # certified greedy/optimal factor
GRAD_BUDGET_S = 10.0
CONVEXITY_BUDGET_S = 30.0
CERTIFICATE_BUDGET_S = 300.0


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _run(*args: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "edds.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


def _solve_cli(bits: str, energy: str) -> dict:
    code, out = _run("solve", "--bits", bits, "--energy", energy, "--search", "brute")
    assert code == 0, f"solve exited {code}"
    return json.loads(out)


def test_c01_reference_instance_one():
    doc = _solve_cli("15,20", "50")
    b1, b2 = doc["cost"]["bhat"]
    ok = (
        abs(b1 - 13.667) <= TOL_BHAT
        and abs(b2 - 19.1396) <= TOL_BHAT
        and doc["alloc"]["perm"] == [1, 2]
        and doc["converged"]
    )
    _verdict(
        "reference-instance-1",
        ok,
        f"bhat=({b1:.4f}, {b2:.4f}) target=(13.667, 19.1396) +/-{TOL_BHAT}, "
        f"perm={doc['alloc']['perm']} (shorter first), delay weights a_i = n - pi_i + 1",
    )


def test_c02_reference_instance_two():
    doc = _solve_cli("12,20", "20")
    b1, b2 = doc["cost"]["bhat"]
    ok = abs(b1 - 7.663) <= TOL_BHAT and abs(b2 - 15.8431) <= TOL_BHAT and doc["converged"]
    _verdict(
        "reference-instance-2",
        ok,
        f"bhat=({b1:.4f}, {b2:.4f}) target=(7.663, 15.8431) +/-{TOL_BHAT}",
    )


def test_c03_gradient_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        inst, alloc = random_interior_point(rng)
        g = gradient(inst, alloc)
        fd = fd_gradient(inst, alloc)
        rel = float(np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= TOL_GRAD and elapsed < GRAD_BUDGET_S
    _verdict(
        "gradient-vs-fd",
        ok,
        f"100 points (n<=4), worst rel err {worst:.3e} <= {TOL_GRAD}, "
        f"{elapsed:.1f}s < {GRAD_BUDGET_S:.0f}s",
    )


def test_c04_convexity_certification():
    start = time.perf_counter()
    r1 = check_convexity(Instance((15.0, 20.0), 50.0), Order.identity(2), trials=5000, seed=11)
    r2 = check_convexity(Instance((12.0, 20.0), 20.0), Order.identity(2), trials=5000, seed=12)
    elapsed = time.perf_counter() - start
    violations = r1.violations + r2.violations
    margin = min(r1.margin, r2.margin)
    ok = violations == 0 and margin > 0.0 and elapsed < CONVEXITY_BUDGET_S
    _verdict(
        "convexity-certification",
        ok,
        f"10000 midpoint+curvature trials, {violations} violations, "
        f"min slack {margin:.3e} > 0, {elapsed:.1f}s < {CONVEXITY_BUDGET_S:.0f}s",
    )


def test_c05_energy_tightness():
    rng = np.random.default_rng(2026)
    worst = 0.0
    non_converged = 0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        bits = rng.uniform(1.0, 25.0, n)
        energy = float(rng.uniform(0.3, 3.0) * bits.sum())
        inst = Instance(tuple(bits), energy)
        report = solve_fixed_order(inst, spf_order(inst))
        non_converged += not report.converged
        worst = max(worst, report.energy_slack / energy)
    ok = non_converged == 0 and worst <= TOL_TIGHT
    _verdict(
        "energy-tightness",
        ok,
        f"50 random instances, {non_converged} non-converged, "
        f"worst relative slack {worst:.3e} <= {TOL_TIGHT}",
    )


def test_c06_approximation_certificate():
    start = time.perf_counter()
    worst = 0.0
    worst_case = None
    exceptions = 0
    count = 0
    for inst, params in certificate_sweep():
        count += 1
        _, g_cost, _ = greedy_allocate(inst, params)
        _, o_cost = oracle_allocate(inst, params)
        ratio = g_cost.total / o_cost.total
        if ratio > worst:
            worst = ratio
            worst_case = (inst.bits, inst.energy, params.slot_len, params.quantum)
        if g_cost.total > RATIO_BOUND * o_cost.total * (1.0 + 1e-12):
            exceptions += 1
    elapsed = time.perf_counter() - start
    ok = exceptions == 0 and count >= 200 and elapsed < CERTIFICATE_BUDGET_S
    _verdict(
        "approximation-certificate",
        ok,
        f"{count} instances, worst greedy/oracle {worst:.4f} at {worst_case}, "
        f"{exceptions} above {RATIO_BOUND}x, {elapsed:.1f}s < {CERTIFICATE_BUDGET_S:.0f}s",
    )


def _moves(inst, params, owner, quanta):
    """Every one-quantum move from a slot prefix, scored by ``discrete_cost``.

    Returns ``(cost, slot, packet, action)`` tuples: one more quantum in any
    occupied slot, or slot J+1 opened for any packet while J < max_slots.
    Empty once the budget is spent.
    """
    if sum(quanta) >= params.budget_quanta:
        return []
    moves = []
    for j, p in enumerate(owner, start=1):
        bumped = quanta[: j - 1] + (quanta[j - 1] + 1,) + quanta[j:]
        cost = discrete_cost(inst, params, DiscreteAllocation(owner, bumped))
        moves.append((cost.total, j, p, "add"))
    if len(owner) < params.max_slots:
        j = len(owner) + 1
        for p in range(1, inst.n + 1):
            grown = DiscreteAllocation(owner + (p,), quanta + (1,))
            moves.append((discrete_cost(inst, params, grown).total, j, p, "open"))
    return moves


def _best_move(moves):
    """The cheapest move; costs within TOL_MATCH tie, and ties go to the
    smallest slot, then the smallest packet."""
    least = min(m[0] for m in moves)
    return min((j, p, action) for cost, j, p, action in moves if cost <= least + TOL_MATCH)


def _replay_greedy(inst, params, spend_all):
    """Run the greedy and re-derive its trace through the public cost.

    Returns the greedy's allocation, cost and trace plus the count of
    wrong step choices, of replay mismatches (a step's total against the
    rebuilt allocation, and the rebuilt allocation against the returned
    one), and whether the stop is unjustified.
    """
    alloc, cost, trace = greedy_allocate(inst, params, spend_all=spend_all)
    owner: tuple[int, ...] = ()
    quanta: tuple[int, ...] = ()
    wrong = replay = 0
    for k, step in enumerate(trace, start=1):
        moves = _moves(inst, params, owner, quanta)
        if (
            step.iteration != k
            or not moves
            or _best_move(moves) != (step.slot, step.packet, step.action)
        ):
            wrong += 1
        if step.action == "add":
            j = step.slot
            quanta = quanta[: j - 1] + (quanta[j - 1] + 1,) + quanta[j:]
        else:
            owner, quanta = owner + (step.packet,), quanta + (1,)
        rebuilt = discrete_cost(inst, params, DiscreteAllocation(owner, quanta)).total
        if abs(step.total_cost - rebuilt) > TOL_MATCH:
            replay += 1
    if DiscreteAllocation(owner, quanta) != alloc:
        replay += 1
    left = _moves(inst, params, alloc.owner, alloc.quanta)
    if spend_all:
        bad_stop = bool(left)  # spend-all stops only when no move is left
    else:
        bad_stop = any(m[0] < cost.total - TOL_MATCH for m in left)
    return alloc, cost, trace, wrong, replay, bad_stop


def _loads_fall_along_slots(alloc) -> bool:
    """Each packet's slot loads are non-increasing in slot order."""
    for p in set(alloc.owner):
        loads = [r for o, r in zip(alloc.owner, alloc.quanta) if o == p]
        if loads != sorted(loads, reverse=True):
            return False
    return True


def test_c07_greedy_sanity():
    start = time.perf_counter()
    steps = {False: 0, True: 0}
    bad_traces = wrong_steps = replay_errors = bad_stops = rising_loads = 0
    singles = below_oracle = matches = even_splits = stop_gaps = 0
    worst_gap = 0.0
    witness = None
    for inst, params in certificate_sweep():
        o_cost = oracle_allocate(inst, params)[1] if inst.n == 1 else None
        for spend_all in (False, True):
            alloc, g_cost, trace, wrong, replay, bad_stop = _replay_greedy(
                inst, params, spend_all
            )
            steps[spend_all] += len(trace)
            wrong_steps += wrong
            replay_errors += replay
            bad_stops += bad_stop
            rising_loads += not _loads_fall_along_slots(alloc)
            if not spend_all:
                empty = discrete_cost(inst, params, DiscreteAllocation((), ()))
                totals = [empty.total] + [s.total_cost for s in trace]
                if any(b >= a for a, b in zip(totals, totals[1:])):
                    bad_traces += 1
            if o_cost is None:
                continue
            if o_cost.total > g_cost.total + TOL_MATCH:
                below_oracle += 1
            if spend_all:
                continue
            singles += 1
            even_splits += not alloc.quanta or max(alloc.quanta) - min(alloc.quanta) <= 1
            gap = g_cost.total - o_cost.total
            if gap <= TOL_MATCH:
                matches += 1
                continue
            stop_gaps += sum(alloc.quanta) < params.budget_quanta
            if gap > worst_gap:
                worst_gap = gap
                witness = (inst.bits, inst.energy, params.slot_len, params.quantum)
    elapsed = time.perf_counter() - start
    ok = (
        bad_traces == 0
        and wrong_steps == 0
        and replay_errors == 0
        and bad_stops == 0
        and rising_loads == 0
        and below_oracle == 0
        and singles > 0
    )
    gaps = singles - matches
    _verdict(
        "greedy-sanity",
        ok,
        f"{steps[False]}/{steps[True]} default/spend-all steps replayed: "
        f"{wrong_steps} wrong step choices, {replay_errors} replay mismatches, "
        f"{bad_stops} unjustified stops, {bad_traces} non-decreasing traces, "
        f"{rising_loads} runs with a packet's loads rising along its slots, "
        f"{below_oracle} n=1 runs below the oracle; informational: n=1 exact "
        f"match {matches}/{singles}, even split {even_splits}/{singles}, worst gap "
        f"{worst_gap:.4f} at {witness}; of the {gaps} gaps, {stop_gaps} stop with "
        f"quanta left on a plateau no single quantum crosses and {gaps - stop_gaps} "
        f"spend the budget on a worse split (on this sweep, a wrong slot count); "
        f"{elapsed:.1f}s",
    )


def test_c08_supermodularity_distortion_only():
    inst = Instance((2.0,), 3.0)
    params = DiscreteParams(1.0, 1.0, 3, 3)
    ownership = {1: 1, 2: 1, 3: 1}
    clean = check_supermodular(
        di_as_set_function(inst, params, 1, ownership, distortion_only=True)
    )
    full = check_supermodular(di_as_set_function(inst, params, 1, ownership))
    ok = clean.violations == 0 and clean.trials > 0 and full.trials > 0
    _verdict(
        "supermodularity-distortion-only",
        ok,
        f"exhaustive on 9 cells: {clean.violations} violations in "
        f"{clean.trials} triples; full-cost probe (delay included, "
        f"informational): {full.violations} violations",
    )


def test_c09_spf_experiment():
    # SPF is optimal (the order module's Lagrangian proof), so on every seeded
    # instance its converged solve ties brute force's best within TOL_MATCH,
    # relative.  B_i ~ U[1, 25] bits and E ~ U[0.5, 4] x sum B.
    agree, worst, unconverged = {}, 0.0, 0
    for seed, n, count in ((7, 2, 200), (8, 3, 100)):
        rng = np.random.default_rng(seed)
        agree[n] = 0
        for _ in range(count):
            bits = rng.uniform(1.0, 25.0, n)
            total = float(bits.sum())
            inst = Instance(tuple(bits), float(rng.uniform(0.5 * total, 4.0 * total)))
            spf = solve_fixed_order(inst, spf_order(inst))
            _, best = brute_force_order(inst)
            gap = abs(spf.cost.total - best.cost.total) / best.cost.total
            unconverged += not spf.converged
            agree[n] += gap <= TOL_MATCH
            worst = max(worst, gap)
    _verdict(
        "spf-experiment",
        unconverged == 0 and agree == {2: 200, 3: 100},
        f"SPF ties brute force on {agree[2]}/200 instances at n=2 and "
        f"{agree[3]}/100 at n=3, worst relative gap {worst:.3e}, "
        f"{unconverged} SPF solves unconverged",
    )


def test_c10_determinism():
    commands = [
        ("solve", "--bits", "15,20", "--energy", "50", "--search", "brute"),
        ("sweep", "--fix", "B1=15", "--vary", "B2=18:22:2", "--energy", "50"),
        ("discrete", "--bits", "2,3", "--energy", "4", "--slot-len", "1", "--quantum", "1"),
        ("check", "--bits", "2", "--energy", "2", "--slot-len", "1", "--quantum", "1",
         "--trials", "200", "--convexity-trials", "100", "--seed", "5"),
    ]
    diffs = []
    for argv in commands:
        code1, out1 = _run(*argv)
        code2, out2 = _run(*argv)
        if out1 != out2 or code1 != code2:
            diffs.append(argv[0])
    _verdict(
        "determinism",
        not diffs,
        f"{len(commands)} seeded commands run twice, byte-identical stdout"
        + (f"; differing: {diffs}" if diffs else ""),
    )

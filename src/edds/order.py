"""Transmission-order search.

Convexity fixes the best (E, t) for a given order but says nothing about the
order itself, so the optimum over orders is found by brute force over all n!
permutations.  Shortest-packet-first (SPF) is the natural heuristic; the
experiment helper measures how often it matches the brute-force optimum
without ever asserting that it must.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .model import Instance, Order, SizeError
from .csolve import SolveReport, SolverConfig, solve_fixed_order

N_MAX = 8  # n! solves; 8! = 40320 is the default ceiling.


def brute_force_order(
    inst: Instance, cfg: SolverConfig | None = None
) -> tuple[Order, SolveReport]:
    """Solve every permutation and keep the cheapest.

    Ties keep the lexicographically smallest permutation (the iteration
    order), so the result is deterministic.
    """
    if inst.n > N_MAX:
        raise SizeError(f"brute force is capped at n_max={N_MAX} packets, got {inst.n}")
    best: tuple[Order, SolveReport] | None = None
    for perm in permutations(range(1, inst.n + 1)):
        order = Order(perm)
        report = solve_fixed_order(inst, order, cfg)
        if best is None or report.cost.total < best[1].cost.total:
            best = (order, report)
    assert best is not None
    return best


def spf_order(inst: Instance) -> Order:
    """Shortest packet first: sort by B_i ascending, ties by packet index."""
    seq = sorted(range(1, inst.n + 1), key=lambda i: (inst.bits[i - 1], i))
    return Order.from_sequence(seq)


@dataclass(frozen=True)
class AgreementStats:
    """Result of one SPF-vs-brute-force experiment."""

    count: int
    n: int
    seed: int
    agreements: int
    agreement: float
    worst_gap: float
    worst_instance: Instance | None
    rows: tuple[tuple[int, str, float, float, float], ...]

    def to_doc(self) -> dict:
        return {
            "count": self.count,
            "n": self.n,
            "seed": self.seed,
            "agreements": self.agreements,
            "agreement": self.agreement,
            "worst_gap": self.worst_gap,
            "worst_instance": (
                None if self.worst_instance is None else self.worst_instance.to_doc()
            ),
        }

    def to_csv(self) -> str:
        lines = ["seed,instance,spf_cost,opt_cost,gap"]
        for seed, instance, spf_cost, opt_cost, gap in self.rows:
            lines.append(f"{seed},{instance},{spf_cost!r},{opt_cost!r},{gap!r}")
        return "\n".join(lines) + "\n"


def spf_agreement_experiment(
    count: int, rng_seed: int, n: int, cfg: SolverConfig | None = None
) -> AgreementStats:
    """Measure how often SPF ties the brute-force optimum on random instances.

    Instances are drawn with B_i uniform on [1, 25] bits and the budget
    uniform on [0.5, 4] times the total bits.  Agreement means the SPF
    order's solved cost is within 1e-6 of the brute-force optimum.  This
    reports; it never asserts the heuristic.
    """
    if n > N_MAX:
        raise SizeError(f"experiment is capped at n_max={N_MAX} packets, got {n}")
    rng = np.random.default_rng(rng_seed)
    rows = []
    agreements = 0
    worst_gap = 0.0
    worst_instance: Instance | None = None
    for _ in range(count):
        bits = rng.uniform(1.0, 25.0, n)
        total_bits = float(bits.sum())
        energy = float(rng.uniform(0.5 * total_bits, 4.0 * total_bits))
        inst = Instance(tuple(bits), energy)
        spf_cost = solve_fixed_order(inst, spf_order(inst), cfg).cost.total
        _, opt = brute_force_order(inst, cfg)
        gap = spf_cost - opt.cost.total
        if gap <= 1e-6:
            agreements += 1
        elif gap > worst_gap:
            worst_gap = gap
            worst_instance = inst
        label = ";".join(f"{b:.10g}" for b in inst.bits) + f"|{energy:.10g}"
        rows.append((rng_seed, label, spf_cost, opt.cost.total, gap))
    agreement = 1.0 if count == 0 else agreements / count
    return AgreementStats(
        count=count,
        n=n,
        seed=rng_seed,
        agreements=agreements,
        agreement=agreement,
        worst_gap=worst_gap,
        worst_instance=worst_instance,
        rows=tuple(rows),
    )

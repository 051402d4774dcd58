"""Order-search tests: brute force, shortest-packet-first, and the agreement
experiment."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edds.model import DomainError, Instance, Order, SizeError
from edds.order import (
    brute_force_order,
    spf_agreement_experiment,
    spf_order,
)
from edds import csolve, order as order_module
from edds.csolve import solve_fixed_order


def test_spf_order_examples():
    # packet 1 (15 bits) goes first
    assert spf_order(Instance((15.0, 20.0), 50.0)).sequence() == (1, 2)
    # ascending sizes 12, 16, 20 -> packets 2, 3, 1 on air
    assert spf_order(Instance((20.0, 12.0, 16.0), 10.0)).sequence() == (2, 3, 1)
    # ties fall back to packet index
    assert spf_order(Instance((5.0, 5.0), 10.0)) == Order.identity(2)


def test_brute_force_picks_shorter_packet_first():
    order, report = brute_force_order(Instance((15.0, 20.0), 50.0))
    assert order.sequence()[0] == 1
    assert report.converged
    order2, _ = brute_force_order(Instance((12.0, 20.0), 20.0))
    assert order2.sequence()[0] == 1


def test_brute_force_symmetric_tie():
    inst = Instance((10.0, 10.0), 30.0)
    order, report = brute_force_order(inst)
    # lexicographic tie-break keeps the identity permutation
    assert order == Order.identity(2)
    other = solve_fixed_order(inst, Order((2, 1)))
    assert abs(other.cost.total - report.cost.total) <= 1e-6


def test_brute_force_dominates_spf():
    rng = np.random.default_rng(43)
    for _ in range(6):
        n = int(rng.integers(2, 4))
        bits = rng.uniform(1.0, 25.0, n)
        inst = Instance(tuple(bits), float(rng.uniform(0.5, 4.0) * bits.sum()))
        spf_cost = solve_fixed_order(inst, spf_order(inst)).cost.total
        _, best = brute_force_order(inst)
        assert best.cost.total <= spf_cost + 1e-9


def test_brute_force_relabel_invariance():
    inst = Instance((3.0, 18.0, 9.0), 40.0)
    _, rep = brute_force_order(inst)
    inst2 = Instance((18.0, 9.0, 3.0), 40.0)  # packets relabeled
    _, rep2 = brute_force_order(inst2)
    assert rep2.cost.total == pytest.approx(rep.cost.total, rel=1e-9)


def test_brute_force_size_cap():
    with pytest.raises(SizeError):
        brute_force_order(Instance((1.0,) * 9, 20.0))


def _loop_brute_force(inst):
    """The search as one solve_fixed_order per order, kept as the reference."""
    best = None
    for perm in permutations(range(1, inst.n + 1)):
        order = Order(perm)
        report = solve_fixed_order(inst, order)
        if best is None or report.cost.total < best[1].cost.total:
            best = (order, report)
    return best


def _outcome(search, inst):
    try:
        return repr(search(inst))
    except DomainError as exc:
        return f"DomainError: {exc}"


def test_batched_brute_force_matches_the_loop(monkeypatch):
    # The batched root find returns the loop's answer byte for byte: equal
    # sizes (ties), budgets from 1e-4 to 1e6 x the total bits, truncated
    # solves, an overflowing optimum, and one n = 7 search in a single block.
    rng = np.random.default_rng(67)
    full = csolve._MAX_STEPS
    cases = []
    for k in range(1000):
        n = int(rng.choice(5, p=[0.3, 0.35, 0.25, 0.08, 0.02])) + 1
        bits = rng.integers(1, 6, n) if k % 3 == 0 else rng.uniform(0.5, 40.0, n)
        energy = 10.0 ** rng.uniform(-4.0, 6.0) * bits.sum()
        steps = int(rng.integers(1, 7)) if k % 4 == 1 else full
        cases.append((Instance(tuple(float(b) for b in bits), float(energy)), steps))
    assert sum(len(set(inst.bits)) < inst.n for inst, _ in cases) >= 100
    assert {inst.n for inst, _ in cases} == {1, 2, 3, 4, 5}
    overflow = Instance((1023.9, 1023.9), 1e-3)
    bits = rng.uniform(1.0, 25.0, 7)
    cases += [(overflow, full), (Instance(tuple(float(b) for b in bits), 2.0 * float(bits.sum())), full)]
    for inst, steps in cases:
        monkeypatch.setattr(csolve, "_MAX_STEPS", steps)
        assert _outcome(brute_force_order, inst) == _outcome(_loop_brute_force, inst)
    assert _outcome(brute_force_order, overflow).startswith("DomainError: packet 2")


def test_spf_is_optimal_at_the_brute_force_cap():
    # n = 8, all 40320 orders: the SPF theorem at the largest n brute force takes
    bits = np.random.default_rng(71).uniform(1.0, 25.0, 8)
    inst = Instance(tuple(float(b) for b in bits), 2.0 * float(bits.sum()))
    spf_cost = solve_fixed_order(inst, spf_order(inst)).cost.total
    _, best = brute_force_order(inst)
    assert abs(spf_cost - best.cost.total) <= 1e-9 * best.cost.total


def test_agreement_experiment_empty():
    stats = spf_agreement_experiment(0, rng_seed=1, n=2)
    assert stats.agreement == 1.0
    assert stats.worst_instance is None
    assert stats.rows == ()


def test_agreement_experiment_runs_and_is_consistent():
    stats = spf_agreement_experiment(6, rng_seed=5, n=2)
    assert stats.count == 6 and len(stats.rows) == 6
    for _, label, spf_cost, opt_cost, gap in stats.rows:
        assert gap == pytest.approx(spf_cost - opt_cost, rel=1e-12)
        assert spf_cost >= opt_cost - 1e-9  # brute force dominates
        assert "|" in label and ";" in label or stats.n == 1
    assert 0.0 <= stats.agreement <= 1.0
    # deterministic given the seed
    again = spf_agreement_experiment(6, rng_seed=5, n=2)
    assert again == stats


def test_agreement_experiment_serialization():
    stats = spf_agreement_experiment(3, rng_seed=9, n=2)
    doc = stats.to_doc()
    assert doc["count"] == 3 and doc["n"] == 2 and doc["seed"] == 9
    csv_text = stats.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "seed,instance,spf_cost,opt_cost,gap"
    assert len(lines) == 4


def test_agreement_experiment_reports_a_losing_order(monkeypatch):
    # SPF is optimal, so only another order in its place, longest first,
    # reaches the branch that reports a disagreement.
    monkeypatch.setattr(
        order_module, "spf_order",
        lambda inst: Order.from_sequence(reversed(spf_order(inst).sequence())),
    )
    stats = spf_agreement_experiment(4, rng_seed=5, n=3)
    assert stats.agreements < stats.count
    assert stats.worst_gap > 0
    worst = stats.worst_instance
    label = ";".join(f"{b:.10g}" for b in worst.bits) + f"|{worst.energy:.10g}"
    seed, _, spf_cost, opt_cost, gap = next(row for row in stats.rows if row[1] == label)
    assert gap == stats.worst_gap == max(row[4] for row in stats.rows)
    assert f"{seed},{label},{spf_cost!r},{opt_cost!r},{gap!r}" in stats.to_csv().split("\n")


def test_agreement_experiment_size_cap():
    with pytest.raises(SizeError):
        spf_agreement_experiment(1, rng_seed=0, n=9)


_sizes = st.one_of(
    st.floats(0.5, 40.0),
    st.integers(1, 5).map(float),  # small integers make equal sizes common
)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    bits=st.integers(1, 5).flatmap(lambda n: st.lists(_sizes, min_size=n, max_size=n)),
    scale=st.floats(-3.0, 3.0),
)
def test_spf_is_optimal(bits, scale):
    # The order module's Lagrangian proof: no order costs less than SPF, for
    # any sizes (ties included) and budgets from 1e-3 to 1e3 x the total bits.
    inst = Instance(tuple(bits), 10.0 ** scale * sum(bits))
    spf_cost = solve_fixed_order(inst, spf_order(inst)).cost.total
    _, best = brute_force_order(inst)
    assert abs(spf_cost - best.cost.total) <= 1e-9 * best.cost.total

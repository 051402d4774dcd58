"""Order-search tests: brute force, shortest-packet-first, and the agreement
experiment."""

import numpy as np
import pytest

from edds.model import Instance, Order, SizeError
from edds.order import (
    brute_force_order,
    spf_agreement_experiment,
    spf_order,
)
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


def test_agreement_experiment_size_cap():
    with pytest.raises(SizeError):
        spf_agreement_experiment(1, rng_seed=0, n=9)

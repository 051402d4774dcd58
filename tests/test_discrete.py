"""Discrete allocation tests: cost evaluation, the greedy allocator and the
exhaustive oracle."""

import itertools
import math

import pytest

from edds.model import InfeasibleError, Instance, SizeError
from edds.discrete import (
    DiscreteAllocation,
    DiscreteParams,
    certificate_sweep,
    discrete_allocation_from_doc,
    discrete_cost,
    greedy_allocate,
    oracle_allocate,
    trace_to_csv,
)


def test_params_validation_and_budget():
    with pytest.raises(ValueError):
        DiscreteParams(0.0, 1.0, 1, 1)
    with pytest.raises(ValueError):
        DiscreteParams(1.0, -1.0, 1, 1)
    with pytest.raises(ValueError):
        DiscreteParams(1.0, 1.0, -1, 1)
    params = DiscreteParams.for_instance(Instance((2.0,), 3.7), 1.0, 0.5)
    assert params.budget_quanta == 7  # floor(3.7 / 0.5)
    assert params.max_slots == 7


def test_for_instance_caps_the_budget():
    # refused on E / quantum alone, before floor() or any table
    with pytest.raises(SizeError):
        DiscreteParams.for_instance(Instance((2.0,), 1e15), 1.0, 1e-3)
    with pytest.raises(SizeError):
        DiscreteParams.for_instance(Instance((2.0,), 1e300), 1.0, 1e-300)
    for quantum in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="positive"):
            DiscreteParams.for_instance(Instance((2.0,), 2.0), 1.0, quantum)
    params = DiscreteParams.for_instance(Instance((2.0,), 1e7), 1.0, 1.0)
    assert params.budget_quanta == 10_000_000


def test_allocation_validation_and_doc_roundtrip():
    alloc = DiscreteAllocation((1, 2), (2, 1))
    assert discrete_allocation_from_doc(alloc.to_doc()) == alloc
    with pytest.raises(ValueError):
        DiscreteAllocation((1,), (0,))
    with pytest.raises(ValueError):
        DiscreteAllocation((0,), (1,))
    with pytest.raises(ValueError):
        DiscreteAllocation((1, 1), (1,))


def test_discrete_cost_untransmitted_packet():
    inst = Instance((5.0,), 0.0)
    params = DiscreteParams(1.0, 1.0, 0, 0)
    cost = discrete_cost(inst, params, DiscreteAllocation((), ()))
    assert cost.per_packet == (32.0,)
    assert cost.total == 32.0


def test_discrete_cost_exact_log_powers():
    # one slot, three quanta: the slot carries log2(4) = 2 bits
    inst = Instance((2.0,), 3.0)
    params = DiscreteParams(1.0, 1.0, 3, 1)
    cost = discrete_cost(inst, params, DiscreteAllocation((1,), (3,)))
    assert cost.total == pytest.approx(2.0)


def test_discrete_cost_two_packet_example():
    # slots (1 -> packet 1, R=2), (2 -> packet 2, R=2); each carries log2(3) bits
    inst = Instance((2.0, 2.0), 4.0)
    params = DiscreteParams(1.0, 1.0, 4, 2)
    cost = discrete_cost(inst, params, DiscreteAllocation((1, 2), (2, 2)))
    assert cost.per_packet[0] == pytest.approx(4.0 / 3.0 + 1.0)
    assert cost.per_packet[1] == pytest.approx(4.0 / 3.0 + 2.0)
    assert cost.total == pytest.approx(17.0 / 3.0)


def test_discrete_cost_enforces_budget_and_slot_cap():
    inst = Instance((2.0,), 2.0)
    params = DiscreteParams(1.0, 1.0, 2, 2)
    with pytest.raises(InfeasibleError):
        discrete_cost(inst, params, DiscreteAllocation((1,), (3,)))
    with pytest.raises(InfeasibleError):
        discrete_cost(inst, params, DiscreteAllocation((1, 1, 1), (1, 1, 1)))
    with pytest.raises(ValueError):
        discrete_cost(inst, params, DiscreteAllocation((2,), (1,)))


def test_greedy_zero_budget():
    inst = Instance((2.0, 3.0), 0.0)
    params = DiscreteParams(1.0, 1.0, 0, 0)
    alloc, cost, trace = greedy_allocate(inst, params)
    assert alloc.slots == 0
    assert cost.total == pytest.approx(4.0 + 8.0)
    assert trace == ()


def test_greedy_worked_single_packet_example():
    # B=2, l=1, e=1, Q=2: open slot 1 (4 -> 3), then load it again (3 -> 7/3);
    # a second slot would cost 2**(2-2) + 2 = 3, so it is never opened.
    inst = Instance((2.0,), 2.0)
    params = DiscreteParams(1.0, 1.0, 2, 2)
    alloc, cost, trace = greedy_allocate(inst, params)
    assert alloc == DiscreteAllocation((1,), (2,))
    assert cost.total == pytest.approx(2.0 + 1.0 / 3.0)
    assert [s.action for s in trace] == ["open", "add"]
    assert [s.slot for s in trace] == [1, 1]
    assert trace[0].total_cost == pytest.approx(3.0)
    assert trace[1].total_cost == pytest.approx(2.0 + 1.0 / 3.0)


def test_greedy_stops_on_plateau_but_spend_all_continues():
    # B=1, l=1, e=1: the first quantum only ties the do-nothing cost (2.0),
    # so the default mode stops; spend-all pushes through the plateau.
    inst = Instance((1.0,), 2.0)
    params = DiscreteParams(1.0, 1.0, 2, 2)
    alloc, cost, trace = greedy_allocate(inst, params)
    assert alloc.slots == 0 and cost.total == 2.0 and trace == ()
    alloc2, cost2, trace2 = greedy_allocate(inst, params, spend_all=True)
    assert alloc2 == DiscreteAllocation((1,), (2,))
    assert cost2.total == pytest.approx(2.0 ** (1 - math.log2(3)) + 1.0)
    assert len(trace2) == 2


def test_greedy_trace_strictly_decreasing_and_feasible():
    checked = 0
    for inst, params in itertools.islice(certificate_sweep(), 0, 936, 37):
        alloc, cost, trace = greedy_allocate(inst, params)
        totals = [s.total_cost for s in trace]
        assert all(b < a for a, b in zip(totals, totals[1:]))
        if totals:
            start = sum(2.0 ** b for b in inst.bits)
            assert totals[0] < start
        assert sum(alloc.quanta) <= params.budget_quanta
        assert alloc.slots <= params.max_slots
        # evaluating through the validating entry point must agree
        assert discrete_cost(inst, params, alloc).total == pytest.approx(cost.total)
        checked += 1
    assert checked > 20


def test_adding_quantum_to_occupied_slot_never_raises_own_cost():
    for inst, params in itertools.islice(certificate_sweep(), 0, 936, 53):
        alloc, cost, _ = greedy_allocate(inst, params)
        roomy = DiscreteParams(
            params.slot_len, params.quantum, params.budget_quanta + 1, params.max_slots
        )
        for j in range(alloc.slots):
            quanta = list(alloc.quanta)
            quanta[j] += 1
            bumped = discrete_cost(inst, roomy, DiscreteAllocation(alloc.owner, tuple(quanta)))
            packet = alloc.owner[j] - 1
            assert bumped.per_packet[packet] <= cost.per_packet[packet] + 1e-12


def test_oracle_single_packet_example():
    inst = Instance((2.0,), 2.0)
    params = DiscreteParams(1.0, 1.0, 2, 2)
    alloc, cost = oracle_allocate(inst, params)
    assert alloc == DiscreteAllocation((1,), (2,))
    assert cost.total == pytest.approx(2.0 + 1.0 / 3.0)


def test_oracle_zero_budget():
    inst = Instance((2.0,), 0.0)
    alloc, cost = oracle_allocate(inst, DiscreteParams(1.0, 1.0, 0, 0))
    assert alloc.slots == 0 and cost.total == 4.0


def test_oracle_matches_independent_enumeration():
    # cross-check the oracle against a from-scratch enumeration written here
    inst = Instance((2.0, 1.0), 3.0)
    params = DiscreteParams(0.5, 1.0, 3, 3)
    best = None
    for j in range(0, params.max_slots + 1):
        for owner in itertools.product(range(1, 3), repeat=j):
            for quanta in itertools.product(range(1, 4), repeat=j):
                if sum(quanta) > params.budget_quanta:
                    continue
                total = discrete_cost(
                    inst, params, DiscreteAllocation(owner, quanta)
                ).total
                if best is None or total < best - 1e-15:
                    best = total
    _, cost = oracle_allocate(inst, params)
    assert cost.total == pytest.approx(best, rel=1e-12)


def test_oracle_prefers_fewer_slots_on_ties():
    # with two identical packets and generous bounds, symmetric optima exist;
    # the reported one must not use more slots than any equal-cost rival
    inst = Instance((1.0, 1.0), 2.0)
    params = DiscreteParams(1.0, 1.0, 2, 2)
    alloc, cost = oracle_allocate(inst, params)
    for owner in itertools.product((1, 2), repeat=1):
        for quanta in itertools.product((1, 2), repeat=1):
            if sum(quanta) <= 2:
                rival = discrete_cost(inst, params, DiscreteAllocation(owner, quanta))
                if abs(rival.total - cost.total) <= 1e-12:
                    assert alloc.slots <= 1


def test_oracle_size_errors():
    with pytest.raises(SizeError):
        oracle_allocate(Instance((1.0,) * 4, 2.0), DiscreteParams(1.0, 1.0, 2, 2))
    with pytest.raises(SizeError):
        oracle_allocate(Instance((1.0,), 7.0), DiscreteParams(1.0, 1.0, 7, 2))
    with pytest.raises(SizeError):
        oracle_allocate(Instance((1.0,), 2.0), DiscreteParams(1.0, 1.0, 2, 8))


def test_greedy_within_twice_oracle_spot_checks():
    for bits, energy, slot_len, quantum in [
        ((2.0, 2.0), 4.0, 1.0, 1.0),
        ((1.0, 3.0), 3.0, 0.5, 1.0),
        ((3.0,), 6.0, 1.0, 1.0),
    ]:
        inst = Instance(bits, energy)
        params = DiscreteParams.for_instance(inst, slot_len, quantum, max_slots=6)
        _, g_cost, _ = greedy_allocate(inst, params)
        _, o_cost = oracle_allocate(inst, params)
        assert g_cost.total <= 2.0 * o_cost.total + 1e-12


def test_trace_csv_shape():
    inst = Instance((2.0,), 2.0)
    params = DiscreteParams(1.0, 1.0, 2, 2)
    _, _, trace = greedy_allocate(inst, params)
    text = trace_to_csv(trace)
    lines = text.strip().split("\n")
    assert lines[0] == "iteration,action,slot,packet,total_cost"
    assert len(lines) == 3
    assert lines[1].startswith("1,open,1,1,")


def test_certificate_sweep_shape():
    pairs = list(certificate_sweep())
    assert len(pairs) == 936
    assert all(p.budget_quanta <= 6 and i.n <= 3 for i, p in pairs)

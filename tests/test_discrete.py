"""Discrete allocation tests: cost evaluation, the greedy allocator and the
subset-DP oracle."""

import dataclasses
import itertools
import math
import pickle
import random

import numpy as np
import pytest

from edds import discrete
from edds.model import InfeasibleError, Instance, SizeError, shannon_bits
from edds.discrete import (
    MAX_ORACLE_WORK,
    MAX_QUANTA,
    DiscreteAllocation,
    DiscreteParams,
    TraceStep,
    _oracle_plan,
    _packet_costs,
    _slot_bit_table,
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
    # infinite or NaN grids, and slots shorter than the model's t_min
    for slot_len, quantum, field in [(math.inf, 1.0, "slot_len"), (math.nan, 1.0, "slot_len"),
                                     (0.5e-6, 1.0, "slot_len"), (1.0, math.inf, "quantum"),
                                     (1.0, math.nan, "quantum")]:
        with pytest.raises(ValueError, match=field):
            DiscreteParams(slot_len, quantum, 1, 1)
    assert DiscreteParams(1e-6, 1.0, 1, 1).slot_len == 1e-6
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
    params = DiscreteParams.for_instance(Instance((2.0,), MAX_QUANTA), 1.0, 1.0)
    assert params.budget_quanta == MAX_QUANTA == 1_000_000
    with pytest.raises(SizeError, match="above the cap"):
        DiscreteParams.for_instance(Instance((2.0,), MAX_QUANTA + 1), 1.0, 1.0)


def test_allocation_validation_and_doc_roundtrip():
    alloc = DiscreteAllocation((1, 2), (2, 1))
    assert discrete_allocation_from_doc(alloc.to_doc()) == alloc
    with pytest.raises(ValueError):
        DiscreteAllocation((1,), (0,))
    with pytest.raises(ValueError):
        DiscreteAllocation((0,), (1,))
    with pytest.raises(ValueError):
        DiscreteAllocation((1, 1), (1,))


def test_allocation_refuses_fractional_owners_and_quanta():
    # refused, not truncated: ((1.9,), (2.5,)) must not read ((1,), (2,))
    for owner, quanta in (((1.9,), (2.5,)), ((1.9,), (2,)), ((1, 2), (1, 2.5))):
        with pytest.raises(ValueError, match="integers"):
            DiscreteAllocation(owner, quanta)
    with pytest.raises(ValueError, match="integers"):
        discrete_allocation_from_doc({"slots": [{"owner": 1, "quanta": 2.5}]})
    with pytest.raises(ValueError, match="integers"):
        discrete_allocation_from_doc({"slots": [{"owner": 1.5, "quanta": 2}]})
    alloc = discrete_allocation_from_doc({"slots": [{"owner": 2.0, "quanta": 3.0}]})
    assert alloc == DiscreteAllocation((2,), (3,))
    assert type(alloc.owner[0]) is int and type(alloc.quanta[0]) is int


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
    # One guard on the DP's own step count, checked before any table is built.
    assert _oracle_plan(3, 6, 6)[0] < _oracle_plan(4, 500, 500)[0] <= MAX_ORACLE_WORK
    with pytest.raises(SizeError, match="steps, above the cap of"):
        oracle_allocate(Instance((1.0,) * 24, 2.0), DiscreteParams(1.0, 1.0, 2, 2))
    with pytest.raises(SizeError, match="steps, above the cap of"):
        oracle_allocate(Instance((1.0,), 5000.0), DiscreteParams(1.0, 1.0, 5000, 5000))
    with pytest.raises(SizeError, match="steps, above the cap of"):
        oracle_allocate(Instance((1.0, 2.0, 3.0), 300.0), DiscreteParams(1.0, 1.0, 300, 100))
    # four packets, seven quanta and eight slots fit the guard
    for bits, q, s in (((1.0,) * 4, 2, 2), ((1.0,), 7, 2), ((1.0,), 2, 8)):
        alloc, cost = oracle_allocate(Instance(bits, float(q)), DiscreteParams(1.0, 1.0, q, s))
        assert alloc.slots <= s and sum(alloc.quanta) <= q
    # with no quantum or no slot to spend nothing is built, for any packet count
    for q, s in ((0, 0), (0, 5), (5, 0)):
        alloc, cost = oracle_allocate(Instance((1.0,) * 40, float(q)), DiscreteParams(1.0, 1.0, q, s))
        assert alloc.slots == 0 and cost.total == 80.0


def test_slot_bit_table_matches_shannon_bits():
    # The table skips shannon_bits' domain checks but must keep its floats,
    # the checked form included (loads whose energy passes _E_SAFE).
    rng = random.Random(3)
    grid = [(0.5, 1.0), (1.0, 0.5), (1e-6, 1e-3), (4.0, 1e303), (2.0, 1e305)]
    grid += [(rng.uniform(1e-6, 8.0), rng.uniform(1e-3, 8.0)) for _ in range(40)]
    for slot_len, quantum in grid:
        params = DiscreteParams(slot_len, quantum, 0, 0)
        for r_max in (0, 1, 7, 300):
            want = shannon_bits(quantum * np.arange(r_max + 1), slot_len).tolist()
            assert _slot_bit_table(params, r_max) == want, (slot_len, quantum, r_max)


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


def test_greedy_exceeds_twice_optimal_off_the_sweep():
    # The 2x bound is certified on the sweep only.  Here Q = 24: the greedy
    # opens slots 1-6 for packet 2, after which packet 1 never transmits.
    inst = Instance((4.0, 7.0), 12.0)
    params = DiscreteParams.for_instance(inst, 1.0, 0.5)
    greedy = 16 + 128 / 729 + 6  # packet 1 idle; packet 2 sends 6 x log2(3) bits
    for spend_all in (False, True):
        _, g_cost, _ = greedy_allocate(inst, params, spend_all)
        assert g_cost.total == pytest.approx(greedy, rel=1e-12)
    # Packet 1 gets slot 1 with 8 quanta, packet 2 slots 2-5 with 4 quanta each.
    better = discrete_cost(inst, params, DiscreteAllocation((1, 2, 2, 2, 2), (8, 4, 4, 4, 4)))
    assert better.total == pytest.approx(16 / 5 + 1 + 128 / 81 + 5, rel=1e-12)
    assert greedy / better.total == pytest.approx(2.057057, rel=1e-6)


def test_greedy_trace_total_drifts_when_huge_packets_shrink():
    # Guarantee 2 holds for the running sum T - p + d, not for the cost:
    # with packets near 2**59 the idle total is about 1.3e18, where one ulp
    # is 256, and the rounding of each early step stays in the total after
    # those packets' costs fall.  The returned cost is re-priced exactly.
    bits = (38.14, 10, 42.934, 51.465, 15, 14.34, 58.761, 30, 40.769, 17.414, 9, 17.664, 59.537)
    inst = Instance(bits, 549.0)
    params = DiscreteParams.for_instance(inst, 0.5, 1.0)
    for spend_all in (False, True):
        alloc, cost, trace = greedy_allocate(inst, params, spend_all)
        assert len(trace) == 549
        assert cost.total == discrete_cost(inst, params, alloc).total
        assert cost.total == pytest.approx(3069.07308434, rel=1e-10)
        assert trace[-1].total_cost == pytest.approx(2885.06565266, rel=1e-10)
        assert trace[-1].total_cost / cost.total == pytest.approx(0.94004, rel=1e-5)


def test_trace_csv_shape():
    inst = Instance((2.0,), 2.0)
    params = DiscreteParams(1.0, 1.0, 2, 2)
    _, _, trace = greedy_allocate(inst, params)
    text = trace_to_csv(trace)
    lines = text.strip().split("\n")
    assert lines[0] == "iteration,action,slot,packet,total_cost"
    assert len(lines) == 3
    assert lines[1].startswith("1,open,1,1,")


def test_trace_step_is_slotted_and_unchanged():
    step = TraceStep(3, "add", 2, 1, 0.1 + 0.2)
    assert not hasattr(step, "__dict__")
    assert repr(step) == (
        "TraceStep(iteration=3, action='add', slot=2, packet=1, "
        "total_cost=0.30000000000000004)"
    )
    assert step == TraceStep(3, "add", 2, 1, 0.30000000000000004)
    assert hash(step) == hash(TraceStep(3, "add", 2, 1, 0.30000000000000004))
    with pytest.raises(AttributeError):
        step.slot = 5
    assert trace_to_csv((step,)) == (
        "iteration,action,slot,packet,total_cost\n3,add,2,1,0.30000000000000004\n"
    )


def test_trace_step_is_a_dataclass_that_replaces_and_pickles():
    step = TraceStep(3, "add", 2, 1, 0.1 + 0.2)
    assert dataclasses.is_dataclass(step)
    assert [f.name for f in dataclasses.fields(step)] == [
        "iteration", "action", "slot", "packet", "total_cost"]
    moved = dataclasses.replace(step, total_cost=1.5)
    assert type(moved) is TraceStep
    assert moved == TraceStep(3, "add", 2, 1, 1.5)
    back = pickle.loads(pickle.dumps(step))
    assert type(back) is TraceStep and back == step
    # the greedy's own steps are the same record
    _, _, trace = greedy_allocate(Instance((2.0,), 2.0), DiscreteParams(1.0, 1.0, 2, 2))
    assert type(trace[0]) is TraceStep
    assert dataclasses.replace(trace[0], iteration=7) == TraceStep(7, *trace[0][1:])


def test_certificate_sweep_shape():
    pairs = list(certificate_sweep())
    assert len(pairs) == 936
    assert all(p.budget_quanta <= 6 and i.n <= 3 for i, p in pairs)


def _full_scan_greedy(inst, params, spend_all=False):
    """Reference greedy: keys every occupied slot and every open at every
    step, O(slots + n) a step, and takes the least (key, slot, packet)."""
    bits = inst.bits
    n = inst.n
    slot_len = params.slot_len
    table = _slot_bit_table(params, params.budget_quanta)
    owner, quanta = [], []
    sent = [0.0] * n
    imax = [0] * n
    per = [2.0 ** b for b in bits]
    total = float(sum(per))
    trace = []
    spent = 0
    while spent < params.budget_quanta:
        best = None
        for j, (p, r) in enumerate(zip(owner, quanta), start=1):
            head = bits[p - 1] - sent[p - 1]
            new_pow = 2.0 ** (head - table[r + 1] + table[r])
            cand = (new_pow - 2.0 ** head, j, p, new_pow + slot_len * imax[p - 1])
            if best is None or cand[:3] < best[:3]:
                best = cand
        j = len(owner) + 1
        if j <= params.max_slots:
            for p in range(1, n + 1):
                open_pow = 2.0 ** (bits[p - 1] - sent[p - 1] - table[1])
                key = (open_pow - per[p - 1]) + slot_len * j
                cand = (key, j, p, open_pow + slot_len * j)
                if best is None or cand[:3] < best[:3]:
                    best = cand
        if best is None:
            break
        _, j, p, new_d = best
        i = p - 1
        new_total = total - per[i] + new_d
        if not spend_all and new_total >= total:
            break
        if j <= len(owner):
            action = "add"
            sent[i] += table[quanta[j - 1] + 1] - table[quanta[j - 1]]
            quanta[j - 1] += 1
        else:
            action = "open"
            owner.append(p)
            quanta.append(1)
            sent[i] += table[1]
            imax[i] = j
        per[i] = new_d
        total = new_total
        spent += 1
        trace.append(TraceStep(spent, action, j, p, total))
    alloc = DiscreteAllocation(tuple(owner), tuple(quanta))
    return alloc, discrete_cost(inst, params, alloc), tuple(trace)


def _random_runs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 32)
        bits = tuple(
            float(rng.randint(1, 40)) if rng.random() < 0.5 else round(rng.uniform(0.5, 60.0), 3)
            for _ in range(n)
        )
        slot_len = rng.choice((0.1, 0.25, 0.5, 1.0, 2.0))
        quantum = rng.choice((0.25, 0.3, 0.5, 1.0, 2.0))
        q = rng.randint(0, 700)
        max_slots = rng.choice((None, rng.randint(0, 40)))
        inst = Instance(bits, quantum * q)
        yield inst, DiscreteParams.for_instance(inst, slot_len, quantum, max_slots)


def _tie_runs(seed):
    """Runs full of float ties: many equal packets, so that exact ties cross
    packets; a slot cap below Q, so that opens close mid-run; Q = 0; 2**60
    packets beside small ones, whose rounding drops the small packets' costs
    from the running total; sizes within 1e-14 of each other; and B=(24, 25),
    whose changes fall below one ulp of the running total."""
    rng = random.Random(seed)
    for n in (64, 97, 256):
        sizes = (rng.choice((2.0, 3.0, 5.0)), round(rng.uniform(4.0, 12.0), 2))
        bits = tuple(sizes[k % 7 == 0] for k in range(n))
        q = n * 3
        inst = Instance(bits, float(q))
        yield inst, DiscreteParams.for_instance(inst, 0.25, 1.0, max_slots=q // 4)
        yield inst, DiscreteParams.for_instance(inst, 0.5, 1.0, max_slots=0)
        zero = Instance(bits, 0.0)
        yield zero, DiscreteParams.for_instance(zero, 1.0, 1.0)
    huge = Instance((60.0, 3.0, 3.0, 2.0, 60.0, 1.0), 40.0)
    for slot_len in (0.1, 1.0):
        yield huge, DiscreteParams.for_instance(huge, slot_len, 0.5, max_slots=12)
    for size, q in ((3.0, 49), (5.0, 4)):
        offsets = (1e-14, 0, -1e-15, 1.2e-15, 0, -1e-15, 3e-16, 1e-14, 0, 0, 1e-14)
        close = Instance(tuple(size * (1 + d) for d in offsets), 0.5 * q)
        yield close, DiscreteParams.for_instance(close, 0.1, 0.5, max_slots=6)
    tie = Instance((24.0, 25.0), 3000.0)
    yield tie, DiscreteParams.for_instance(tie, 1.0, 1.0)


def test_greedy_matches_full_scan_reference(monkeypatch):
    # One add per packet, at its first least-loaded slot, and two heaps must
    # pick exactly the full scan's move.  The last run rebuilds each heap
    # from its live entries once, in both modes.
    rebuilt = []
    real = discrete._drop_stale

    def drop_stale(heap, ver):
        rebuilt.append(len(heap[0]))
        real(heap, ver)

    monkeypatch.setattr(discrete, "_drop_stale", drop_stale)
    stale = Instance((7.943, 6.049), 37.75)
    runs = [*certificate_sweep(), *_random_runs(60, seed=6),
            (stale, DiscreteParams.for_instance(stale, 0.02, 0.25))]
    for inst, params in runs:
        for spend_all in (False, True):
            got = greedy_allocate(inst, params, spend_all)
            want = _full_scan_greedy(inst, params, spend_all)
            assert repr(got) == repr(want), (inst.n, params, spend_all)
    assert 4 in rebuilt  # an add entry is (key, slot, packet, version)
    assert 3 in rebuilt  # an open entry is (key, packet, version)


def test_greedy_near_set_matches_full_scan_reference():
    # Packets whose keys lie within rounding of the least key (the near set)
    # must not change the pick: on the tie runs the step must still choose
    # the full scan's move.
    runs = list(_tie_runs(seed=11))
    assert any(p.budget_quanta == 0 for _, p in runs)
    assert any(0 < p.max_slots < p.budget_quanta for _, p in runs)
    for inst, params in runs:
        for spend_all in (False, True):
            got = greedy_allocate(inst, params, spend_all)
            want = _full_scan_greedy(inst, params, spend_all)
            assert repr(got) == repr(want), (inst.n, params, spend_all)

def test_greedy_adds_at_first_least_loaded_slot():
    # Replays each trace: every add lands on its packet's first least-loaded
    # slot.  The last run opens slot 3 while slots 1 and 2 hold 5 quanta,
    # so the late slot fills alone, (5, 5, 1) to (5, 5, 5): each time it is
    # the whole least-loaded suffix, its index must stay on slot 3.
    late = Instance((9.3,), 0.05 * 31)
    runs = [*certificate_sweep(), *_random_runs(60, seed=6), *_tie_runs(seed=11),
            (late, DiscreteParams.for_instance(late, 2.0, 0.05))]
    for inst, params in runs:
        for spend_all in (False, True):
            _, _, trace = greedy_allocate(inst, params, spend_all)
            owner, quanta = [], []
            for step in trace:
                if step.action == "open":
                    owner.append(step.packet)
                    quanta.append(1)
                    continue
                mine = [j for j, p in enumerate(owner, start=1) if p == step.packet]
                least = min(quanta[j - 1] for j in mine)
                first = next(j for j in mine if quanta[j - 1] == least)
                assert step.slot == first, (inst.n, params, spend_all, step)
                quanta[step.slot - 1] += 1


def test_greedy_loads_one_slot_with_the_whole_budget():
    # The last add takes the slot to r = Q, whose next add the bit table cannot score.
    for q in (1, 2, 9):
        inst = Instance((40.0,), float(q))
        params = DiscreteParams(1.0, 1.0, q, 1)
        alloc, cost, trace = greedy_allocate(inst, params, spend_all=True)
        assert alloc == DiscreteAllocation((1,), (q,))
        assert len(trace) == q


def _full_scan_oracle(inst, params):
    """Reference oracle: scores every candidate with the scalar cost, in order."""

    def compositions(parts, total):
        """All tuples of `parts` positive ints summing to at most `total`."""
        if parts == 0:
            yield ()
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(parts - 1, total - first):
                yield (first,) + rest

    bits = inst.bits
    table = _slot_bit_table(params, params.budget_quanta)
    best_owner = ()
    best_quanta = ()
    best_total = float(sum(2.0 ** b for b in bits))  # J = 0: nothing sent
    for j in range(1, min(params.max_slots, params.budget_quanta) + 1):
        for owner in itertools.product(range(1, inst.n + 1), repeat=j):
            for quanta in compositions(j, params.budget_quanta):
                total = sum(_packet_costs(bits, params, owner, quanta, table))
                if total < best_total:
                    best_owner, best_quanta, best_total = owner, quanta, total
    alloc = DiscreteAllocation(best_owner, best_quanta)
    return alloc, discrete_cost(inst, params, alloc)


def _random_oracle_inputs(count, seed):
    """Instances of at most 3 packets, 6 quanta and 6 slots, the sizes the
    enumeration oracle was capped at: equal bits (exact and last-ulp ties),
    Q = 0, S = 0, S below and above Q, and non-integer B, l and e."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(1, 3)
        kind = k % 4
        if kind == 0:  # all packets the same size
            bits = (rng.choice((1.0, 2.0, 3.0, round(rng.uniform(0.1, 12.0), 4))),) * n
        elif kind == 1:
            bits = tuple(float(rng.randint(1, 4)) for _ in range(n))
        elif kind == 2:
            bits = tuple(rng.uniform(0.01, 30.0) for _ in range(n))
        else:  # wide ranges: near the float64 edge, or far below one bit
            bits = tuple(rng.choice((rng.uniform(900.0, 1020.0), rng.uniform(1e-3, 0.5)))
                         for _ in range(n))
        slot_len = rng.choice((0.5, 1.0, 0.3, rng.uniform(0.05, 4.0)))
        quantum = rng.choice((0.5, 1.0, 0.7, rng.uniform(0.05, 8.0)))
        q = rng.randint(0, 6)
        s = rng.randint(0, 6)
        yield Instance(bits, quantum * q), DiscreteParams(slot_len, quantum, q, s)


def test_oracle_matches_full_scan_reference():
    # The DP must reach the full scan's optimum.  Both are priced by the same
    # _packet_costs, so the DP never reads lower; it may read a few ulps
    # higher where its allocation sums a packet's bits in another slot order.
    shapes = set()
    for inst, params in [*certificate_sweep(), *_random_oracle_inputs(1000, seed=7)]:
        got = oracle_allocate(inst, params)[1].total
        want = _full_scan_oracle(inst, params)[1].total
        assert want <= got <= want * (1 + 1e-15), (inst, params)
        q, s = params.budget_quanta, params.max_slots
        shapes.add((len(set(inst.bits)) < inst.n, q == 0, s == 0, s < q, s > q))
    # the draws reached equal bits, Q = 0, S = 0, S < Q and S > Q
    for flag in range(5):
        assert any(shape[flag] for shape in shapes)


def test_oracle_matches_full_scan_past_the_old_caps():
    # Four packets, and nine quanta for one packet: sizes the enumeration
    # refused, with the slot cap at Q and below it.
    rng = random.Random(8)
    runs = []
    for s in (6, 6, 4, 3):
        bits = tuple(round(rng.uniform(0.5, 9.0), 3) for _ in range(4))
        runs.append((Instance(bits, 6.0), DiscreteParams(rng.choice((0.5, 1.0)), 1.0, 6, s)))
    for s in (9, 5):
        bits = (round(rng.uniform(2.0, 12.0), 3),)
        runs.append((Instance(bits, 4.5), DiscreteParams(0.5, 0.5, 9, s)))
    for inst, params in runs:
        got = oracle_allocate(inst, params)[1].total
        want = _full_scan_oracle(inst, params)[1].total
        assert want <= got <= want * (1 + 1e-15), (inst, params)


@pytest.mark.parametrize("bits, energy, slot_len, quantum, optimum, ratios", [
    ((4.0, 7.0), 12.0, 1.0, 0.5, 10.780247, (2.057057, 2.057057)),
    # the discrete problem is not shortest-first optimal: packet 2 goes before
    # packet 4, and the smallest packet stays idle
    ((7.49, 12.61, 7.49, 11.92, 4.19), 15.0, 4.0, 1.0, 254.131281, (1.287845, 1.287845)),
    ((13.59,), 17.5, 4.0, 0.25, 9.157167, (6.552538, 6.552538)),  # the greedy opens 15 slots
    ((1.74,), 12.0, 1.0, 0.25, 1.256950, (2.657505, 1.0)),  # the default mode stops on a plateau
    ((8.0, 13.0, 20.0, 20.0), 500.0, 1.0, 1.0, 27.574567, (6.128837, 6.128837)),  # Q = 500
    ((8.0, 13.0, 20.0, 20.0), 125.0, 1.0, 0.25, 48.815261, (11.635706, 11.635706)),  # Q = 500
])
def test_oracle_pins_optima_past_the_old_caps(bits, energy, slot_len, quantum, optimum, ratios):
    inst = Instance(bits, energy)
    params = DiscreteParams.for_instance(inst, slot_len, quantum)
    alloc, cost = oracle_allocate(inst, params)
    assert cost.total == pytest.approx(optimum, abs=1e-6)
    assert discrete_cost(inst, params, alloc).total == cost.total
    for spend_all, ratio in zip((False, True), ratios):
        g_cost = greedy_allocate(inst, params, spend_all)[1]
        assert g_cost.total / cost.total == pytest.approx(ratio, abs=1e-6)


# The continuous SPF solve of bench/run.py's greedy-n64-q4000, rounded: each
# packet's R = floor(E_i / e) quanta over k = clamp(round(t_i / l), 1, R)
# slots; k = R = 0 marks a packet left idle.
_N64_Q4000_PLAN = (
    (1, 2, 52), (2, 8, 82), (3, 2, 64), (4, 6, 93), (5, 4, 92), (6, 2, 60), (7, 5, 100),
    (8, 0, 0), (9, 9, 79), (10, 0, 0), (11, 4, 84), (12, 2, 51), (13, 5, 95), (14, 13, 63),
    (15, 7, 88), (16, 5, 98), (17, 0, 0), (18, 7, 85), (19, 6, 92), (20, 0, 0), (21, 3, 86),
    (22, 12, 68), (23, 1, 20), (24, 7, 90), (25, 3, 75), (26, 1, 5), (27, 1, 24), (28, 0, 0),
    (29, 0, 0), (30, 8, 82), (31, 2, 49), (32, 6, 92), (33, 3, 72), (34, 1, 23), (35, 10, 73),
    (36, 9, 81), (37, 5, 97), (38, 4, 85), (39, 1, 24), (40, 7, 87), (41, 1, 22), (42, 4, 86),
    (43, 3, 81), (44, 11, 70), (45, 4, 91), (46, 5, 97), (47, 15, 59), (48, 4, 92), (49, 4, 85),
    (50, 17, 51), (51, 5, 96), (52, 6, 94), (53, 21, 42), (54, 1, 35), (55, 1, 9), (56, 0, 0),
    (57, 1, 15), (58, 3, 74), (59, 7, 83), (60, 6, 95), (61, 4, 86), (62, 10, 77), (63, 6, 95),
    (64, 1, 26),
)


def test_greedy_exceeds_twice_a_rounded_plan_at_n64():
    # A feasible allocation costs 3353.75, and the greedy 4.66 times that in
    # both modes: the 2x certificate fails on the benchmark's own instance.
    rng = np.random.default_rng([64, 4000])
    inst = Instance(tuple(rng.uniform(1.0, 25.0, 64).tolist()), 4000.0)
    params = DiscreteParams(0.5, 1.0, 4000, 4000)
    assert [row[0] for row in _N64_Q4000_PLAN] == list(range(1, 65))
    owner, quanta = [], []
    for p, k, r in sorted((row for row in _N64_Q4000_PLAN if row[1]), key=lambda row: row[1]):
        base, extra = divmod(r, k)  # an even split, the larger loads first
        owner += [p] * k
        quanta += [base + 1] * extra + [base] * (k - extra)
    alloc = DiscreteAllocation(tuple(owner), tuple(quanta))
    assert (alloc.slots, sum(quanta)) == (311, 3972)
    cost = discrete_cost(inst, params, alloc).total  # raises if infeasible
    assert cost == pytest.approx(3353.7455545, rel=1e-9)
    for spend_all in (False, True):
        g_cost = greedy_allocate(inst, params, spend_all)[1].total
        assert g_cost == pytest.approx(15633.273134, rel=1e-9)
        assert g_cost > 2 * cost
        assert g_cost / cost == pytest.approx(4.661437, abs=1e-6)

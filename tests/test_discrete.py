"""Discrete allocation tests: cost evaluation, the greedy allocator and the
exhaustive oracle."""

import itertools
import math
import random

import pytest

from edds.model import InfeasibleError, Instance, SizeError
from edds.discrete import (
    ORACLE_CAPS,
    DiscreteAllocation,
    DiscreteParams,
    TraceStep,
    _candidates,
    _compositions,
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


def _full_scan_greedy(inst, params, spend_all=False):
    """Reference greedy: scores every open slot at every step, O(slots) a step."""
    bits = inst.bits
    n = inst.n
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
            i = p - 1
            new_d = (
                2.0 ** (bits[i] - sent[i] - table[r + 1] + table[r])
                + params.slot_len * imax[i]
            )
            cand = (total - per[i] + new_d, j, p, "add", new_d)
            if best is None or cand[:3] < best[:3]:
                best = cand
        if len(owner) < params.max_slots:
            j = len(owner) + 1
            for p in range(1, n + 1):
                i = p - 1
                new_d = 2.0 ** (bits[i] - sent[i] - table[1]) + params.slot_len * j
                cand = (total - per[i] + new_d, j, p, "open", new_d)
                if best is None or cand[:3] < best[:3]:
                    best = cand
        if best is None:
            break
        new_total, j, p, action, new_d = best
        if not spend_all and new_total >= total:
            break
        i = p - 1
        if action == "add":
            sent[i] += table[quanta[j - 1] + 1] - table[quanta[j - 1]]
            quanta[j - 1] += 1
        else:
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


def test_greedy_matches_full_scan_reference():
    # Scoring one add per load run must change no output, not even at float ties.
    tie = Instance((24.0, 25.0), 3000.0)
    runs = [
        *certificate_sweep(),
        *_random_runs(60, seed=6),
        (tie, DiscreteParams.for_instance(tie, 1.0, 1.0)),
    ]
    for inst, params in runs:
        for spend_all in (False, True):
            got = greedy_allocate(inst, params, spend_all)
            want = _full_scan_greedy(inst, params, spend_all)
            assert repr(got) == repr(want), (inst, params, spend_all)


def test_greedy_float_tie_adds_above_least_loaded_slot():
    # At step 300 the candidates' changes are below one ulp of the total, so
    # the tie goes to packet 2's slot 1 at load 7 although its other slots hold 6.
    inst = Instance((24.0, 25.0), 3000.0)
    _, _, trace = greedy_allocate(inst, DiscreteParams.for_instance(inst, 1.0, 1.0))
    owner, quanta = [], []
    for step in trace[:299]:
        if step.action == "open":
            owner.append(step.packet)
            quanta.append(1)
        else:
            quanta[step.slot - 1] += 1
    step = trace[299]
    assert (step.action, step.slot, step.packet) == ("add", 1, 2)
    loads = [r for p, r in zip(owner, quanta) if p == 2]
    assert loads[0] == 7 and min(loads) == 6


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
    bits = inst.bits
    table = _slot_bit_table(params, params.budget_quanta)
    best_owner = ()
    best_quanta = ()
    best_total = float(sum(2.0 ** b for b in bits))  # J = 0: nothing sent
    for j in range(1, min(params.max_slots, params.budget_quanta) + 1):
        for owner in itertools.product(range(1, inst.n + 1), repeat=j):
            for quanta in _compositions(j, params.budget_quanta):
                total = sum(_packet_costs(bits, params, owner, quanta, table))
                if total < best_total:
                    best_owner, best_quanta, best_total = owner, quanta, total
    alloc = DiscreteAllocation(best_owner, best_quanta)
    return alloc, discrete_cost(inst, params, alloc)


def _random_oracle_inputs(count, seed):
    """Instances inside ORACLE_CAPS: equal bits (exact and last-ulp ties),
    Q = 0, S = 0, S below and above Q, and non-integer B, l and e."""
    rng = random.Random(seed)
    n_cap, q_cap, s_cap = ORACLE_CAPS
    for k in range(count):
        n = rng.randint(1, n_cap)
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
        q = rng.randint(0, q_cap)
        s = rng.randint(0, s_cap)
        yield Instance(bits, quantum * q), DiscreteParams(slot_len, quantum, q, s)


def test_oracle_matches_full_scan_reference():
    # Scoring every candidate in one vector pass, then re-checking the near
    # minimisers with the scalar cost, must return exactly the full scan's answer.
    shapes = set()
    for inst, params in [*certificate_sweep(), *_random_oracle_inputs(1000, seed=7)]:
        got = oracle_allocate(inst, params)
        want = _full_scan_oracle(inst, params)
        assert repr(got) == repr(want), (inst, params)
        q, s = params.budget_quanta, params.max_slots
        shapes.add((len(set(inst.bits)) < inst.n, q == 0, s == 0, s < q, s > q))
    # the draws reached equal bits, Q = 0, S = 0, S < Q and S > Q
    for flag in range(5):
        assert any(shape[flag] for shape in shapes)


def test_candidate_tables_are_consistent_and_small():
    # The cache keeps every shape the oracle has met; all of them together
    # must stay small, since they live as long as the process.
    n_cap, q_cap, s_cap = ORACLE_CAPS
    total = 0
    for n in range(1, n_cap + 1):
        for q in range(1, q_cap + 1):
            for width in range(1, min(q, s_cap) + 1):
                owner, quanta, counts, last = _candidates(n, q, width)
                assert counts.shape == (n, len(owner), q) and last.shape == (n, len(owner))
                for i in range(n):
                    mine = owner == i + 1
                    for r in range(1, q + 1):
                        assert (counts[i, :, r - 1] == (mine & (quanta == r)).sum(1)).all()
                    slots = mine * range(1, width + 1)
                    assert (last[i] == slots.max(1)).all()
                total += sum(a.nbytes for a in (owner, quanta, counts, last))
    assert total < 1_000_000

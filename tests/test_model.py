"""Unit tests for instances, orders, the rate formula and the cost breakdown."""

import math
import sys
import warnings

import numpy as np
import pytest

from edds.model import (
    ContinuousAllocation,
    CostBreakdown,
    DomainError,
    InfeasibleError,
    Instance,
    Order,
    T_MIN,
    allocation_from_doc,
    delay_coefficients,
    evaluate_cost,
    instance_from_doc,
    shannon_bits,
)

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Instance / Order construction


def test_instance_validation():
    inst = Instance((15.0, 20.0), 50.0)
    assert inst.n == 2 and inst.bits == (15.0, 20.0)
    with pytest.raises(ValueError):
        Instance((), 1.0)
    with pytest.raises(ValueError):
        Instance((0.0,), 1.0)
    with pytest.raises(ValueError):
        Instance((-3.0, 2.0), 1.0)
    with pytest.raises(ValueError):
        Instance((1.0,), -2.0)
    # zero budget is allowed so the discrete side can express "no quanta"
    assert Instance((1.0,), 0.0).energy == 0.0


def test_order_validation_and_views():
    with pytest.raises(ValueError):
        Order((1, 1))
    with pytest.raises(ValueError):
        Order((0, 1))
    order = Order((2, 3, 1))  # packet 3 goes first, then packet 1, then packet 2
    assert order.sequence() == (3, 1, 2)
    assert Order.from_sequence(order.sequence()) == order
    assert Order.identity(3).sequence() == (1, 2, 3)
    with pytest.raises(ValueError):
        Order.from_sequence((1, 1, 2))


def test_order_refuses_fractional_positions():
    # refused, not truncated: Order((1.5, 2)) must not read (1, 2)
    with pytest.raises(ValueError, match="integers"):
        Order((1.5, 2))
    with pytest.raises(ValueError, match="integers"):
        Order(np.array([2.0, 1.0000001]))
    # integral floats are positions: brute force builds orders from float rows
    assert Order((2.0, 1.0)) == Order(np.array([2.0, 1.0])) == Order((2, 1))
    assert all(type(p) is int for p in Order(np.array([2.0, 1.0])).perm)


# ---------------------------------------------------------------------------
# shannon_bits


def test_shannon_bits_known_points():
    assert shannon_bits(0.0, 1.0) == 0.0
    assert shannon_bits(1.0, 1.0) == pytest.approx(1.0)
    assert shannon_bits(3.0, 1.0) == pytest.approx(2.0)
    # only the ratio E/t matters up to the leading t factor
    assert shannon_bits(2.0, 2.0) == pytest.approx(2.0)


def test_shannon_bits_domain_errors():
    with pytest.raises(DomainError):
        shannon_bits(-0.1, 1.0)
    with pytest.raises(DomainError):
        shannon_bits(1.0, T_MIN / 2)


def test_shannon_bits_monotone_and_bounded():
    rng = np.random.default_rng(3)
    e = rng.uniform(0.0, 20.0, 300)
    t = rng.uniform(1e-3, 10.0, 300)
    base = shannon_bits(e, t)
    assert np.all(shannon_bits(e + 0.1, t) > base)
    assert np.all(shannon_bits(e[e > 0], t[e > 0] + 0.1) > base[e > 0])
    # bounded above by E / ln 2, approached as t grows
    assert np.all(base <= e / LN2 + 1e-12)
    assert shannon_bits(5.0, 1e7) == pytest.approx(5.0 / LN2, rel=1e-6)


def test_shannon_bits_concave_in_energy():
    # midpoint test on random triples
    rng = np.random.default_rng(7)
    t = rng.uniform(0.01, 10.0, 10_000)
    e1 = rng.uniform(0.0, 50.0, 10_000)
    e2 = rng.uniform(0.0, 50.0, 10_000)
    mid = shannon_bits(0.5 * (e1 + e2), t)
    avg = 0.5 * (shannon_bits(e1, t) + shannon_bits(e2, t))
    assert np.all(mid >= avg - 1e-9)


def test_shannon_bits_stays_finite_where_e_over_t_overflows():
    # e / t overflowed float64 here: a RuntimeWarning and infinite bits.
    e = np.array([1e307, 1.7e308, sys.float_info.max, 2.0e302, 0.0, 3.0])
    t = np.array([0.014166092850140366, T_MIN, 0.5, T_MIN, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = shannon_bits(e, t)
        assert [shannon_bits(e[k], t[k]) for k in range(4)] == got[:4].tolist()
    for k in range(4):
        want = t[k] * (math.log(e[k]) - math.log(t[k])) / LN2
        assert got[k] == pytest.approx(want, rel=1e-15)
    assert got[0] == pytest.approx(14.534, abs=1e-3)  # `solve --bits 5 --energy 1e307`'s bhat
    # the other entries keep the plain formula bit for bit, in either branch
    assert got[4:].tolist() == (t[4:] * np.log1p(e[4:] / t[4:]) / LN2).tolist()
    rng = np.random.default_rng(4)
    e = 10.0 ** rng.uniform(-300.0, 302.25, 2000)  # up to T_MIN * float64 max
    t = 10.0 ** rng.uniform(-6.0, 300.0, 2000)
    assert shannon_bits(e, t).tolist() == (t * np.log1p(e / t) / LN2).tolist()
    with pytest.raises(DomainError):
        shannon_bits(np.array([1e307, -1.0]), 1.0)


# ---------------------------------------------------------------------------
# delay_coefficients


def test_delay_coefficients_examples():
    assert delay_coefficients(Order((1,))).tolist() == [1.0]
    assert delay_coefficients(Order((1, 2))).tolist() == [2.0, 1.0]
    assert delay_coefficients(Order((2, 3, 1))).tolist() == [2.0, 1.0, 3.0]


def test_delay_coefficients_match_completion_time_expansion():
    # independent derivation: sum of completion times == sum(a_i * t_i)
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        perm = tuple(rng.permutation(n) + 1)
        t = rng.uniform(0.1, 5.0, n)
        order = Order(perm)
        seq = order.sequence()
        completions = np.cumsum([t[p - 1] for p in seq])
        assert float(completions.sum()) == pytest.approx(
            float(delay_coefficients(order) @ t), rel=1e-12
        )


# ---------------------------------------------------------------------------
# evaluate_cost


def test_evaluate_cost_zero_energy_packet():
    inst = Instance((4.0,), 10.0)
    cb = evaluate_cost(inst, ContinuousAllocation((0.0,), (1.0,), Order((1,))))
    assert cb.distortions == (16.0,)
    assert cb.delays == (1.0,)
    assert cb.bhat == (0.0,)
    assert cb.total == 17.0


def test_evaluate_cost_exact_fit():
    inst = Instance((4.0,), 15.0)
    cb = evaluate_cost(inst, ContinuousAllocation((15.0,), (1.0,), Order((1,))))
    assert cb.bhat[0] == pytest.approx(4.0)
    assert cb.total == pytest.approx(2.0)


def test_evaluate_cost_completion_times():
    inst = Instance((1.0, 1.0, 1.0), 9.0)
    alloc = ContinuousAllocation((1.0, 1.0, 1.0), (0.5, 1.0, 2.0), Order((2, 3, 1)))
    cb = evaluate_cost(inst, alloc)
    # air order is packet 3 (2.0s), packet 1 (0.5s), packet 2 (1.0s)
    assert cb.delays == pytest.approx((2.5, 3.5, 2.0))
    assert sorted(cb.delays) == [cb.delays[i - 1] for i in alloc.order.sequence()]


def test_evaluate_cost_infeasible():
    inst = Instance((2.0, 2.0), 1.0)
    with pytest.raises(InfeasibleError):
        evaluate_cost(inst, ContinuousAllocation((0.8, 0.3), (1.0, 1.0), Order((1, 2))))


def test_evaluate_cost_size_mismatch():
    inst = Instance((2.0, 2.0), 1.0)
    with pytest.raises(ValueError, match="allocation size does not match instance"):
        evaluate_cost(inst, ContinuousAllocation((0.5,), (1.0,), Order((1,))))


def test_evaluate_cost_relabel_invariance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        bits = rng.uniform(1.0, 20.0, n)
        e = rng.uniform(0.0, 2.0, n)
        t = rng.uniform(0.2, 4.0, n)
        perm = tuple(rng.permutation(n) + 1)
        inst = Instance(tuple(bits), float(e.sum() + 1.0))
        total = evaluate_cost(inst, ContinuousAllocation(tuple(e), tuple(t), Order(perm))).total
        # relabel packets by a random bijection, dragging positions along
        rel = rng.permutation(n)  # packet i -> new label rel[i]+1
        bits2 = np.empty(n)
        e2 = np.empty(n)
        t2 = np.empty(n)
        perm2 = [0] * n
        for i in range(n):
            bits2[rel[i]] = bits[i]
            e2[rel[i]] = e[i]
            t2[rel[i]] = t[i]
            perm2[rel[i]] = perm[i]
        inst2 = Instance(tuple(bits2), inst.energy)
        total2 = evaluate_cost(
            inst2, ContinuousAllocation(tuple(e2), tuple(t2), Order(tuple(perm2)))
        ).total
        assert total2 == pytest.approx(total, rel=1e-12)


def test_evaluate_cost_two_delay_formulas_agree():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        inst = Instance(tuple(rng.uniform(1.0, 20.0, n)), 100.0)
        e = rng.uniform(0.0, 10.0, n)
        t = rng.uniform(0.1, 5.0, n)
        order = Order(tuple(rng.permutation(n) + 1))
        cb = evaluate_cost(inst, ContinuousAllocation(tuple(e), tuple(t), order))
        linear = float(np.asarray(cb.distortions).sum() + delay_coefficients(order) @ t)
        assert cb.total == pytest.approx(linear, rel=1e-12)


def test_reducing_energy_raises_distortion_only():
    inst = Instance((6.0, 8.0), 20.0)
    alloc = ContinuousAllocation((5.0, 5.0), (1.0, 2.0), Order((1, 2)))
    cb = evaluate_cost(inst, alloc)
    smaller = ContinuousAllocation((5.0, 3.0), (1.0, 2.0), Order((1, 2)))
    cb2 = evaluate_cost(inst, smaller)
    assert cb2.distortions[1] > cb.distortions[1]
    assert cb2.distortions[0] == cb.distortions[0]
    assert cb2.delays == cb.delays


def test_cost_breakdown_total_is_sum_of_parts():
    inst = Instance((3.0, 5.0), 10.0)
    cb = evaluate_cost(
        inst, ContinuousAllocation((4.0, 6.0), (1.5, 0.7), Order((2, 1)))
    )
    assert isinstance(cb, CostBreakdown)
    assert cb.total == pytest.approx(sum(cb.distortions) + sum(cb.delays), rel=1e-15)


# ---------------------------------------------------------------------------
# serialization


def test_instance_doc_roundtrip():
    inst = Instance((15.0, 20.0), 50.0)
    doc = inst.to_doc()
    doc.update({"slot_len": 1.0, "quantum": 0.5})
    parsed, extras = instance_from_doc(doc)
    assert parsed == inst
    assert extras == {"slot_len": 1.0, "quantum": 0.5}
    with pytest.raises(ValueError):
        instance_from_doc({"bits": [1.0]})
    with pytest.raises(ValueError, match="'solver' is not one of"):
        instance_from_doc({"bits": [1.0], "energy": 1.0, "solver": {}})


def test_allocation_doc_roundtrip():
    alloc = ContinuousAllocation((1.0, 2.0), (0.5, 0.25), Order((2, 1)))
    assert allocation_from_doc(alloc.to_doc()) == alloc


def test_allocation_validation():
    with pytest.raises(ValueError):
        ContinuousAllocation((1.0,), (1.0, 1.0), Order((1, 2)))
    with pytest.raises(ValueError):
        ContinuousAllocation((-1.0, 0.0), (1.0, 1.0), Order((1, 2)))
    with pytest.raises(DomainError):
        ContinuousAllocation((1.0, 1.0), (1.0, T_MIN / 3), Order((1, 2)))

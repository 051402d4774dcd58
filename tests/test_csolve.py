"""Solver tests: gradients against finite differences, the per-packet
curvature blocks (``verify.hessian_block``) that make the problem convex,
convergence on reference instances, and the feasibility/optimality contracts."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edds import csolve
from edds.csolve import (
    GAP_TOL,
    SolveReport,
    _packets,
    gradient,
    project_budget,
    solve_fixed_order,
)
from edds.model import (
    T_MIN,
    ContinuousAllocation,
    DomainError,
    Instance,
    Order,
    delay_coefficients,
    evaluate_cost,
    shannon_bits,
)
from edds.order import brute_force_order, spf_order
from edds.verify import hessian_block

LN2 = math.log(2.0)


def random_interior_point(rng, n_max=4):
    """An instance plus a strictly feasible allocation away from all bounds."""
    n = int(rng.integers(1, n_max + 1))
    bits = rng.uniform(1.0, 25.0, n)
    e = rng.uniform(0.05, 1.0, n) * bits
    t = rng.uniform(0.2, 3.0, n)
    inst = Instance(tuple(bits), float(2.0 * e.sum() + 1.0))
    order = Order(tuple(rng.permutation(n) + 1))
    return inst, ContinuousAllocation(tuple(e), tuple(t), order)


def kkt_residual(inst, alloc, t_min=T_MIN):
    """||x - Proj(x - grad U(x))|| at unit step, from the public pieces."""
    g = gradient(inst, alloc)
    e = np.asarray(alloc.energies)
    t = np.asarray(alloc.times)
    re = e - project_budget(e - g[0::2], inst.energy)
    rt = t - np.maximum(t - g[1::2], t_min)
    return math.sqrt(float(re @ re + rt @ rt))


def random_instance(rng, n):
    bits = rng.uniform(1.0, 25.0, n)
    return Instance(tuple(bits), float(rng.uniform(0.5, 4.0) * bits.sum()))


def fd_gradient(inst, alloc, h0=1e-3):
    """Finite differences of the total cost, interleaved like gradient().

    Uses the five-point (fourth-order) central stencil: distortion terms span
    many orders of magnitude across packets, and the plain two-point stencil
    loses too much to cancellation at the tolerance we test."""
    e = np.asarray(alloc.energies)
    t = np.asarray(alloc.times)

    def total(ev, tv):
        return evaluate_cost(
            inst, ContinuousAllocation(tuple(ev), tuple(tv), alloc.order)
        ).total

    def stencil(f, x, h):
        return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)

    def axis(i, which):
        def f(x):
            ev, tv = e.copy(), t.copy()
            (ev if which == 0 else tv)[i] = x
            return total(ev, tv)

        base = e[i] if which == 0 else t[i]
        return stencil(f, base, h0 * max(1.0, abs(base)))

    out = np.empty(2 * inst.n)
    for i in range(inst.n):
        out[2 * i] = axis(i, 0)
        out[2 * i + 1] = axis(i, 1)
    return out


# ---------------------------------------------------------------------------
# gradient


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(30):
        inst, alloc = random_interior_point(rng)
        g = gradient(inst, alloc)
        fd = fd_gradient(inst, alloc)
        rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() <= 1e-5


def test_gradient_domain_and_shape():
    inst = Instance((4.0, 6.0), 20.0)
    alloc = ContinuousAllocation((3.0, 5.0), (1.0, 2.0), Order((1, 2)))
    g = gradient(inst, alloc)
    assert g.shape == (4,)
    # energy components are strictly negative: more energy always helps
    assert g[0] < 0 and g[2] < 0
    with pytest.raises(ValueError):
        gradient(Instance((4.0,), 20.0), alloc)


def test_gradient_time_component_vanishes_at_optimum():
    inst = Instance((4.0,), 15.0)
    report = solve_fixed_order(inst, Order((1,)))
    g = gradient(inst, report.alloc)
    assert abs(g[1]) <= 1e-6


# ---------------------------------------------------------------------------
# hessian_block


def test_hessian_block_positive_definite():
    inst = Instance((4.0,), 10.0)
    h = hessian_block(inst, 1, 1.0, 1.0)
    assert np.linalg.det(h) > 0
    assert np.trace(h) > 0


def test_hessian_block_matches_second_differences():
    # independent oracle: second differences of the cost itself
    inst = Instance((12.0,), 50.0)
    e0, t0, a = 10.0, 0.5, 1.0

    def u(e, t):
        return 2.0 ** (12.0 - shannon_bits(e, t)) + a * t

    h = 1e-4
    dee = (u(e0 + h, t0) - 2 * u(e0, t0) + u(e0 - h, t0)) / h**2
    dtt = (u(e0, t0 + h) - 2 * u(e0, t0) + u(e0, t0 - h)) / h**2
    det_ = (
        u(e0 + h, t0 + h) - u(e0 + h, t0 - h) - u(e0 - h, t0 + h) + u(e0 - h, t0 - h)
    ) / (4 * h**2)
    fd = np.array([[dee, det_], [det_, dtt]])
    hb = hessian_block(inst, 1, e0, t0)
    assert np.abs(hb - fd).max() / np.abs(fd).max() <= 1e-4
    assert np.linalg.det(hb) > 0 and np.trace(hb) > 0


def test_hessian_determinant_closed_form():
    # det == P^2 * t/(t+e)^2 * ln((t+e)/t)^2 with P the packet's distortion;
    # equivalently a fixed ln(2)^2 multiple of the same expression in log2.
    inst = Instance((4.0, 12.0, 7.0), 100.0)
    ratios = []
    for packet, e, t in [(1, 1.0, 1.0), (2, 10.0, 0.5), (3, 3.0, 2.0)]:
        b = inst.bits[packet - 1]
        p = 2.0 ** (b - shannon_bits(e, t))
        det = np.linalg.det(hessian_block(inst, packet, e, t))
        closed = p**2 * t / (t + e) ** 2 * math.log((t + e) / t) ** 2
        assert det == pytest.approx(closed, rel=1e-3)
        ratios.append(det / (p**2 * t / (t + e) ** 2 * math.log2((t + e) / t) ** 2))
    # structural agreement with the base-2 form: one positive constant factor
    assert all(r == pytest.approx(LN2**2, rel=1e-3) for r in ratios)


def test_hessian_block_is_exact():
    # the closed-form block: its determinant is the closed form to rounding,
    # also at e = 0 where the energy derivative sits on the domain's edge,
    # and it is symmetric bit for bit
    inst = Instance((4.0, 12.0, 7.0), 100.0)
    for packet, e, t in [(1, 1.0, 1.0), (2, 10.0, 0.5), (3, 3.0, 2.0), (1, 0.0, 1.0)]:
        p = 2.0 ** (inst.bits[packet - 1] - shannon_bits(e, t))
        h = hessian_block(inst, packet, e, t)
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        closed = p**2 * t / (t + e) ** 2 * math.log1p(e / t) ** 2
        assert det == pytest.approx(closed, rel=1e-12, abs=0.0)
        assert np.array_equal(h, h.T)


def test_hessian_determinant_vanishes_with_energy():
    inst = Instance((4.0,), 10.0)
    det_small = np.linalg.det(hessian_block(inst, 1, 1e-6, 1.0))
    det_unit = np.linalg.det(hessian_block(inst, 1, 1.0, 1.0))
    assert 0 <= det_small < 1e-6 < det_unit


def test_hessian_block_domain_errors():
    inst = Instance((4.0,), 10.0)
    with pytest.raises(DomainError):
        hessian_block(inst, 1, -0.1, 1.0)
    with pytest.raises(DomainError):
        hessian_block(inst, 1, 1.0, 1e-9)
    with pytest.raises(ValueError):
        hessian_block(inst, 2, 1.0, 1.0)


# ---------------------------------------------------------------------------
# project_budget


def test_project_budget_cases():
    v = np.array([0.2, 0.3])
    assert np.allclose(project_budget(v, 1.0), v)  # already feasible
    p = project_budget(np.array([-0.5, 0.4]), 1.0)
    assert np.allclose(p, [0.0, 0.4])  # clamp suffices
    p = project_budget(np.array([3.0, 1.0]), 2.0)
    assert p.sum() == pytest.approx(2.0)
    assert np.allclose(p, [2.0, 0.0])


def test_project_budget_is_nearest_feasible_point():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        budget = float(rng.uniform(0.5, 5.0))
        v = rng.normal(0.0, 3.0, n)
        p = project_budget(v, budget)
        assert np.all(p >= 0) and p.sum() <= budget + 1e-12
        z = budget * rng.uniform() * rng.dirichlet(np.ones(n))
        assert np.linalg.norm(v - p) <= np.linalg.norm(v - z) + 1e-9


def test_project_budget_survives_huge_entries():
    # u - (cumsum(u) - b) / k once rounded the first candidate to 0 here and
    # left no support at all (IndexError).
    rng = np.random.default_rng(24)
    for v, budget, want in [([1e17], 3.0, [3.0]), ([1e30, 5.0], 50.0, [50.0, 0.0])]:
        v = np.array(v)
        p = project_budget(v, budget)
        assert np.all(p >= 0) and p.sum() <= budget * (1 + 1e-12)
        for _ in range(200):
            z = budget * rng.uniform() * rng.dirichlet(np.ones(len(v)))
            assert np.linalg.norm(v - p) <= np.linalg.norm(v - z) + 1e-9
        assert np.allclose(p, want)


# ---------------------------------------------------------------------------
# solve_fixed_order


def test_reference_instance_fifteen_twenty():
    inst = Instance((15.0, 20.0), 50.0)
    report = solve_fixed_order(inst, Order((1, 2)))
    assert report.converged
    assert report.cost.bhat[0] == pytest.approx(13.667, abs=0.05)
    assert report.cost.bhat[1] == pytest.approx(19.1396, abs=0.05)
    assert report.energy_slack <= 1e-6 * inst.energy
    assert report.energy_slack >= -1e-9 * inst.energy


def test_reference_instance_twelve_twenty():
    inst = Instance((12.0, 20.0), 20.0)
    report = solve_fixed_order(inst, Order((1, 2)))
    assert report.converged
    assert report.cost.bhat[0] == pytest.approx(7.663, abs=0.05)
    assert report.cost.bhat[1] == pytest.approx(15.8431, abs=0.05)


def test_solver_against_scipy_reference():
    # independent solver on the same smooth convex program
    minimize = pytest.importorskip("scipy.optimize").minimize
    rng = np.random.default_rng(29)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        bits = rng.uniform(2.0, 20.0, n)
        inst = Instance(tuple(bits), float(rng.uniform(0.5, 3.0) * bits.sum()))
        order = Order.identity(n)
        a = delay_coefficients(order)

        def fun(x):
            e, t = x[:n], x[n:]
            return float(np.exp2(bits - t * np.log1p(e / t) / LN2).sum() + a @ t)

        x0 = np.concatenate([np.full(n, inst.energy / (2 * n)), bits / 2.0])
        res = minimize(
            fun,
            x0,
            method="SLSQP",
            bounds=[(0.0, None)] * n + [(1e-6, None)] * n,
            constraints=[{"type": "ineq", "fun": lambda x: inst.energy - x[:n].sum()}],
            options={"maxiter": 500, "ftol": 1e-12},
        )
        report = solve_fixed_order(inst, order)
        assert report.converged
        assert report.cost.total <= res.fun + 1e-6


def exact_energies(t, bits, budget):
    """The cheapest energies for fixed times: E_i = t_i expm1((B_i ln2 - m)^+ /
    (t_i + 1)), with the multiplier m bisected until the budget is spent."""
    lo, hi = float(np.min(bits * LN2 - (t + 1) * np.log1p(budget / t))), float(np.max(bits * LN2))
    for _ in range(200):
        m = 0.5 * (lo + hi)
        e = t * np.expm1(np.maximum((bits * LN2 - m) / (t + 1), 0.0))
        lo, hi = (m, hi) if e.sum() > budget else (lo, m)
    return e * (budget / e.sum())


def test_answer_beats_old_start_and_random_points():
    inst = Instance((12.0, 20.0, 5.0), 30.0)
    order = Order((2, 3, 1))
    report = solve_fixed_order(inst, order)
    assert report.converged
    bits = np.asarray(inst.bits)
    t0 = bits / 2.0  # the projected-gradient solver's starting point
    start = evaluate_cost(
        inst, ContinuousAllocation(tuple(exact_energies(t0, bits, 30.0)), tuple(t0), order)
    ).total
    assert report.cost.total < start
    rng = np.random.default_rng(43)
    for _ in range(200):
        e = inst.energy * rng.uniform() * rng.dirichlet(np.ones(inst.n))
        t = rng.uniform(T_MIN, 20.0, inst.n)
        cand = evaluate_cost(inst, ContinuousAllocation(tuple(e), tuple(t), order)).total
        assert report.cost.total <= cand


def test_energy_used_in_full_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        bits = rng.uniform(1.0, 25.0, n)
        inst = Instance(tuple(bits), float(rng.uniform(0.5, 4.0) * bits.sum()))
        report = solve_fixed_order(inst, Order.identity(n))
        assert report.converged
        assert report.energy_slack <= 1e-6 * inst.energy
        assert report.energy_slack >= -1e-9 * inst.energy


def test_solution_dominates_random_feasible_points():
    rng = np.random.default_rng(37)
    for bits, energy in [((1.0,), 1000.0), ((4.0, 9.0), 20.0), ((3.0, 8.0, 14.0), 40.0)]:
        inst = Instance(bits, energy)
        order = Order.identity(inst.n)
        report = solve_fixed_order(inst, order)
        assert report.converged
        for _ in range(1000 if inst.n > 1 else 100):
            e = energy * rng.uniform() * rng.dirichlet(np.ones(inst.n))
            t = rng.uniform(0.05, 10.0, inst.n)
            cand = evaluate_cost(
                inst, ContinuousAllocation(tuple(e), tuple(t), order)
            ).total
            assert cand >= report.cost.total - 1e-6


def test_midpoint_convexity_of_cost():
    rng = np.random.default_rng(41)
    inst = Instance((6.0, 11.0), 25.0)
    order = Order((1, 2))
    for _ in range(500):
        e1 = inst.energy * rng.uniform() * rng.dirichlet(np.ones(2))
        e2 = inst.energy * rng.uniform() * rng.dirichlet(np.ones(2))
        t1 = rng.uniform(0.1, 10.0, 2)
        t2 = rng.uniform(0.1, 10.0, 2)
        u1 = evaluate_cost(inst, ContinuousAllocation(tuple(e1), tuple(t1), order)).total
        u2 = evaluate_cost(inst, ContinuousAllocation(tuple(e2), tuple(t2), order)).total
        um = evaluate_cost(
            inst,
            ContinuousAllocation(tuple(0.5 * (e1 + e2)), tuple(0.5 * (t1 + t2)), order),
        ).total
        assert um <= 0.5 * (u1 + u2) + 1e-9


def test_permutation_consistency_on_symmetric_instance():
    inst = Instance((10.0, 10.0), 30.0)
    r12 = solve_fixed_order(inst, Order((1, 2)))
    r21 = solve_fixed_order(inst, Order((2, 1)))
    assert r12.cost.total == pytest.approx(r21.cost.total, abs=1e-6)


def test_overshoot_flagged_when_energy_is_plentiful():
    report = solve_fixed_order(Instance((1.0,), 1000.0), Order((1,)))
    assert report.converged
    assert report.overshoot == (1,)
    assert report.cost.bhat[0] > 1.0


def test_large_instance_converges():
    inst = random_instance(np.random.default_rng(47), 256)
    report = solve_fixed_order(inst, spf_order(inst))
    assert report.converged
    assert kkt_residual(inst, report.alloc) <= 1e-6


def test_iterations_flat_in_n():
    # Root-finder steps on the multiplier, not descent steps on 2n variables.
    # Started from the one-SNR model, corrected by one surrogate step for the
    # spread of delay weights, and stopped where n times the residual is
    # 1e-9, SPF and random orders take 3.0-3.5 steps on average (more at
    # larger n, where SPF takes 3.8-4) and 4 at most; from the model alone
    # they took 3.9-4.5 and 5, stopped at a residual of 1e-14 4.4-4.5 and 5,
    # and started at B_max ln 2 - 1, 7.5-7.9 and 9.
    rng = np.random.default_rng(53)
    for n in (4, 16, 64, 256):
        steps = []
        for _ in range(40):
            inst = random_instance(rng, n)
            for order in (spf_order(inst), Order(tuple(rng.permutation(n) + 1))):
                report = solve_fixed_order(inst, order)
                assert report.converged
                steps.append(report.iterations)
        assert np.mean(steps) <= 3.5 and max(steps) <= 4, (n, np.mean(steps), max(steps))
    # For one packet the model is the problem.  At 1 to 1.6 bits on budgets
    # below 1e-2 B, times near 1e-4 round the residual to up to 5e-12: above
    # a 1e-14 stop, where a step below _STEP_TOL had to end the root find,
    # but below _ROOT_TOL.
    for bits in (0.5, 1.0, 1.3, 1.6, 2.0, 3.0, 17.0, 300.0, 1000.0):
        for scale in np.logspace(-4.0, 6.0, 41):
            report = solve_fixed_order(Instance((bits,), scale * bits), Order((1,)))
            assert report.converged and report.iterations <= 2, (bits, scale, report.iterations)


@pytest.mark.parametrize("n", [1, 4, 16, 64, 256, 1024])
def test_root_find_stop_leaves_spf_solves_near_kkt(n):
    # The root find stops where n times the residual is 1e-9: the gap is
    # second order in the residual, and the point's KKT residual, absolute
    # and first order in it, grows about as n.  Here it is at most 4.5e-8
    # (n = 4); a stop at 1e-10 on the residual alone reached 1.1e-6 on SPF
    # solves at n = 1024.
    rng = np.random.default_rng([67, n])
    for factor in (0.5, 1.0, 2.0, 4.0):
        for _ in range(10):
            bits = rng.uniform(1.0, 25.0, n)
            inst = Instance(tuple(bits), factor * float(bits.sum()))
            report = solve_fixed_order(inst, spf_order(inst))
            assert report.converged
            assert kkt_residual(inst, report.alloc) <= 1e-6, (n, factor)


@pytest.mark.parametrize("energy", [5e-324, 1e-300, 1e303, 1e307, 1.7e308])
def test_model_start_lies_inside_the_bracket(monkeypatch, energy):
    # The model works in logs, so budgets whose SNR puts expm1(u) beyond
    # float64 raise nothing.  Where no float lies strictly inside the
    # bracket, the start is its lower end, max(lo, hi - 1).
    seen = []

    def spy(k0, log_a, budget, lo, hi, start=csolve._start):
        x0, x = start(k0, log_a, budget, lo, hi)
        seen.append((lo, x0, hi))
        return x0, x

    monkeypatch.setattr(csolve, "_start", spy)
    rng = np.random.default_rng(61)
    for n in (1, 2, 7, 64, 300):
        a = delay_coefficients(Order.identity(n))[None]
        for bits in (np.ones(n), np.full(n, 1023.9), rng.uniform(0.0, 1023.9, n)):
            csolve._dual_solve(bits, a, energy)
    assert len(seen) == 15
    for lo, x, hi in seen:
        assert lo < x < hi or x == lo == math.nextafter(hi, -math.inf), (lo, x, hi)


def test_model_step_lies_inside_the_bracket(monkeypatch):
    # The root find starts one surrogate Newton step from the model's start,
    # row by row, where that step lands strictly inside the bracket; elsewhere,
    # and where the model fell back, its SNR is below 1e-2 or no packet would
    # still spend at the step's end, at the model's start.  At these budgets
    # rows take the step only at 1e303 and 1e307.
    seen, first = [], []

    def spy(k0, log_a, budget, lo, hi, start=csolve._start):
        x0, x = start(k0, log_a, budget, lo, hi)
        seen.append((lo, x0, hi))
        return x0, x

    def packets(lam, k0, log_a, packets=csolve._packets):
        if len(first) < len(seen):
            first.append(lam[:, 0].copy())
        return packets(lam, k0, log_a)

    monkeypatch.setattr(csolve, "_start", spy)
    monkeypatch.setattr(csolve, "_packets", packets)
    rng = np.random.default_rng(61)
    for energy in (5e-324, 1e-300, 1e303, 1e307, 1.7e308):
        for n in (1, 2, 7, 64, 300):
            perms = (range(1, n + 1), range(n, 0, -1), rng.permutation(n) + 1)
            a = np.stack([delay_coefficients(Order(tuple(p))) for p in perms])
            for bits in (np.ones(n), np.full(n, 1023.9), rng.uniform(0.0, 1023.9, n)):
                csolve._dual_solve(bits, a, energy)
    assert len(first) == len(seen) == 75
    taken = 0
    for (lo, x0, hi), x in zip(seen, first):
        assert (((lo < x) & (x < hi)) | (x == x0)).all(), (lo, x0, hi, x)
        taken += int((x != x0).sum())
    assert taken >= 40  # 48 of the 225 rows


@pytest.mark.parametrize("bits,factor", [((2.0, 5.0), 3.73e-4), ((3.0, 2.0), 1.39e-3),
                                         ((1.0, 1.0), 2.08e-3), ((2.0, 2.0), 2e-3),
                                         ((0.07, 0.01), 0.105)])
def test_model_step_stops_short_of_the_t_min_boundary(monkeypatch, bits, factor):
    # On budgets this small the largest packets' times are small, and just
    # above the root sum E falls steeply onto the t_min boundary forms.  A
    # surrogate step that lands there cost these solves 1 to 6 more steps than
    # the model's start did, so it is not taken where, to first order, no
    # packet still spends at its end.
    inst = Instance(bits, factor * sum(bits))
    steps = solve_fixed_order(inst, spf_order(inst)).iterations

    def start(k0, log_a, budget, lo, hi, start=csolve._start):
        x0, _ = start(k0, log_a, budget, lo, hi)
        return x0, np.full(len(log_a), x0)

    monkeypatch.setattr(csolve, "_start", start)
    assert steps <= solve_fixed_order(inst, spf_order(inst)).iterations


@pytest.mark.parametrize("energy", [5e-324, 1e-300, 1e-19, 1e-16, 1e-12])
def test_model_start_survives_a_subnormal_w(monkeypatch, energy):
    # One packet of more than 1024 bits on a tiny budget drives the model's
    # Newton to v near -360, where w = u**2 w2 is subnormal and, times the
    # active bits' excess, rounds to 0.  The model's root lies above the
    # bracket's top, _LAM_MAX, so the start is the fallback.
    seen = []

    def spy(k0, log_a, budget, lo, hi, start=csolve._start):
        x0, x = start(k0, log_a, budget, lo, hi)
        seen.append((lo, x0, hi))
        return x0, x

    monkeypatch.setattr(csolve, "_start", spy)
    a = delay_coefficients(Order.identity(1))[None]
    for bits in np.linspace(1032.0, 1040.0, 17):
        csolve._dual_solve(np.array([bits]), a, energy)
    assert len(seen) == 17
    for lo, x, hi in seen:
        assert hi == csolve._LAM_MAX and x == max(lo, hi - 1.0), (lo, x, hi)


@pytest.mark.parametrize("energy", [5e-324, 1e-300, 1e303, 1e307, 1.7e308])
def test_start_gives_each_row_of_a_block_its_own_start(monkeypatch, energy):
    # The start mixes one scalar model with a pass over every row's weights,
    # so on a block of orders each row must start, bit for bit, where it
    # starts alone.
    calls, start = [], csolve._start

    def spy(*args):
        calls.append(args)
        return start(*args)

    monkeypatch.setattr(csolve, "_start", spy)
    rng = np.random.default_rng(71)
    for n in (2, 7, 64):
        perms = [range(1, n + 1), range(n, 0, -1)] + [rng.permutation(n) + 1 for _ in range(6)]
        a = np.stack([delay_coefficients(Order(tuple(p))) for p in perms])
        for bits in (np.ones(n), np.full(n, 1023.9), rng.uniform(0.0, 1023.9, n)):
            csolve._dual_solve(bits, a, energy)
    assert len(calls) == 9
    with np.errstate(all="ignore"):  # as in _dual_solve
        for k0, log_a, budget, lo, hi in calls:
            x0, x = start(k0, log_a, budget, lo, hi)
            for i in range(len(log_a)):
                alone = start(k0, log_a[i:i + 1], budget, lo, hi)
                assert alone[0] == x0 and alone[1][0] == x[i], (len(k0), budget, i)


def test_zero_energy_packet_sits_on_its_boundary():
    # 2 bits against 20 on 1 J: the marginal value of the first joule on the
    # small packet (2**2) is below the multiplier, so it gets none.
    inst = Instance((2.0, 20.0), 1.0)
    report = solve_fixed_order(inst, Order((1, 2)))
    assert report.converged
    assert report.alloc.energies[0] == 0.0 and report.alloc.times[0] == T_MIN
    g = gradient(inst, report.alloc)
    mu = -g[2]  # the active packet's dU/dE is the multiplier
    assert g[0] >= -mu
    assert kkt_residual(inst, report.alloc) <= 1e-6


def test_t_min_clamped_packet_has_rising_time_gradient():
    inst = Instance((1.0, 20.0), 30.0)
    report = solve_fixed_order(inst, Order((1, 2)))
    assert report.converged
    assert report.alloc.times[0] == T_MIN and report.alloc.energies[0] > 0.0
    g = gradient(inst, report.alloc)
    assert g[1] >= 0.0
    assert g[0] == pytest.approx(g[2], rel=1e-9)  # same marginal energy value
    assert kkt_residual(inst, report.alloc) <= 1e-6


def test_agrees_with_brute_force_over_orders():
    rng = np.random.default_rng(59)
    for n in (2, 3, 4):
        for _ in range(3):
            inst = random_instance(rng, n)
            best_order, best = brute_force_order(inst)
            costs = {}
            for perm in itertools.permutations(range(1, n + 1)):
                report = solve_fixed_order(inst, Order(perm))
                assert report.converged
                assert kkt_residual(inst, report.alloc) <= 1e-6
                costs[perm] = report.cost.total
            assert best.cost.total == min(costs.values())
            assert costs[best_order.perm] == best.cost.total
            # no random schedule, in any order, beats the search
            for _ in range(100):
                e = inst.energy * rng.uniform() * rng.dirichlet(np.ones(n))
                t = rng.uniform(T_MIN, 10.0, n)
                order = Order(tuple(rng.permutation(n) + 1))
                cand = evaluate_cost(inst, ContinuousAllocation(tuple(e), tuple(t), order))
                assert best.cost.total <= cand.total


def test_overflowing_distortion_raises_domain_error():
    # The overflow is found on the costs the report prices, and brute force's
    # screen sends the row there, both under errstate: no warning escapes.
    witnesses = [
        # 1100 bits on 50 J: at best 2**(1100 - 72) is left, beyond float64
        ((1100.0,), 50.0, "packet 1"),
        # each distortion is finite, their sum is not: no infinite total comes back
        ((1023.9, 1023.9), 1e-3, "packet 2"),
        # t overflows, so the sum is nan and only its bound B - E / ln 2 is known
        ((1e308,), 5.0, r"packet 1: .* at least 2\*\*1e\+308 "),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bits, energy, match in witnesses:
            inst = Instance(bits, energy)
            with pytest.raises(DomainError, match=match):
                solve_fixed_order(inst, Order.identity(inst.n))
            with pytest.raises(DomainError, match=match):
                brute_force_order(inst)


# Budgets below what one float64 step of the multiplier under B_max ln 2
# spends, which once collapsed the bracket and ended in math.log(0.0); the
# last two are subnormal.
_TINY_BUDGETS = [((5.0,), 1e-22), ((700.0, 1.0), 1e-20), ((20.0, 30.0), 1e-22),
                 ((1.0, 1.0), 1e-23), ((60.0,), 1e-21), ((5.0,), 5e-324), ((1e-300,), 5e-324)]


@pytest.mark.parametrize("bits,energy", _TINY_BUDGETS)
def test_tiny_budgets_solve_certified(bits, energy):
    # The largest packets share the budget; the others get nothing.
    inst = Instance(bits, energy)
    report = solve_fixed_order(inst, spf_order(inst))
    assert report.converged and abs(report.duality_gap) <= GAP_TOL
    top = [b == max(bits) for b in bits]
    want = [energy / sum(top) if is_top else 0.0 for is_top in top]
    assert report.alloc.energies == pytest.approx(want, rel=1e-12, abs=0.0)


def test_non_convergence_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(csolve, "_MAX_STEPS", 1)
    inst = Instance((15.0, 20.0), 50.0)
    report = solve_fixed_order(inst, Order((1, 2)))
    assert not report.converged
    assert report.duality_gap > GAP_TOL
    assert isinstance(report, SolveReport)


def test_truncated_solves_are_not_certified(monkeypatch):
    # The gap is not vacuous: cut the root find short at any step and it says
    # so, while the same point's energies still spend the budget.  One step
    # short leaves a gap near 4e-12, so a looser tolerance would pass it.
    inst = Instance((2.0, 7.0, 112.0, 5.0), 79.0)
    order = spf_order(inst)
    full = solve_fixed_order(inst, order)
    assert full.converged and abs(full.duality_gap) <= GAP_TOL
    assert kkt_residual(inst, full.alloc) <= 1e-6
    assert full.iterations >= 4
    for steps in range(1, full.iterations):
        monkeypatch.setattr(csolve, "_MAX_STEPS", steps)
        report = solve_fixed_order(inst, order)
        assert report.iterations == steps
        assert not report.converged and report.duality_gap > GAP_TOL
        assert abs(report.energy_slack) <= 1e-9 * inst.energy


def test_duality_gap_is_a_bound_on_the_excess_cost(monkeypatch):
    # P - g bounds P - P*: the truncated point's excess over the optimum
    # never exceeds its reported gap, to rounding
    inst = Instance((12.0, 20.0, 5.0), 30.0)
    order = Order((3, 1, 2))
    best = solve_fixed_order(inst, order).cost.total
    for steps in range(1, 7):
        monkeypatch.setattr(csolve, "_MAX_STEPS", steps)
        report = solve_fixed_order(inst, order)
        excess = (report.cost.total - best) / report.cost.total
        assert -1e-14 <= excess <= report.duality_gap + 1e-14


_sizes = st.one_of(
    st.floats(0.5, 40.0),
    st.integers(1, 5).map(float),  # small integers make equal sizes common
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    bits=st.integers(1, 64).flatmap(lambda n: st.lists(_sizes, min_size=n, max_size=n)),
    scale=st.floats(-4.0, 6.0),
)
def test_duality_gap_certifies_spf_solves(bits, scale):
    # budgets from 1e-4 to 1e6 x the total bits: every solve is certified,
    # and a gap below zero is never more than rounding
    inst = Instance(tuple(bits), 10.0 ** scale * sum(bits))
    try:
        report = solve_fixed_order(inst, spf_order(inst))
    except DomainError:
        return
    assert report.converged
    assert -1e-14 <= report.duality_gap <= GAP_TOL


def test_truncated_gap_is_inf_where_it_cannot_be_formed(monkeypatch):
    # From the start used where the model has no root in the bracket, one to
    # three steps leave the raw energies far below the budget: the distortion
    # at the rescaled energies underflows to 0 while expm1 of the change
    # overflows, and 0 * inf read "duality_gap": NaN.
    def start(k0, log_a, budget, lo, hi):
        return max(lo, hi - 1.0), np.full(len(log_a), max(lo, hi - 1.0))

    monkeypatch.setattr(csolve, "_start", start)
    for bits, energy, steps in [((40.0,), 1e5, (1,)), ((900.0,), 1e4, (1, 2, 3))]:
        for m in steps:
            monkeypatch.setattr(csolve, "_MAX_STEPS", m)
            report = solve_fixed_order(Instance(bits, energy), Order((1,)))
            assert report.duality_gap == math.inf
            assert not report.converged and report.iterations == m


# The per-packet closed forms without their shortcuts: the Taylor series
# applied through np.where at every Newton step and the boundary forms always
# computed.  The kernel skips each where no element needs it, and must match
# this plain form bit for bit.


def _reference_snr(log_c):
    u = np.logaddexp(0.0, np.logaddexp(0.5 * (log_c + LN2), 0.9 * log_c - 1.118))
    for _ in range(csolve._SNR_STEPS):
        small = u < 1e-2
        series = 0.5 - u * (1 / 6 - u * (1 / 24 - u * (1 / 120 - u / 720)))
        w = u + np.expm1(-u)
        log_w = np.where(small, 2.0 * np.log(u) + np.log(series), np.log(w))
        du = np.where(small, u * series, w / u)
        last = u
        u = u - (u + log_w - log_c) * du
    return u, du / last, du


def _reference_packets(lam, bits, log_a):
    k = bits * LN2 - lam
    u, w2, du = _reference_snr(log_a - lam)
    r = np.expm1(u) / u
    e = (k - u) * r
    de = (du - 1.0) * r - (k - u) * np.exp(u) * w2 * du
    t = k / u - 1.0
    edge = t < T_MIN
    e_min = T_MIN * np.expm1(np.maximum(k, 0.0) / (T_MIN + 1.0))
    de_min = np.where(k > 0.0, -(e_min + T_MIN) / (T_MIN + 1.0), 0.0)
    return np.where(edge, e_min, e), np.where(edge, T_MIN, t), np.where(edge, de_min, de)


def test_packets_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(61)
    small = inner = 0
    with np.errstate(all="ignore"):
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            bits = rng.uniform(0.5, 80.0, n)
            log_a = np.log(rng.permutation(n) + 1.0)
            lam = float(rng.uniform(-40.0, 45.0))
            u = _reference_snr(log_a - lam)[0]
            small += bool((u < 1e-2).any())
            inner += bool(((bits * LN2 - lam) / u - 1.0 >= T_MIN).all())
            for got, want in zip(_packets(lam, bits * LN2, log_a),
                                 _reference_packets(lam, bits, log_a)):
                assert got.tobytes() == want.tobytes()
    assert small >= 100  # the series branch is exercised, not just the plain one
    assert inner >= 100  # and so are steps where no packet is on a boundary


def test_snr_tests_for_the_series_once_on_the_start():
    # From a start of 0.0115 or more every step stays at or above 1e-2, so
    # _snr tests for the series on the start alone.  One ln c at a time, with
    # starts from 0.009 to 0.014, it matches the reference, which tests at
    # every step.
    log_c = np.linspace(2.0 * math.log(0.009), 2.0 * math.log(0.014), 2001) - LN2  # c ~ u**2 / 2
    start = np.logaddexp(0.0, np.logaddexp(0.5 * (log_c + LN2), 0.9 * log_c - 1.118))
    assert start.min() < 0.0095 and start.max() > 0.0135
    for x in log_c:
        for got, want in zip(csolve._snr(np.array([x])), _reference_snr(np.array([x]))):
            assert got.tobytes() == want.tobytes(), x


def _long_snr(log_c):
    """u solving e**u (u - 1) + 1 = c in extended precision: Newton on the
    same F, with the series of w / u**2 taken to u**15 below u = 0.1."""
    ld = np.longdouble
    log_c = log_c.astype(ld)
    u = np.logaddexp(ld(0), (log_c + np.log(ld(2))) / 2)
    for _ in range(10):
        small = u < ld("0.1")
        series, term = np.zeros_like(u), np.full_like(u, 1 / ld(2))
        for j in range(3, 19):  # w / u**2 = sum_j (-u)**(j - 2) / j!
            series, term = series + term, term * -u / j
        w = u + np.expm1(-u)
        log_w = np.where(small, 2 * np.log(u) + np.log(series), np.log(w))
        du = np.where(small, u * series, w / u)
        u = u - (u + log_w - log_c) * du
    return u


def test_snr_is_accurate_over_every_log_c():
    # ln c over [-745, 709.8], c from the least subnormal to near the largest
    # float, plus u on both sides of the series switch at 1e-2, against an
    # extended-precision root.
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("no extended precision on this platform")
    near = np.geomspace(5e-3, 2e-2, 2001, dtype=np.longdouble)
    log_c = np.concatenate([
        np.linspace(-745.0, 709.8, 100_001),
        (near + np.log(near + np.expm1(-near))).astype(float),  # ln c at u = near
    ])
    with np.errstate(all="ignore"):
        u = csolve._snr(log_c)[0]
        want = _long_snr(log_c)
    rel = np.abs((u - want) / want).astype(float)
    assert rel.max() <= 3e-14


def test_solve_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_fixed_order(Instance((4.0,), 0.0), Order((1,)))
    with pytest.raises(ValueError):
        solve_fixed_order(Instance((4.0, 2.0), 5.0), Order((1,)))


def test_report_doc_shape():
    report = solve_fixed_order(Instance((4.0,), 15.0), Order((1,)))
    doc = report.to_doc()
    assert set(doc) == {
        "alloc",
        "cost",
        "iterations",
        "duality_gap",
        "converged",
        "energy_slack",
        "overshoot",
    }
    assert doc["converged"] is True

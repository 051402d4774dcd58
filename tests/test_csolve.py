"""Solver tests: gradients against finite differences, curvature blocks,
convergence on reference instances, and the feasibility/optimality contracts."""

import itertools
import math

import numpy as np
import pytest

from edds.csolve import (
    SolveReport,
    SolverConfig,
    gradient,
    hessian_block,
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
    h = hessian_block(inst, 1, 1.0, 1.0, 1.0)
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
    hb = hessian_block(inst, 1, e0, t0, a)
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
        det = np.linalg.det(hessian_block(inst, packet, e, t, 1.0))
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
        h = hessian_block(inst, packet, e, t, 1.0)
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        closed = p**2 * t / (t + e) ** 2 * math.log1p(e / t) ** 2
        assert det == pytest.approx(closed, rel=1e-12, abs=0.0)
        assert np.array_equal(h, h.T)


def test_hessian_determinant_vanishes_with_energy():
    inst = Instance((4.0,), 10.0)
    det_small = np.linalg.det(hessian_block(inst, 1, 1e-6, 1.0, 1.0))
    det_unit = np.linalg.det(hessian_block(inst, 1, 1.0, 1.0, 1.0))
    assert 0 <= det_small < 1e-6 < det_unit


def test_hessian_block_domain_errors():
    inst = Instance((4.0,), 10.0)
    with pytest.raises(DomainError):
        hessian_block(inst, 1, -0.1, 1.0, 1.0)
    with pytest.raises(DomainError):
        hessian_block(inst, 1, 1.0, 1e-9, 1.0)
    with pytest.raises(ValueError):
        hessian_block(inst, 2, 1.0, 1.0, 1.0)


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


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(grad_tol=0)
    with pytest.raises(ValueError):
        SolverConfig(t_min=0)


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
    # root-finder steps on the multiplier, not descent steps on 2n variables
    rng = np.random.default_rng(53)
    for n in (4, 64, 256):
        for _ in range(3):
            inst = random_instance(rng, n)
            for order in (spf_order(inst), Order(tuple(rng.permutation(n) + 1))):
                report = solve_fixed_order(inst, order)
                assert report.converged
                assert report.iterations <= 20, (n, report.iterations)


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
    # 1100 bits on 50 J: at best 2**(1100 - 72) is left, beyond float64
    with pytest.raises(DomainError, match="packet 1"):
        solve_fixed_order(Instance((1100.0,), 50.0), Order((1,)))


def test_non_convergence_is_reported_not_raised():
    inst = Instance((15.0, 20.0), 50.0)
    report = solve_fixed_order(inst, Order((1, 2)), SolverConfig(max_iters=1))
    assert not report.converged
    assert report.final_pg_norm > SolverConfig().grad_tol
    assert isinstance(report, SolveReport)


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
        "final_pg_norm",
        "converged",
        "energy_slack",
        "overshoot",
    }
    assert doc["converged"] is True

"""Dual solver for the fixed-order continuous schedule.

For a fixed order the cost U = sum_i D_i + sum_i a_i t_i, with distortion
D_i = 2**(B_i - bhat_i(E_i, t_i)), is smooth and jointly convex over
{E_i >= 0, sum E_i <= E, t_i >= t_min}, so a KKT point is a global optimum.
With SNR x_i = E_i / t_i, dU/dE_i = -D_i / (1 + x_i) < 0, so the budget binds
with a multiplier mu = e**lam, and an interior packet has D_i / (1 + x_i) = mu
and dU/dt_i = a_i - D_i (ln(1 + x_i) - x_i / (1 + x_i)) = 0.  Dividing the two
leaves mu ((1 + x) ln(1 + x) - x) = a_i, i.e. with u_i = ln(1 + x_i)

    e**u (u - 1) + 1 = a_i e**-lam:

the SNR depends on a_i and lam alone.  The log of D_i = mu (1 + x_i) gives
t_i = (B_i ln 2 - lam - u_i) / u_i, and E_i = t_i x_i.  Two boundaries:

* B_i ln 2 <= lam: dU/dE_i = -2**B_i >= -mu already at E_i = 0, so E_i = 0,
  and t_i = t_min since then dU/dt_i = a_i > 0;
* a formula time below t_min: minimised over E_i, the cost is convex in t_i
  and rising on [t_min, inf), so t_i = t_min and the energy condition alone
  gives E_i = t_min expm1((B_i ln 2 - lam) / (t_min + 1)).

sum_i E_i(lam) falls strictly in lam, so the solve is one safeguarded scalar
root find plus vectorised closed forms.  The joint projected-gradient
residual of the returned point certifies convergence independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    T_MIN,
    ContinuousAllocation,
    CostBreakdown,
    DomainError,
    Instance,
    Order,
    delay_coefficients,
    evaluate_cost,
    shannon_bits,
)

_LN2 = math.log(2.0)
# Above lam = ln(max float) every energised packet's D_i = e**(lam + u_i)
# overflows, so the root find never looks there.
_LAM_MAX = math.log(np.finfo(float).max)
_SNR_STEPS = 5  # four Newton steps reach 1e-14 from the start in _snr
_ROOT_TOL = 1e-14  # |ln(spent / budget)| at which the root find stops


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for :func:`solve_fixed_order`."""

    max_iters: int = 200_000
    grad_tol: float = 1e-8
    t_min: float = T_MIN

    def __post_init__(self) -> None:
        if self.max_iters <= 0 or self.grad_tol <= 0:
            raise ValueError("max_iters and grad_tol must be positive")
        if self.t_min <= 0:
            raise ValueError("t_min must be positive")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one fixed-order solve.

    ``overshoot`` lists the (1-based) packets whose delivered bits exceed
    their size — the model never forbids that, so it is flagged, not fixed.
    """

    alloc: ContinuousAllocation
    cost: CostBreakdown
    iterations: int
    final_pg_norm: float
    converged: bool
    energy_slack: float
    overshoot: tuple[int, ...]

    def to_doc(self) -> dict:
        return {
            "alloc": self.alloc.to_doc(),
            "cost": self.cost.to_doc(),
            "iterations": self.iterations,
            "final_pg_norm": self.final_pg_norm,
            "converged": self.converged,
            "energy_slack": self.energy_slack,
            "overshoot": list(self.overshoot),
        }


# ---------------------------------------------------------------------------
# Smooth pieces (arrays in, arrays out).


def _grads(e, t, bits, a):
    """Per-packet dU/dE and dU/dt."""
    p = np.exp2(bits - shannon_bits(e, t))
    return -p / (1.0 + e / t), -p * (np.log1p(e / t) - e / (t + e)) + a


def gradient(inst: Instance, alloc: ContinuousAllocation) -> np.ndarray:
    """Analytic gradient of the total cost, interleaved as
    (dU/dE_1, dU/dt_1, dU/dE_2, dU/dt_2, ...)."""
    if alloc.n != inst.n:
        raise ValueError("allocation size does not match instance")
    e = np.asarray(alloc.energies)
    t = np.asarray(alloc.times)
    bits = np.asarray(inst.bits)
    a = delay_coefficients(alloc.order)
    out = np.empty(2 * inst.n)
    out[0::2], out[1::2] = _grads(e, t, bits, a)
    return out


def hessian_block(inst: Instance, packet: int, e: float, t: float, a: float) -> np.ndarray:
    """The 2x2 curvature block of one packet's cost in (E_i, t_i), exactly.

    D = 2**B e**-phi with phi = t ln(1 + x), x = e / t, so the block is
    D (g g^T + [[t, -e], [-e, e**2/t]] / (t + e)**2) with g = grad phi =
    (1/(1 + x), ln(1 + x) - x/(1 + x)).  The delay a t adds no curvature, and
    the cost separates across packets, so these blocks carry the Hessian.
    """
    if not 1 <= packet <= inst.n:
        raise ValueError("packet index out of range")
    d = 2.0 ** (inst.bits[packet - 1] - shannon_bits(e, t))  # validates e and t
    x = e / t
    g_e, g_t = 1.0 / (1.0 + x), math.log1p(x) - x / (1.0 + x)
    s = (t + e) ** 2
    off = d * (g_e * g_t - e / s)
    return np.array([[d * (g_e * g_e + t / s), off], [off, d * (g_t * g_t + e * e / t / s)]])


def project_budget(vec: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection onto {x : x >= 0, sum(x) <= budget}.

    If clamping to the orthant already satisfies the budget the clamp is the
    projection; otherwise project onto the simplex {x >= 0, sum(x) = budget}
    by the sort-and-threshold rule (O(n log n)).  The support test is written
    as ``cumsum(u) - k u < budget``, which is exact for the largest entry, so
    huge entries cannot round every candidate away.
    """
    clamped = np.maximum(vec, 0.0)
    if clamped.sum() <= budget:
        return clamped
    u = np.sort(vec)[::-1]
    cs = np.cumsum(u)
    ks = np.arange(1, len(vec) + 1)
    k = np.nonzero(cs - ks * u < budget)[0][-1]
    return np.maximum(vec - cs[k] / (k + 1.0) + budget / (k + 1.0), 0.0)


def _pg_norm(e, t, bits, a, budget, t_min):
    """Joint projected-gradient residual ||x - Proj(x - grad)|| at unit step."""
    g_e, g_t = _grads(e, t, bits, a)
    re = e - project_budget(e - g_e, budget)
    rt = t - np.maximum(t - g_t, t_min)
    return math.sqrt(float(re @ re + rt @ rt))


# ---------------------------------------------------------------------------
# The dual solve.


def _w2(u):
    """(u + expm1(-u)) / u**2, by its Taylor series where the sum cancels."""
    series = 0.5 - u * (1 / 6 - u * (1 / 24 - u * (1 / 120 - u / 720)))
    return np.where(u < 1e-2, series, (u + np.expm1(-u)) / u / u)


def _snr(log_c):
    """u = ln(1 + x) solving e**u (u - 1) + 1 = c, given ln c.

    With w = u + expm1(-u) = e**-u (e**u (u - 1) + 1), F(u) = u + ln w - ln c
    is increasing and concave (F'' <= 0 reduces to 1 + u <= e**u), so Newton
    steps from the lower bound u = log1p(sqrt(2c)) rise monotonically to the
    root.  Logs keep u > 0 representable down to c = e**-lam_max.  Also
    returns w / u**2 and du/d ln c = 1 / F'(u), both from the last step.
    """
    u = np.logaddexp(0.0, 0.5 * (log_c + _LN2))
    for _ in range(_SNR_STEPS):
        w2 = _w2(u)
        slope = 1.0 - np.expm1(-u) / u / (u * w2)
        u = u - (u + 2.0 * np.log(u) + np.log(w2) - log_c) / slope
    return u, w2, 1.0 / slope


def _packets(lam, bits, log_a, t_min):
    """Every packet's KKT energy, time and dE/dlam at multiplier e**lam."""
    with np.errstate(over="ignore", invalid="ignore"):
        k = bits * _LN2 - lam
        u, w2, du = _snr(log_a - lam)  # du/dlam = -du, as ln c = ln a - lam
        r = np.expm1(u) / u  # E = (k - u) r stays finite where t overflows
        e = (k - u) * r
        de = (du - 1.0) * r - (k - u) * np.exp(u) * w2 * du
        t = k / u - 1.0
        edge = t < t_min  # also every packet with k <= 0
        e_min = t_min * np.expm1(np.maximum(k, 0.0) / (t_min + 1.0))
        de_min = np.where(k > 0.0, -(e_min + t_min) / (t_min + 1.0), 0.0)
    return np.where(edge, e_min, e), np.where(edge, t_min, t), np.where(edge, de_min, de)


def _dual_solve(bits, a, budget, cfg):
    """Newton on g = ln(sum E(lam) / budget), then on sum E itself, then
    bisection, each kept inside the bracket [lo, hi].  At lo the largest
    packet alone spends the budget, whether its time is below 1 or not.
    Returns energies rescaled to spend the budget, times and steps."""
    hi = min(float(bits.max()) * _LN2, _LAM_MAX)
    lo = hi - 2.0 * max(budget, math.log1p(budget / cfg.t_min))
    lam = max(lo, hi - 1.0)
    for it in range(1, cfg.max_iters + 1):
        e, t, de = _packets(lam, bits, np.log(a), cfg.t_min)
        s, ds = float(e.sum()), float(de.sum())
        g = math.log(s) - math.log(budget)
        lo, hi = (lo, lam) if g <= 0.0 else (lam, hi)  # nan: sum overflowed
        nxt = lam - g * s / ds
        if abs(g) <= _ROOT_TOL or nxt == lam:
            break
        if not lo < nxt < hi:  # near lam_hi sum E is nearly linear in lam
            nxt = lam - (s - budget) / ds
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                break
        lam = nxt
    return e * (budget / s), t, it


def solve_fixed_order(inst: Instance, order: Order,
                      cfg: SolverConfig | None = None) -> SolveReport:
    """Solve the continuous problem for one fixed order.

    Returns a feasible allocation with joint projected-gradient residual at
    most ``cfg.grad_tol`` (``converged=True``) or gives up after
    ``cfg.max_iters`` root-finder steps (``converged=False``, never raised).
    Raises :class:`DomainError` when the optimum's distortion of some packet
    overflows float64.
    """
    cfg = cfg or SolverConfig()
    if order.n != inst.n:
        raise ValueError("order size does not match instance")
    if inst.energy <= 0:
        raise ValueError("the continuous solver needs a positive energy budget")
    bits = np.asarray(inst.bits)
    a = delay_coefficients(order)
    budget = inst.energy
    e, t, it = _dual_solve(bits, a, budget, cfg)
    with np.errstate(invalid="ignore"):  # nan where t overflowed
        lost = bits - shannon_bits(e, t)  # log2 of each distortion
    over = np.flatnonzero(~(lost < np.finfo(float).maxexp))
    if over.size:
        i = over[0]
        raise DomainError(f"packet {i + 1}: the optimal distortion "
                          f"2**{lost[i]:.6g} overflows float64")
    pg = _pg_norm(e, t, bits, a, budget, cfg.t_min)
    alloc = ContinuousAllocation(tuple(e), tuple(t), order)
    cost = evaluate_cost(inst, alloc)
    overshoot = tuple(
        i + 1 for i in range(inst.n) if cost.bhat[i] > inst.bits[i] + 1e-12
    )
    return SolveReport(
        alloc=alloc,
        cost=cost,
        iterations=it,
        final_pg_norm=pg,
        converged=bool(pg <= cfg.grad_tol),
        energy_slack=float(budget - e.sum()),
        overshoot=overshoot,
    )

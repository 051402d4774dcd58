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
root find plus vectorised closed forms.  At the last lam these minimise the
Lagrangian U + mu (sum_i E_i - E), so g = sum_i (D_i + a_i t_i + mu E_i) - mu E
bounds the optimum from below and the cost P of the point rescaled to spend
E from above: the relative duality gap (P - g) / P certifies it at any scale.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .model import (
    _LN2,
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

# Above lam = ln(max float) every energised packet's D_i = e**(lam + u_i)
# overflows, so the root find never looks there.
_LAM_MAX = math.log(np.finfo(float).max)
_SNR_STEPS = 4  # Newton steps in _snr: 3e-14 relative for any ln c
_ROOT_TOL = 1e-14  # |ln(spent / budget)| at which the root find stops
# ... or where its Newton step is within a few ulps of max(|lam|, B_max ln 2):
# k = B ln 2 - lam rounds at that scale, so no closer lam can be told apart,
# and where times are small that rounding holds the residual above _ROOT_TOL.
_STEP_TOL = 4 * 2.0**-52
GAP_TOL = 1e-12  # relative duality gap that certifies an answer
_MAX_STEPS = 200_000  # multiplier steps before a root find gives up; 4-5 typically certify


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one fixed-order solve.

    ``overshoot`` lists the (1-based) packets whose delivered bits exceed
    their size — the model never forbids that, so it is flagged, not fixed.
    """

    alloc: ContinuousAllocation
    cost: CostBreakdown
    iterations: int
    duality_gap: float
    converged: bool
    energy_slack: float
    overshoot: tuple[int, ...]

    def to_doc(self) -> dict:
        return {
            "alloc": self.alloc.to_doc(),
            "cost": self.cost.to_doc(),
            "iterations": self.iterations,
            "duality_gap": self.duality_gap,
            "converged": self.converged,
            "energy_slack": self.energy_slack,
            "overshoot": list(self.overshoot),
        }


# ---------------------------------------------------------------------------
# Smooth pieces (arrays in, arrays out).


def gradient(inst: Instance, alloc: ContinuousAllocation) -> np.ndarray:
    """Analytic gradient of the total cost, interleaved as
    (dU/dE_1, dU/dt_1, dU/dE_2, dU/dt_2, ...)."""
    if alloc.n != inst.n:
        raise ValueError("allocation size does not match instance")
    e = np.asarray(alloc.energies)
    t = np.asarray(alloc.times)
    p = np.exp2(np.asarray(inst.bits) - shannon_bits(e, t))
    out = np.empty(2 * inst.n)
    out[0::2] = -p / (1.0 + e / t)
    out[1::2] = -p * (np.log1p(e / t) - e / (t + e)) + delay_coefficients(alloc.order)
    return out


def _hessian_blocks(bits, e, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The curvature blocks' entries (h_ee, h_et, h_tt) at arrays of (B, e, t).

    The formula of ``hessian_block``, element by element over broadcast
    arrays.  Python's ``**`` and ``math.log1p`` run on each element: NumPy's
    ``power`` and ``log1p`` round some inputs differently in the last bit.
    """

    def each(fn, x: np.ndarray) -> np.ndarray:
        return np.array([fn(v) for v in x.ravel().tolist()], float).reshape(x.shape)

    d = each(lambda v: 2.0 ** v, bits - shannon_bits(e, t))  # validates e and t
    x = e / t
    g_e, g_t = 1.0 / (1.0 + x), each(math.log1p, x) - x / (1.0 + x)
    s = each(lambda v: v ** 2, t + e)
    return d * (g_e * g_e + t / s), d * (g_e * g_t - e / s), d * (g_t * g_t + e * e / t / s)


def hessian_block(inst: Instance, packet: int, e: float, t: float) -> np.ndarray:
    """The 2x2 curvature block of one packet's cost in (E_i, t_i), exactly.

    D = 2**B e**-phi with phi = t ln(1 + x), x = e / t, so the block is
    D (g g^T + [[t, -e], [-e, e**2/t]] / (t + e)**2) with g = grad phi =
    (1/(1 + x), ln(1 + x) - x/(1 + x)).  The delay a t adds no curvature, and
    the cost separates across packets, so these blocks carry the Hessian.
    """
    if not 1 <= packet <= inst.n:
        raise ValueError("packet index out of range")
    h_ee, h_et, h_tt = _hessian_blocks(
        np.array([inst.bits[packet - 1]]), np.array([e], float), np.array([t], float)
    )
    return np.array([[h_ee[0], h_et[0]], [h_et[0], h_tt[0]]])


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


# ---------------------------------------------------------------------------
# The dual solve.


def _w2(u):
    """w / u**2, w = u + expm1(-u), from its Taylor series: for u < 1e-2,
    where the sum in w cancels.  Takes a float or an array."""
    return 0.5 - u * (1 / 6 - u * (1 / 24 - u * (1 / 120 - u / 720)))


def _snr(log_c):
    """u = ln(1 + x) solving e**u (u - 1) + 1 = c, given ln c.

    With w = u + expm1(-u) = e**-u (e**u (u - 1) + 1), F(u) = u + ln w - ln c
    is increasing and concave (F'' <= 0 reduces to 1 + u <= e**u), so Newton
    steps u <- u - F(u) w / u, as F'(u) = u / w, rise monotonically from the
    lower bound u = log1p(sqrt(2c)) to the root.  Where u < 1e-2 the sum in w
    cancels, so ln w = 2 ln u + ln(w / u**2) takes w / u**2 from its Taylor
    series.  Logs keep u > 0 representable down to c = e**-lam_max.  Also
    returns w / u**2 and du/d ln c = 1 / F'(u) = w / u, both from the last step.
    """
    u = np.logaddexp(0.0, 0.5 * (log_c + _LN2))
    for _ in range(_SNR_STEPS):
        w = u + np.expm1(-u)
        du = w / u
        log_w = np.log(w)
        if np.fmin.reduce(u, axis=None) < 1e-2:  # fmin skips nan, as any() would
            small = u < 1e-2
            w2 = _w2(u)
            log_w = np.where(small, 2.0 * np.log(u) + np.log(w2), log_w)
            du = np.where(small, u * w2, du)
        last = u
        u = u - (u + log_w - log_c) * du
    return u, du / last, du


def _packets(lam, bits, log_a):
    """Every packet's KKT energy, time and dE/dlam at multiplier e**lam, the
    boundary forms only if some t < t_min.  Runs under its caller's errstate."""
    k = bits * _LN2 - lam
    u, w2, du = _snr(log_a - lam)  # du/dlam = -du, as ln c = ln a - lam
    r = np.expm1(u) / u  # E = (k - u) r stays finite where t overflows
    e = (k - u) * r
    de = (du - 1.0) * r - (k - u) * np.exp(u) * w2 * du
    t = k / u - 1.0
    if np.fmin.reduce(t, axis=None) < T_MIN:  # also every packet with k <= 0
        edge = t < T_MIN
        e_min = T_MIN * np.expm1(np.maximum(k, 0.0) / (T_MIN + 1.0))
        de_min = np.where(k > 0.0, -(e_min + T_MIN) / (T_MIN + 1.0), 0.0)
        # in place: a batch of orders holds no second copy of each array
        np.copyto(e, e_min, where=edge)
        np.copyto(t, T_MIN, where=edge)
        np.copyto(de, de_min, where=edge)
    return e, t, de


def _start(bits, a_bar, budget, lo, hi):
    """The multiplier at which a one-SNR model of the instance spends the
    budget, or ``max(lo, hi - 1)`` where that is not strictly inside (lo, hi).

    The model gives every packet the delay weight ``a_bar`` and so one SNR u:
    lam(u) = ln a_bar - u - ln w(u), w = u + expm1(-u), by ``_snr``'s F, and
    spent(u) = expm1(u)/u * sum_i max(B_i ln 2 - s, 0) with s = lam + u =
    ln a_bar - ln w, which rises with u.  Safeguarded Newton on
    ln spent(u) = ln E over v = ln u in (-360, 7) solves it in Python floats
    and logs, so nothing overflows; one bisect into the sorted B_i ln 2 finds
    the packets with B_i ln 2 > s.  For one packet the model is the problem,
    but for the t_min boundary, which it leaves out.
    """
    fallback = max(lo, hi - 1.0)
    ks = (np.sort(bits) * _LN2).tolist()
    tails = list(accumulate(reversed(ks)))  # tails[m - 1]: the m largest summed
    n, log_a, log_budget = len(ks), math.log(a_bar), math.log(budget)
    v_lo, v_hi, v = -360.0, 7.0, 0.0  # u from 4e-157, where s > _LAM_MAX, to 1100
    for _ in range(60):  # Newton takes 4-19 steps; bisection alone would need 40
        u = math.exp(v)
        rise = -math.expm1(-u)  # 1 - e**-u
        if u < 1e-2:  # w = u**2 w2 cancels, and is subnormal at v near -360
            w2 = _w2(u)
            log_w, rise_u_w = 2.0 * v + math.log(w2), rise / (u * w2)
            log_r, dlog_r = math.log(math.expm1(u) / u), 0.5 + u / 12
        else:
            w = u - rise
            log_w, rise_u_w = math.log(w), rise * u / w
            log_r, dlog_r = u + math.log(rise) - v, 1.0 / rise - 1.0 / u
        s = log_a - log_w
        m = n - bisect_right(ks, s)
        active = tails[m - 1] - m * s if m else 0.0
        if not active > 0.0:  # no packet spends: u is too small
            v_lo, nxt = v, 0.5 * (v + v_hi)
        else:
            g = log_r + math.log(active) - log_budget
            if g <= 0.0:
                v_lo = v
            else:
                v_hi = v
            step = g / (u * dlog_r + m * rise_u_w / active)
            # 1e-9 of the budget, or v at its rounding; lam is taken at
            # v - step, linearly, as dlam/dv = -(u + rise u / w)
            if abs(g) <= 1e-9 or abs(step) <= 1e-12:
                lam = s - u + step * (u + rise_u_w)
                return lam if lo < lam < hi else fallback
            nxt = v - step
            if not v_lo < nxt < v_hi:
                nxt = 0.5 * (v_lo + v_hi)
        v = nxt
    return fallback


def _dual_solve(bits, a, budget):
    """Newton on g = ln(sum E(lam) / budget), then on sum E itself, then
    bisection, each kept inside the bracket [lo, hi].  At lo the largest
    packet alone spends the budget, whether its time is below 1 or not, and
    lo is at least one float64 step below hi, where no packet spends.  The
    root find starts where ``_start``'s one-SNR model, at the mean delay
    weight, spends the budget: 0.2-0.7 from the root on random instances with
    n from 4 to 256, and on it for one packet, where B_max ln 2 - 1 was 15-18
    from it.  That takes 4-5 steps where that start took 7-9.  A row stops
    where its residual is within ``_ROOT_TOL`` or its Newton step within
    ``_STEP_TOL`` of max(|lam|, B_max ln 2), taking |lam| at the start.

    ``a`` holds one row of delay weights per order, and every row runs this
    root find on its own: its own bracket, its own kind of step, and its own
    stop, after which it is frozen.  Each step batches the rows still
    running.  Every row holds the same integer weights 1..n in some order, so
    their mean, and with it the start, is exact and the same for every row.
    Every operation is elementwise or a row sum, so a row's answer is bit for
    bit the one it gets alone.  Returns each row's last lam, its
    energies and times, their sum and the steps taken, at most ``_MAX_STEPS``.
    """
    hi0 = min(float(bits.max()) * _LN2, _LAM_MAX)
    lo0 = min(hi0 - 2.0 * max(budget, math.log1p(budget / T_MIN)), math.nextafter(hi0, -math.inf))
    log_a = np.log(a)
    log_budget = math.log(budget)
    k = len(a)
    lam, spent, iters = np.empty(k), np.empty(k), np.empty(k, dtype=int)
    e, t = np.empty(a.shape), np.empty(a.shape)
    rows = np.arange(k)  # the rows still running; x, lo, hi and log_a are theirs
    lo, hi = np.full(k, lo0), np.full(k, hi0)
    x0 = _start(bits, float(a[0].mean()), budget, lo0, hi0)
    step_floor = _STEP_TOL * max(hi0, abs(x0))  # lam moves little from x0
    x = np.full(k, x0)
    with np.errstate(all="ignore"):
        for it in range(1, _MAX_STEPS + 1):
            er, tr, de = _packets(x[:, None], bits, log_a)
            s, ds = er.sum(axis=1), de.sum(axis=1)
            g = np.log(s) - log_budget
            down = g <= 0.0  # nan: sum overflowed
            lo, hi = np.where(down, lo, x), np.where(down, x, hi)
            step = g * s / ds
            nxt = x - step
            stop = (np.abs(g) <= _ROOT_TOL) | (np.abs(step) <= step_floor)
            inside = (lo < nxt) & (nxt < hi)
            if not inside.all():  # near lam_hi sum E is nearly linear in lam
                nxt = np.where(inside, nxt, x - (s - budget) / ds)
                inside = (lo < nxt) & (nxt < hi)
                if not inside.all():
                    nxt = np.where(inside, nxt, 0.5 * (lo + hi))
                    stop |= ~((lo < nxt) & (nxt < hi))
            if it == _MAX_STEPS:
                stop[:] = True
            if stop.any():
                done = rows[stop]
                lam[done], e[done], t[done], spent[done] = x[stop], er[stop], tr[stop], s[stop]
                iters[done] = it
                go = ~stop
                if not go.any():
                    break
                rows, nxt, lo, hi, log_a = rows[go], nxt[go], lo[go], hi[go], log_a[go]
            x = nxt
    return lam, e, t, spent, iters


class _Roots(NamedTuple):
    """The root find's last point, one row per order."""

    lam: np.ndarray  # (k,) the last multiplier evaluated
    raw: np.ndarray  # (k, n) its energies, which spend `spent`
    t: np.ndarray  # (k, n) its times
    spent: np.ndarray  # (k,)
    iters: np.ndarray  # (k,) multiplier steps
    e: np.ndarray  # (k, n) raw rescaled to spend the budget
    lost: np.ndarray  # (k, n) log2 running sums of the distortions at e


def _solve_orders(inst: Instance, a: np.ndarray) -> _Roots:
    """The root find on every row of delay weights ``a`` at once, with each
    row's energies rescaled to spend the budget."""
    if inst.energy <= 0:
        raise ValueError("the continuous solver needs a positive energy budget")
    bits = np.asarray(inst.bits)
    budget = inst.energy
    lam, raw, t, spent, iters = _dual_solve(bits, a, budget)
    with np.errstate(invalid="ignore"):  # nan where t or the sum overflowed
        e = raw / spent[:, None] * budget  # one packet spends exactly the budget
        lost = np.logaddexp2.accumulate(bits - shannon_bits(e, t), axis=1)
    return _Roots(lam, raw, t, spent, iters, e, lost)


def _report(inst: Instance, order: Order, roots: _Roots, i: int) -> SolveReport:
    """Row ``i`` of a root find, solved in ``order``, as a report.

    Raises :class:`DomainError`, naming the packet, once the running sum of
    the distortions overflows float64.
    """
    over = np.flatnonzero(~(roots.lost[i] < np.finfo(float).maxexp))
    if over.size:
        j = over[0]
        raise DomainError(f"packet {j + 1}: the optimal distortion, summed up to this "
                          f"packet, 2**{roots.lost[i, j]:.6g} overflows float64")
    raw, e, t = roots.raw[i], roots.e[i], roots.t[i]
    budget, spent = inst.energy, float(roots.spent[i])
    alloc = ContinuousAllocation(tuple(e), tuple(t), order)
    cost = evaluate_cost(inst, alloc)
    # P - g = sum_i D_i expm1(ln 2 (bhat_i - bhat'_i)) + mu (E - spent), D_i and
    # bhat_i at the raw energies: the delays cancel, ln 2 (bhat_i - bhat'_i) =
    # t log1p(dE / (t + E')) and D_i = D'_i e**-that, so nothing large cancels.
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: not converged
        nats = t * np.log1p((raw - e) / (t + e))
        gap = -float(np.asarray(cost.distortions) @ np.expm1(-nats))
        gap = (gap + math.exp(roots.lam[i]) * (budget - spent)) / cost.total
    if math.isnan(gap):  # 0 * inf: a D_i underflowed where expm1 overflowed
        gap = math.inf
    overshoot = tuple(
        j + 1 for j in range(inst.n) if cost.bhat[j] > inst.bits[j] + 1e-12
    )
    return SolveReport(
        alloc=alloc,
        cost=cost,
        iterations=int(roots.iters[i]),
        duality_gap=gap,
        converged=bool(abs(gap) <= GAP_TOL),
        energy_slack=float(budget - e.sum()),
        overshoot=overshoot,
    )


def solve_fixed_order(inst: Instance, order: Order) -> SolveReport:
    """Solve the continuous problem for one fixed order.

    Returns the closed forms at the last multiplier, energies scaled to spend
    the budget.  ``duality_gap`` is (P - g) / P: their cost P less the dual
    bound g at that multiplier, relative to P, or +inf where it cannot be
    formed.  ``converged`` says the gap is at most ``GAP_TOL`` in size (one
    far below zero is rounding, not a bound); after ``_MAX_STEPS`` steps
    without that it is False, never raised.  Raises :class:`DomainError`,
    naming the packet, once the running sum of the optimum's distortions
    overflows float64.
    """
    if order.n != inst.n:
        raise ValueError("order size does not match instance")
    return _report(inst, order, _solve_orders(inst, delay_coefficients(order)[None]), 0)

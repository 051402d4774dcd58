"""Transmission-order search.

Shortest-packet-first (SPF) is optimal: no order costs less.  The proof is
Lagrangian.

* Fix the energy multiplier mu = e**lam.  For a fixed order the Lagrangian
  separates over packets: packet i, at delay weight a, contributes

      phi(B, a) = min over E >= 0, t >= t_min of 2**(B - bhat(E, t)) + a t + mu E,

  and the dual function is g_pi(mu) = sum_i phi(B_i, a_pi(i)) - mu E.
  Every order hands out the same weights {n, ..., 1}, one per packet.
* phi is a minimum of functions affine in a, so by the envelope theorem
  phi(B, a') - phi(B, a) is the integral of t*(B, s) over s from a to a',
  where t* is the minimising time.  ``csolve``'s closed form gives
  t* = max(t_min, (B ln 2 - lam) / u - 1), with u = u(a, lam) > 0 the same
  for every B, so t* never falls as B grows: phi has increasing
  differences in (B, a).
* With increasing differences, swapping two packets' weights so that the
  larger packet gets the smaller weight never raises sum_i phi (the
  rearrangement inequality).  Such swaps reach SPF, which gives the largest
  weight to the shortest packet, so g_pi(mu) >= g_SPF(mu) for every order
  pi and every mu.
* For a fixed order the problem is convex and strictly feasible (E > 0),
  so strong duality gives P(pi) = max over mu of g_pi(mu), which is at
  least max over mu of g_SPF(mu) = P(SPF).

Packets of equal size are interchangeable, so every tie-break among them is
optimal too.  ``brute_force_order`` (all n! orders) stays as the oracle the
theorem is tested against.
"""

from __future__ import annotations

import math
from itertools import chain, islice, permutations

import numpy as np

from .model import Instance, Order, SizeError
# solve_fixed_order stays importable here: perfbench's tracer wraps it under
# this name.
from .csolve import SolveReport, _report, _solve_orders, solve_fixed_order  # noqa: F401

N_MAX = 8  # 8! = 40320 orders, solved in blocks of _BLOCK rows, is the ceiling.
_BLOCK = 5040  # 7!: orders per batched root find, which bounds its memory
_SCREEN_RTOL = 1e-9  # screened costs this close to the least get a full report


def brute_force_order(inst: Instance) -> tuple[Order, SolveReport]:
    """Solve every permutation and keep the cheapest.

    The orders go, one row of delay weights each, through one batched root
    find per block of at most 5040: a row's answer is bit for bit what
    ``solve_fixed_order`` returns for its order, a truncated root find
    included.  Each row is screened by P = sum D_i + sum a_i t_i, and only
    the rows within a relative 1e-9 of the least P so far, plus every row
    whose distortions overflow, become reports, without a re-solve, in
    permutation order.  So ties keep the lexicographically smallest
    permutation (a strict < in the iteration order), the result is
    deterministic, and an overflowing order raises the
    :class:`DomainError` of the first such permutation, as one solve per
    order would.
    """
    if inst.n > N_MAX:
        raise SizeError(f"brute force is capped at n_max={N_MAX} packets, got {inst.n}")
    n = inst.n
    perms = permutations(range(1, n + 1))
    best, floor = None, math.inf
    for _ in range(0, math.factorial(n), _BLOCK):
        block = np.fromiter(chain.from_iterable(islice(perms, _BLOCK)), float).reshape(-1, n)
        best, floor = _search_block(inst, block, best, floor)
    assert best is not None
    return best


def _search_block(inst, block, best, floor):
    """Solve one block of orders, rows of positions, and return the cheapest
    (order, report) so far with the least screened cost so far.  The block's
    arrays are freed on return, before the next block is solved."""
    a = inst.n - block + 1.0  # delay_coefficients, row by row
    roots = _solve_orders(inst, a)
    ok = roots.lost[:, -1] < np.finfo(float).maxexp  # the whole distortion sum
    with np.errstate(over="ignore", invalid="ignore"):
        screen = np.where(ok, np.exp2(roots.lost[:, -1]) + (a * roots.t).sum(axis=1), math.inf)
    floor = min(floor, float(screen.min()))
    for i in np.flatnonzero(~ok | (screen <= floor + _SCREEN_RTOL * abs(floor))):
        order = Order(block[i])
        report = _report(inst, order, roots, i)
        if best is None or report.cost.total < best[1].cost.total:
            best = (order, report)
    return best, floor


def spf_order(inst: Instance) -> Order:
    """Shortest packet first: sort by B_i ascending, ties by packet index."""
    seq = sorted(range(1, inst.n + 1), key=lambda i: (inst.bits[i - 1], i))
    return Order.from_sequence(seq)


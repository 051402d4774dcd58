"""Property-check engine.

Numerically probes the structural claims the rest of the package leans on:
monotonicity and supermodularity of the discrete per-packet cost viewed as a
set function of resource cells, midpoint convexity of the continuous cost,
and positive definiteness of its per-packet curvature blocks, whose closed
form (``hessian_block``) lives here because the solver never needs it.
Checkers report violations with witnesses; they never assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable, Mapping

import numpy as np

from .discrete import DiscreteParams, _slot_bit_table, idle_costs
from .model import Instance, Order, SizeError, delay_coefficients, shannon_bits

SUPERMODULAR_TOL = 1e-9
MONOTONE_TOL = 1e-9
CONVEXITY_TOL = 1e-9
_EXHAUSTIVE_MAX = 10
_GROUND_MAX = 20
# Trials the convexity probe evaluates at once; its arrays never grow past
# this many rows, however many trials run.
_TRIAL_BLOCK = 256
# (set, cells) rows the exhaustive set probes score at once, for the same reason.
_SET_BLOCK = 1 << 16


@dataclass(frozen=True)
class SetFunction:
    """A set function bundled with its finite ground set.

    ``fn`` maps frozensets of ground elements to reals; calling the wrapper
    with any iterable of elements delegates to it.  The set probes take its
    values as float64, so an int-valued ``fn`` reports a float margin.
    """

    ground: tuple
    fn: Callable[[frozenset], float]

    def __call__(self, s) -> float:
        return self.fn(frozenset(s))


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property probe.

    ``margin`` is the smallest slack seen (negative iff some check failed by
    more than nothing); ``worst_witness`` is populated only when there are
    violations.
    """

    name: str
    trials: int
    violations: int
    worst_witness: tuple | None
    margin: float

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "violations": self.violations,
            "worst_witness": (
                None if self.worst_witness is None else _witness_doc(self.worst_witness)
            ),
            "margin": self.margin,
        }


def _witness_doc(witness: tuple):
    out = []
    for part in witness:
        if isinstance(part, frozenset):
            out.append(sorted(part))
        elif isinstance(part, (list, tuple, np.ndarray)):
            out.append([float(x) for x in part])
        else:
            out.append(part)
    return out


class _Probe:
    """Shared bookkeeping: count trials, track the most negative slack."""

    def __init__(self, tol: float):
        self.tol = tol
        self.trials = 0
        self.violations = 0
        self.margin = math.inf
        self.witness: tuple | None = None

    def record(self, slack: float, witness: tuple) -> None:
        self.trials += 1
        bad = slack < -self.tol
        if bad:
            self.violations += 1
        if slack < self.margin:
            self.margin = slack
            if bad:
                self.witness = witness

    def record_all(self, slacks: np.ndarray, witness: Callable[[int], tuple]) -> None:
        """``record`` each slack in turn, in one pass; ``witness(k)`` names slack k.

        As in ``record``, a nan slack counts as a trial but is never a
        violation and never sets the margin, and the margin takes the first
        of equal slacks.
        """
        self.trials += len(slacks)
        self.violations += int(np.count_nonzero(slacks < -self.tol))
        if len(slacks):
            k = int(np.argmin(np.where(np.isnan(slacks), np.inf, slacks)))
            if slacks[k] < self.margin:
                self.margin = float(slacks[k])
                if self.margin < -self.tol:
                    self.witness = witness(k)

    def report(self, name: str) -> PropertyReport:
        margin = 0.0 if self.trials == 0 else self.margin
        witness = self.witness if self.violations else None
        return PropertyReport(name, self.trials, self.violations, witness, margin)


def check_ground_size(cells: int) -> None:
    """Refuse a negative ground set size, or one above ``_GROUND_MAX`` cells."""
    if cells < 0:
        raise ValueError(f"ground set size must be non-negative, got {cells}")
    if cells > _GROUND_MAX:
        raise SizeError(f"ground set is capped at {_GROUND_MAX} cells, got {cells}")


def _check_trials(trials: int) -> None:
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")


def _subset_of(ground: tuple, mask: int) -> frozenset:
    return frozenset(g for b, g in enumerate(ground) if mask >> b & 1)


def _probe_sets(name: str, tol: float, k: int, slack: Callable[..., float], f: SetFunction,
                trials: int, seed: int, exhaustive: bool | None) -> PropertyReport:
    """Record ``slack(v, S, *cells)`` over sets S and k cells outside S.

    Sets and cells are integer masks over the ground set's positions, and
    ``v`` maps masks to f's values as float64.  The exhaustive mode
    evaluates f once per subset into a table, then scores the rows in the
    order of a per-row loop (S ascending, then ``combinations`` of the
    cells outside S) in blocks of at most ``_SET_BLOCK`` rows, one NumPy
    pass each.  Each slack is the loop's, operand for operand, so the
    report is the loop's, and memory beyond the table stays flat up to
    ``_GROUND_MAX`` cells.  The sampled mode draws a mask with at least k
    cells outside it, then k distinct cells of those, and evaluates each
    subset once; with fewer than k cells there is no such mask, and both
    modes report 0 trials.  Only the worst witness is turned back into a set.
    """
    _check_trials(trials)
    ground = tuple(f.ground)
    m = len(ground)
    check_ground_size(m)
    if exhaustive is None:
        exhaustive = m <= _EXHAUSTIVE_MAX
    probe = _Probe(tol)
    if exhaustive:
        table = np.fromiter((f.fn(_subset_of(ground, mask)) for mask in range(1 << m)),
                            float, 1 << m)
        combos = np.array(list(combinations(range(m), k)), dtype=np.int64).reshape(-1, k)
        cell_masks = 1 << combos
        unions = cell_masks.sum(1)
        step = _SET_BLOCK // max(len(combos), 1)
        for lo in range(0, 1 << m, step):
            masks = np.arange(lo, min(lo + step, 1 << m))
            rows, c = np.nonzero((masks[:, None] & unions) == 0)
            s = masks[rows]
            with np.errstate(over="ignore", invalid="ignore"):
                slacks = slack(table.take, s, *cell_masks[c].T)
            probe.record_all(slacks, lambda q: (int(s[q]), *combos[c[q]].tolist()))
    else:
        v = cache(lambda mask: float(f.fn(_subset_of(ground, mask))))
        rng = np.random.default_rng(seed)
        for _ in range(trials if m >= k else 0):
            while True:
                mask = int(rng.integers(0, 1 << m))
                rest = [b for b in range(m) if not mask >> b & 1]
                if len(rest) >= k:
                    break
            cells = [rest[c] for c in rng.choice(len(rest), k, replace=False)]
            probe.record(slack(v, mask, *(1 << b for b in cells)), (mask, *cells))
    if probe.witness is not None:
        mask, *cells = probe.witness
        probe.witness = (_subset_of(ground, mask), *(ground[b] for b in cells))
    return probe.report(name)


def check_supermodular(
    f: SetFunction, trials: int = 1000, seed: int = 0, exhaustive: bool | None = None
) -> PropertyReport:
    """Probe f(S+i) + f(S+j) <= f(S) + f(S+i+j) over triples (S, i, j).

    Exhausts all triples when the ground set has at most 10 cells (or when
    forced), scoring them in bulk from one evaluation of f per subset;
    otherwise samples `trials` of them with the seeded generator.  Raises
    ``ValueError`` for ``trials < 0``.
    """
    return _probe_sets(
        "supermodular", SUPERMODULAR_TOL, 2,
        lambda v, s, i, j: v(s) + v(s | i | j) - v(s | i) - v(s | j),
        f, trials, seed, exhaustive,
    )


def check_monotone(
    f: SetFunction, trials: int = 1000, seed: int = 0, exhaustive: bool | None = None
) -> PropertyReport:
    """Probe f(S + x) <= f(S): adding resources never increases cost.

    Exhaustive or sampled as in ``check_supermodular``, and like it
    evaluates each subset once; raises ``ValueError`` for ``trials < 0``.
    """
    return _probe_sets(
        "monotone", MONOTONE_TOL, 1, lambda v, s, x: v(s) - v(s | x),
        f, trials, seed, exhaustive,
    )


def di_as_set_function(
    inst: Instance,
    params: DiscreteParams,
    packet: int,
    slot_ownership: Mapping[int, int],
    max_level: int | None = None,
    distortion_only: bool = False,
    greedy_reachable: bool = False,
) -> SetFunction:
    """Packet ``packet``'s discrete cost D_i as a set function of cells.

    The ground set holds one cell (j, m) per slot j <= max_slots and level
    m <= max_level; a subset S loads slot j with R_j(S) quanta, where R_j is
    the number of levels of j present in S (or, under ``greedy_reachable``,
    the length of the contiguous level prefix present — the states the
    one-quantum-at-a-time dynamics can actually reach).  Only slots that
    ``slot_ownership`` assigns to the packet contribute bits, and the delay
    is slot_len times the last such loaded slot (zero when none, or when
    ``distortion_only`` drops the delay term altogether).
    """
    if not 1 <= packet <= inst.n:
        raise ValueError("packet index out of range")
    idle_costs(inst.bits)
    levels = params.budget_quanta if max_level is None else max_level
    levels = max(levels, 0)
    ground = tuple(
        (j, m) for j in range(1, params.max_slots + 1) for m in range(1, levels + 1)
    )
    b_i = inst.bits[packet - 1]
    owned = tuple(
        j
        for j in range(1, params.max_slots + 1)
        if slot_ownership.get(j) == packet
    )
    table = _slot_bit_table(params, levels)

    def fn(s: frozenset) -> float:
        sent = 0.0
        imax = 0
        for j in owned:
            if greedy_reachable:
                r = 0
                while (j, r + 1) in s:
                    r += 1
            else:
                r = sum(1 for (jj, _) in s if jj == j)
            if r:
                sent += table[r]
                imax = j
        d = 2.0 ** (b_i - sent)
        if not distortion_only and imax:
            d += params.slot_len * imax
        return d

    return SetFunction(ground, fn)


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


def check_convexity(
    inst: Instance, order: Order, trials: int = 1000, seed: int = 0
) -> PropertyReport:
    """Midpoint-convexity and curvature probe of the continuous cost.

    Each trial draws two feasible points, checks
    U((x+y)/2) <= (U(x) + U(y))/2 + tol, and checks every packet's 2x2
    curvature block at the midpoint for positive determinant and trace.  All
    three slacks feed one report (the block checks use zero tolerance).
    Raises ``ValueError`` for ``trials < 0``.

    Trials run in blocks of ``_TRIAL_BLOCK`` (the last one short).  For
    each block the seeded generator makes three draws, in this order: the
    budget fractions ``uniform`` of shape (rows, 2, 1), the directions
    ``dirichlet`` of shape (rows, 2), and the times ``uniform(0.1, 10)`` of
    shape (rows, 2, n); trial k's points are x = (e[k, 0], t[k, 0]) and
    y = (e[k, 1], t[k, 1]).  Seeded reports therefore depend on
    ``_TRIAL_BLOCK``.  One NumPy pass scores the block's costs and curvature
    blocks, element for element as a per-trial loop would, and the slacks
    are recorded in trial order (the midpoint, then packets 1..n).  The
    report is that loop's, and memory stays flat in ``trials``.  Where a
    block's entries overflow (packets of about a thousand bits) its slacks
    are nan, quietly: a nan slack counts as a trial and nothing else, as
    min(det, trace) and ``<`` treat it.
    """
    _check_trials(trials)
    if order.n != inst.n:
        raise ValueError("order size does not match instance")
    n = inst.n
    bits = np.asarray(inst.bits)
    a = delay_coefficients(order)
    ones = np.ones(n)
    rng = np.random.default_rng(seed)
    probe = _Probe(CONVEXITY_TOL)

    def cost(e: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The continuous total cost of each row of energies e and times t."""
        # A stack of row-by-vector products: one dot per row, as a 1-D
        # ``a @ t`` sums it (``t @ a`` on the matrix may sum in another order).
        delay = (t[:, None, :] @ a[:, None])[:, 0, 0]
        return np.exp2(bits - shannon_bits(e, t)).sum(1) + delay

    for start in range(0, trials, _TRIAL_BLOCK):
        rows = min(_TRIAL_BLOCK, trials - start)
        e = inst.energy * rng.uniform(size=(rows, 2, 1)) * rng.dirichlet(ones, size=(rows, 2))
        t = rng.uniform(0.1, 10.0, (rows, 2, n))
        ex, ey, tx, ty = e[:, 0], e[:, 1], t[:, 0], t[:, 1]
        em, tm = 0.5 * (ex + ey), 0.5 * (tx + ty)
        slacks = np.empty((rows, n + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            slacks[:, 0] = 0.5 * (cost(ex, tx) + cost(ey, ty)) - cost(em, tm)
            h_ee, h_et, h_tt = _hessian_blocks(bits, em, tm)
            det, trace = h_ee * h_tt - h_et * h_et, h_ee + h_tt
        slacks[:, 1:] = np.where(trace < det, trace, det)  # Python's min(det, trace)

        def witness(flat: int) -> tuple:
            k, i = divmod(flat, n + 1)
            if i == 0:
                return ("midpoint", tuple(ex[k]), tuple(tx[k]), tuple(ey[k]), tuple(ty[k]))
            return ("hessian", i, float(em[k, i - 1]), float(tm[k, i - 1]))

        probe.record_all(slacks.ravel(), witness)
    return probe.report("convexity")

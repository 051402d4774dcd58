"""Property-check engine.

Numerically probes the structural claims the rest of the package leans on:
monotonicity and supermodularity of the discrete per-packet cost viewed as a
set function of resource cells, midpoint convexity of the continuous cost,
and positive definiteness of its per-packet curvature blocks.  Checkers
report violations with witnesses; they never assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Mapping

import numpy as np

# hessian_block, the one-packet form of the probe's blocks, stays importable
# here: perfbench's tracer wraps it under this name.
from .csolve import _hessian_blocks, hessian_block  # noqa: F401
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


@dataclass(frozen=True)
class SetFunction:
    """A set function bundled with its finite ground set.

    ``fn`` maps frozensets of ground elements to reals; calling the wrapper
    with any iterable of elements delegates to it.
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
    """Refuse a ground set of more than ``_GROUND_MAX`` cells."""
    if cells > _GROUND_MAX:
        raise SizeError(f"ground set is capped at {_GROUND_MAX} cells, got {cells}")


def _check_trials(trials: int) -> None:
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")


def _ground_checked(f: SetFunction) -> tuple:
    ground = tuple(f.ground)
    check_ground_size(len(ground))
    return ground


def _subset_of(ground: tuple, mask: int) -> frozenset:
    return frozenset(g for b, g in enumerate(ground) if mask >> b & 1)


def check_supermodular(
    f: SetFunction, trials: int = 1000, seed: int = 0, exhaustive: bool | None = None
) -> PropertyReport:
    """Probe f(S+i) + f(S+j) <= f(S) + f(S+i+j) over triples (S, i, j).

    Exhausts all triples when the ground set has at most 10 cells (or when
    forced); otherwise samples `trials` of them with the seeded generator.
    Raises ``ValueError`` for ``trials < 0``.
    """
    _check_trials(trials)
    ground = _ground_checked(f)
    m = len(ground)
    if exhaustive is None:
        exhaustive = m <= _EXHAUSTIVE_MAX
    probe = _Probe(SUPERMODULAR_TOL)
    cache: dict[frozenset, float] = {}

    def fv(s: frozenset) -> float:
        if s not in cache:
            cache[s] = f.fn(s)
        return cache[s]

    def visit(s: frozenset, i, j) -> None:
        slack = fv(s) + fv(s | {i, j}) - fv(s | {i}) - fv(s | {j})
        probe.record(slack, (s, i, j))

    if exhaustive:
        for mask in range(1 << m):
            s = _subset_of(ground, mask)
            rest = [g for b, g in enumerate(ground) if not mask >> b & 1]
            for i, j in combinations(rest, 2):
                visit(s, i, j)
    else:
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            while True:
                mask = int(rng.integers(0, 1 << m))
                rest = [g for b, g in enumerate(ground) if not mask >> b & 1]
                if len(rest) >= 2:
                    break
            i, j = (rest[k] for k in rng.choice(len(rest), 2, replace=False))
            visit(_subset_of(ground, mask), i, j)
    return probe.report("supermodular")


def check_monotone(
    f: SetFunction, trials: int = 1000, seed: int = 0, exhaustive: bool | None = None
) -> PropertyReport:
    """Probe f(S + x) <= f(S): adding resources never increases cost.

    Exhaustive or sampled as in ``check_supermodular``; raises
    ``ValueError`` for ``trials < 0``.
    """
    _check_trials(trials)
    ground = _ground_checked(f)
    m = len(ground)
    if exhaustive is None:
        exhaustive = m <= _EXHAUSTIVE_MAX
    probe = _Probe(MONOTONE_TOL)

    def visit(s: frozenset, x) -> None:
        slack = f.fn(s) - f.fn(s | {x})
        probe.record(slack, (s, x))

    if exhaustive:
        for mask in range(1 << m):
            s = _subset_of(ground, mask)
            for b, g in enumerate(ground):
                if not mask >> b & 1:
                    visit(s, g)
    else:
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            while True:
                mask = int(rng.integers(0, 1 << m))
                rest = [g for b, g in enumerate(ground) if not mask >> b & 1]
                if rest:
                    break
            x = rest[int(rng.integers(0, len(rest)))]
            visit(_subset_of(ground, mask), x)
    return probe.report("monotone")


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


def check_convexity(
    inst: Instance, order: Order, trials: int = 1000, seed: int = 0
) -> PropertyReport:
    """Midpoint-convexity and curvature probe of the continuous cost.

    Each trial draws two feasible points, checks
    U((x+y)/2) <= (U(x) + U(y))/2 + tol, and checks every packet's 2x2
    curvature block at the midpoint for positive determinant and trace.  All
    three slacks feed one report (the block checks use zero tolerance).
    Raises ``ValueError`` for ``trials < 0``.

    Trials run in blocks of ``_TRIAL_BLOCK``: the seeded generator draws
    each trial's points in turn, then one NumPy pass scores the block's
    costs and curvature blocks, element for element as a per-trial loop
    would, and the slacks are recorded in trial order (the midpoint, then
    packets 1..n).  The report is the loop's, and memory stays flat in
    ``trials``.  Where a block's entries overflow (packets of about a
    thousand bits) its slacks are nan, quietly: a nan slack counts as a
    trial and nothing else, as min(det, trace) and ``<`` treat it.
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
        ex, tx, ey, ty = (np.empty((rows, n)) for _ in range(4))
        for k in range(rows):
            for e, t in ((ex, tx), (ey, ty)):
                e[k] = inst.energy * rng.uniform() * rng.dirichlet(ones)
                t[k] = rng.uniform(0.1, 10.0, n)
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

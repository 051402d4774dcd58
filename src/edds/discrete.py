"""Discrete resource-block allocation.

Time is cut into slots of length ``l`` and energy into quanta of size ``e``;
a resource block is one quantum spent in one slot.  All bits sent in a slot
belong to a single packet, slot ``j`` with ``R_j`` quanta carries
``l * log2(1 + e * R_j / l)`` bits of its owner, and packet ``i`` pays

    D_i = 2**(B_i - sum of its slots' bits) + l * i_max,

where ``i_max`` is the last slot carrying any of its bits (a packet that
never transmits pays distortion ``2**B_i`` and no delay).  The greedy
allocator spends one quantum at a time where it helps most; the exhaustive
oracle certifies it on small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .model import T_MIN, DomainError, InfeasibleError, Instance, SizeError, shannon_bits

# A budget of more quanta than this is refused: the greedy builds a table of
# Q + 1 floats and takes one step per quantum, each O(n + load runs).
MAX_QUANTA = 10_000_000
# The exhaustive oracle's caps on packets, quanta and slots.
ORACLE_CAPS = (3, 6, 6)


@dataclass(frozen=True)
class DiscreteParams:
    """Discretization constants: slot length, quantum size, and caps."""

    slot_len: float
    quantum: float
    budget_quanta: int
    max_slots: int

    def __post_init__(self) -> None:
        if not T_MIN <= self.slot_len < math.inf:  # also nan
            raise ValueError(f"slot_len must be finite and >= {T_MIN}, got {self.slot_len!r}")
        if not 0.0 < self.quantum < math.inf:
            raise ValueError(f"quantum must be positive and finite, got {self.quantum!r}")
        if self.budget_quanta < 0 or self.max_slots < 0:
            raise ValueError("budget_quanta and max_slots must be non-negative")

    @classmethod
    def for_instance(
        cls,
        inst: Instance,
        slot_len: float,
        quantum: float,
        max_slots: int | None = None,
    ) -> "DiscreteParams":
        """Derive the quantum budget Q = floor(E / e) from the instance.

        Raises :class:`SizeError` when E / e exceeds ``MAX_QUANTA``.
        """
        ratio = inst.energy / quantum if quantum > 0 else 0.0  # cls rejects the quantum
        if not ratio <= MAX_QUANTA:  # also inf
            raise SizeError(f"the budget is {ratio:.6g} quanta, above the cap of {MAX_QUANTA}")
        q = int(math.floor(ratio))
        return cls(slot_len, quantum, q, q if max_slots is None else max_slots)


@dataclass(frozen=True)
class DiscreteAllocation:
    """Slot ownership and quantum counts.

    Occupied slots form the contiguous prefix 1..len(owner); ``owner[j-1]``
    is the (1-based) packet owning slot ``j`` and ``quanta[j-1]`` its count
    R_j >= 1.  Slots past the prefix are unassigned.
    """

    owner: tuple[int, ...]
    quanta: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "owner", tuple(int(p) for p in self.owner))
        object.__setattr__(self, "quanta", tuple(int(r) for r in self.quanta))
        if len(self.owner) != len(self.quanta):
            raise ValueError("owner and quanta must have matching lengths")
        if any(p < 1 for p in self.owner):
            raise ValueError("owners are 1-based packet indices")
        if any(r < 1 for r in self.quanta):
            raise ValueError("an occupied slot carries at least one quantum")

    @property
    def slots(self) -> int:
        return len(self.owner)

    def to_doc(self) -> dict:
        return {
            "slots": [
                {"owner": p, "quanta": r} for p, r in zip(self.owner, self.quanta)
            ]
        }


def discrete_allocation_from_doc(doc: dict) -> DiscreteAllocation:
    slots = doc["slots"]
    return DiscreteAllocation(
        tuple(s["owner"] for s in slots), tuple(s["quanta"] for s in slots)
    )


@dataclass(frozen=True)
class DiscreteCost:
    per_packet: tuple[float, ...]
    total: float

    def to_doc(self) -> dict:
        return {"per_packet": list(self.per_packet), "total": self.total}


@dataclass(frozen=True)
class TraceStep:
    """One committed greedy move."""

    iteration: int
    action: str  # "open" (new slot) or "add" (one more quantum)
    slot: int
    packet: int
    total_cost: float


def trace_to_csv(trace: Sequence[TraceStep]) -> str:
    lines = ["iteration,action,slot,packet,total_cost"]
    for step in trace:
        lines.append(
            f"{step.iteration},{step.action},{step.slot},{step.packet},{step.total_cost!r}"
        )
    return "\n".join(lines) + "\n"


def _slot_bit_table(params: DiscreteParams, r_max: int) -> list[float]:
    """table[r] = bits a slot carries when loaded with r quanta."""
    # Not shannon_bits: libm's log1p, whose last-ulp ties the greedy's steps rest on.
    ln2 = math.log(2.0)
    return [
        params.slot_len * math.log1p(params.quantum * r / params.slot_len) / ln2
        for r in range(r_max + 1)
    ]


def idle_costs(bits: Sequence[float]) -> list[float]:
    """Each packet's cost 2**B_i when it sends nothing.

    Raises :class:`DomainError`, naming the packet, once the running sum of
    these costs leaves float64's range.  A packet's distortion 2**(B_i - sent)
    never exceeds 2**B_i, so a finite sum keeps every candidate's
    distortions, and their sum, finite as well.
    """
    per = []
    total = 0.0
    for i, b in enumerate(bits, start=1):
        try:
            d = 2.0 ** b
        except OverflowError:
            d = math.inf
        total += d
        if not math.isfinite(total):
            raise DomainError(
                f"packet {i}: the cost of sending nothing, 2**B summed up to "
                "this packet, overflows float64"
            )
        per.append(d)
    return per


def _packet_costs(
    bits: Sequence[float],
    params: DiscreteParams,
    owner: Sequence[int],
    quanta: Sequence[int],
    table: Sequence[float],
) -> list[float]:
    """Per-packet D_i for an ownership/quanta prefix (no validation)."""
    n = len(bits)
    sent = [0.0] * n
    imax = [0] * n
    for j, (p, r) in enumerate(zip(owner, quanta), start=1):
        sent[p - 1] += table[r]
        imax[p - 1] = j
    return [
        2.0 ** (bits[i] - sent[i]) + params.slot_len * imax[i] for i in range(n)
    ]


def discrete_cost(
    inst: Instance, params: DiscreteParams, alloc: DiscreteAllocation
) -> DiscreteCost:
    """Evaluate D_i per packet and in total; validates the allocation.

    Like the allocators, raises :class:`DomainError` when the cost of
    sending nothing overflows (``idle_costs``).
    """
    idle_costs(inst.bits)
    if any(p > inst.n for p in alloc.owner):
        raise ValueError("an owner exceeds the packet count")
    if alloc.slots > params.max_slots:
        raise InfeasibleError(
            f"allocation uses {alloc.slots} slots against a cap of {params.max_slots}"
        )
    if sum(alloc.quanta) > params.budget_quanta:
        raise InfeasibleError(
            f"allocation spends {sum(alloc.quanta)} quanta against a budget of "
            f"{params.budget_quanta}"
        )
    r_max = max(alloc.quanta, default=0)
    table = [0.0]
    if r_max:
        # The public NumPy rate function, not the greedy's libm table, so
        # that this cost re-derives the greedy's totals independently.
        r = np.arange(1, r_max + 1)
        table += shannon_bits(params.quantum * r, params.slot_len).tolist()
    per = _packet_costs(inst.bits, params, alloc.owner, alloc.quanta, table)
    return DiscreteCost(tuple(per), float(sum(per)))


def greedy_allocate(
    inst: Instance, params: DiscreteParams, spend_all: bool = False
) -> tuple[DiscreteAllocation, DiscreteCost, tuple[TraceStep, ...]]:
    """Spend quanta one at a time where the total cost drops the most.

    Each round considers adding a quantum to any occupied slot, or opening
    slot last+1 for any packet.  The cheapest candidate wins, ties going to
    the smallest slot and then the smallest packet.  By default the loop
    stops once no candidate strictly lowers the total (the budget is an
    inequality, so unspent quanta are legal); ``spend_all`` keeps committing
    the least-bad candidate until none is left: the budget is spent, or
    ``max_slots`` is 0 (a full slot cap still leaves adds).

    One candidate only ever changes its own packet's D_i, and every slot of a
    packet with the same load offers the same new D_i, so of those only the
    first can win the tie-break.  Each round therefore scores one add per
    load run of a packet's slots (a maximal stretch of equal loads) and one
    open per packet, from per-packet scores that are recomputed only for the
    packet that moved: a round costs O(n + load runs), not O(slots).

    Guarantees, in both modes (the acceptance gate re-derives each one
    through ``discrete_cost``):

    1. Every step commits the cheapest candidate under the tie-break above.
    2. Each trace step's ``total_cost`` is the cost of the allocation the
       trace has built so far, and the whole trace builds the allocation
       returned.
    3. The default mode stops with quanta left only when no candidate
       strictly lowers the total; ``spend_all`` stops only when no candidate
       is left.
    4. An add for a packet goes to the first slot of one of its load runs,
       so each packet's loads never rise along its slots.  Usually that run
       is the least-loaded one, because ``log1p`` is concave, but not at a
       float tie: once a candidate's change falls below one ulp of the
       running total, the smaller slot wins at a higher load (B=(24, 25),
       l=1, e=1, Q=3000: step 300 loads packet 2's slot 1 from 7 to 8 while
       its other slots hold 6).  Loads need not differ by at most one: a
       slot opened late starts at one quantum (B=3, l=0.5, e=0.25, Q=5
       gives loads (4, 1)).

    The greedy is not exact, even for one packet.  The default mode can stop
    on a plateau that no single quantum crosses (B=1, l=1, e=1, Q=2 keeps
    cost 2.0 against the optimum 1.6667), and one quantum at a time can
    settle on the wrong slot count (B=2, l=0.5, e=1, Q=4 gives (4,) at
    1.8333 against (2, 2) at 1.8).  Only ``greedy <= 2 x optimum`` is
    certified, over ``certificate_sweep``.
    """
    bits = inst.bits
    n = inst.n
    budget = params.budget_quanta
    slot_len = params.slot_len
    table = _slot_bit_table(params, budget)
    owner: list[int] = []
    quanta: list[int] = []
    sent = [0.0] * n
    imax = [0] * n
    per = idle_costs(bits)
    total = float(sum(per))
    # Per packet: its slots in order, its load runs as [index into those
    # slots, load], its adds as (new D_i, slot, run index), one per run, and
    # the power term of its open (the delay term depends on the slot).
    slots: list[list[int]] = [[] for _ in range(n)]
    runs: list[list[list[int]]] = [[] for _ in range(n)]
    adds: list[list[tuple[float, int, int]]] = [[] for _ in range(n)]
    open_pow = [0.0] * n

    def rescore(i: int) -> None:
        head = bits[i] - sent[i]
        delay = slot_len * imax[i]
        adds[i] = [
            (2.0 ** (head - table[r + 1] + table[r]) + delay, slots[i][pos], k)
            for k, (pos, r) in enumerate(runs[i])
            if r < budget  # table ends at r = budget, which ends the loop
        ]
        open_pow[i] = 2.0 ** (head - table[1])

    if budget:
        for i in range(n):
            rescore(i)
    trace: list[TraceStep] = []
    spent = 0
    while spent < budget:
        j_open = len(owner) + 1
        can_open = j_open <= params.max_slots
        open_delay = slot_len * j_open
        # (new total, slot) decides; packets are visited in order, so a tie
        # on both keeps the smaller packet.  best_j stays past j_open only
        # when there is no candidate.
        best_total, best_j, best_i, best_k, best_d = math.inf, j_open + 1, 0, 0, 0.0
        for i in range(n):
            base = total - per[i]
            for new_d, j, k in adds[i]:
                v = base + new_d
                if v < best_total or (v == best_total and j < best_j):
                    best_total, best_j, best_i, best_k, best_d = v, j, i, k, new_d
            if can_open:
                new_d = open_pow[i] + open_delay
                v = base + new_d
                if v < best_total or (v == best_total and j_open < best_j):
                    best_total, best_j, best_i, best_k, best_d = v, j_open, i, 0, new_d
        if best_j > j_open:
            break
        if not spend_all and best_total >= total:
            break
        i, j, k = best_i, best_j, best_k
        run = runs[i]
        if j == j_open:
            action = "open"
            owner.append(i + 1)
            quanta.append(1)
            sent[i] += table[1]
            imax[i] = j
            slots[i].append(j)
            if not run or run[-1][1] != 1:
                run.append([len(slots[i]) - 1, 1])
        else:
            action = "add"
            r = quanta[j - 1]
            sent[i] += table[r + 1] - table[r]
            quanta[j - 1] = r + 1
            # The run's first slot leaves it for the run of load r + 1,
            # which is the one before it or a new one.
            pos = run[k][0]
            end = run[k + 1][0] if k + 1 < len(run) else len(slots[i])
            if pos + 1 < end:
                run[k][0] = pos + 1
            else:
                del run[k]
            if not (k and run[k - 1][1] == r + 1):
                run.insert(k, [pos, r + 1])
        per[i] = best_d
        total = best_total
        spent += 1
        rescore(i)
        trace.append(TraceStep(spent, action, j, i + 1, total))

    alloc = DiscreteAllocation(tuple(owner), tuple(quanta))
    return alloc, discrete_cost(inst, params, alloc), tuple(trace)


def _compositions(parts: int, total: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` positive ints summing to at most `total`."""
    if parts == 0:
        yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(parts - 1, total - first):
            yield (first,) + rest


@lru_cache(maxsize=None)  # keys are bounded by ORACLE_CAPS
def _candidates(n: int, q: int, width: int) -> tuple[np.ndarray, ...]:
    """Every (owner, quanta) prefix of 1..width slots with at most q quanta.

    Rows follow the oracle's enumeration order: J = 1..width slots, then the
    owner tuples in ``product`` order, then the quanta in ``_compositions``
    order.  Each row is padded to ``width`` with owner 0 and quanta 0.  Per
    packet i, ``counts[i, row, r-1]`` is the number of its slots at load r
    and ``last[i, row]`` its last slot (0 when it has none).  All four
    arrays are read-only int8 (3 packets, 6 quanta and 6 slots make 4095
    rows, 135 KB).
    """
    owners, quanta = [], []
    for j in range(1, width + 1):
        comps = np.array(list(_compositions(j, q)), np.int8)
        # Base-n digits of 0..n**j - 1, the most significant first, as in product().
        digits = np.arange(n**j)[:, None] // n ** np.arange(j - 1, -1, -1) % n + 1
        pad = ((0, 0), (0, width - j))
        owners.append(np.pad(np.repeat(digits.astype(np.int8), len(comps), 0), pad))
        quanta.append(np.pad(np.tile(comps, (n**j, 1)), pad))
    owner, load = np.concatenate(owners), np.concatenate(quanta)
    mine = owner == np.arange(1, n + 1)[:, None, None]  # (packet, row, slot)
    counts = (mine[..., None] & (load[..., None] == np.arange(1, q + 1))).sum(2)
    last = (mine * np.arange(1, width + 1)).max(2)
    table = owner, load, counts.astype(np.int8), last.astype(np.int8)
    for a in table:
        a.flags.writeable = False
    return table


def oracle_allocate(
    inst: Instance,
    params: DiscreteParams,
) -> tuple[DiscreteAllocation, DiscreteCost]:
    """Exhaustive optimum over contiguous slot prefixes.

    Enumerates every owner assignment of slots 1..J (J up to
    min(max_slots, Q)) and every way to split at most Q quanta over them.
    ``ORACLE_CAPS`` (packets, quanta, slots) guards the exponential search.  Ties
    are broken toward fewer slots, then the lexicographically smallest
    (owner, quanta) pair — the enumeration order.

    The candidates come from a cached int8 table (``_candidates``) and are
    scored in one matmul and one ``exp2``: packet i sends counts[i] @ bits
    per load, so D_i = exp2(B_i - that) + l * last[i], summed over packets.
    Each candidate whose vector total lies within 1e-9 * max(1, |m|) of m,
    the smaller of the do-nothing cost and the least vector total, is then
    scored again by the scalar ``_packet_costs`` in enumeration order and
    kept only on a strict ``<`` against the best so far, starting from the
    do-nothing cost.  The vector totals group a packet's bits by load, not
    by slot, and ``exp2`` rounds differently from ``**``, so they differ
    from the scalar totals by a few ulps; the filter's margin is far wider,
    so every exact minimiser passes it, and the re-check returns the first
    of them, exactly the answer a scalar scan over all candidates gives.
    """
    sizes = (inst.n, params.budget_quanta, params.max_slots)
    for what, size, cap in zip(("packets", "quanta", "slots"), sizes, ORACLE_CAPS):
        if size > cap:
            raise SizeError(f"oracle is capped at {cap} {what}, got {size}")

    bits = inst.bits
    best_owner: tuple[int, ...] = ()
    best_quanta: tuple[int, ...] = ()
    best_total = float(sum(idle_costs(bits)))  # J = 0: nothing sent
    width = min(params.max_slots, params.budget_quanta)
    if width:
        table = _slot_bit_table(params, params.budget_quanta)
        owner, quanta, counts, last = _candidates(inst.n, params.budget_quanta, width)
        sent = counts @ np.array(table[1:])
        totals = (np.exp2(np.array(bits)[:, None] - sent) + params.slot_len * last).sum(0)
        m = np.fmin.reduce(totals, initial=best_total)  # fmin skips nan
        near = np.flatnonzero(totals <= m + 1e-9 * max(1.0, abs(m)))
        for c in near.tolist():
            j = int(np.count_nonzero(quanta[c]))  # padding carries 0 quanta
            cand = tuple(owner[c, :j].tolist()), tuple(quanta[c, :j].tolist())
            total = sum(_packet_costs(bits, params, *cand, table))
            if total < best_total:
                (best_owner, best_quanta), best_total = cand, total
    alloc = DiscreteAllocation(best_owner, best_quanta)
    return alloc, discrete_cost(inst, params, alloc)


def certificate_sweep() -> Iterator[tuple[Instance, DiscreteParams]]:
    """The oracle-sized instance grid used to certify the greedy's 2x bound.

    n in {1,2,3}, B_i in {1,2,3}, slot lengths {0.5, 1}, quanta {0.5, 1} and
    budgets of 1..6 quanta: 936 instances, all within ``ORACLE_CAPS``.
    """
    for n in (1, 2, 3):
        for bits in product((1.0, 2.0, 3.0), repeat=n):
            for slot_len in (0.5, 1.0):
                for quantum in (0.5, 1.0):
                    for q in range(1, 7):
                        inst = Instance(bits, energy=quantum * q)
                        params = DiscreteParams(slot_len, quantum, q, max_slots=6)
                        yield inst, params

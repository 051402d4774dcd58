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
from heapq import heapify, heappop, heappush
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .model import T_MIN, DomainError, InfeasibleError, Instance, SizeError, shannon_bits

# A budget of more quanta than this is refused: the greedy builds a table of
# Q + 1 floats and takes one step per quantum, each O(log n) heap work, and
# keeps one trace row per step.  At the cap, n = 64 with ``spend_all`` takes
# about 7.4 s and 195 MB above the starting RSS (2-vCPU x86-64, Python 3.11).
MAX_QUANTA = 1_000_000
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
        object.__setattr__(self, "owner", tuple(map(int, self.owner)))
        object.__setattr__(self, "quanta", tuple(map(int, self.quanta)))
        if len(self.owner) != len(self.quanta):
            raise ValueError("owner and quanta must have matching lengths")
        if min(self.owner, default=1) < 1:
            raise ValueError("owners are 1-based packet indices")
        if min(self.quanta, default=1) < 1:
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


@dataclass(frozen=True, slots=True)
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
    return shannon_bits(params.quantum * np.arange(r_max + 1), params.slot_len).tolist()


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
    table = _slot_bit_table(params, max(alloc.quanta, default=0))
    return _checked_cost(inst.bits, params, alloc, table)


def _checked_cost(
    bits: Sequence[float], params: DiscreteParams, alloc: DiscreteAllocation, table: list[float]
) -> DiscreteCost:
    """``discrete_cost`` of an allocation already known to pass its checks.

    ``table`` is a ``_slot_bit_table`` that reaches the allocation's largest load.
    """
    per = _packet_costs(bits, params, alloc.owner, alloc.quanta, table)
    return DiscreteCost(tuple(per), float(sum(per)))


def _drop_stale(heap: list, ver: list[int]) -> None:
    """Keep only the live entries of ``heap``: those of their packet's version.

    Every entry ends with (packet, version).
    """
    heap[:] = [e for e in heap if e[-1] == ver[e[-2]]]
    heapify(heap)


def greedy_allocate(
    inst: Instance, params: DiscreteParams, spend_all: bool = False
) -> tuple[DiscreteAllocation, DiscreteCost, tuple[TraceStep, ...]]:
    """Spend quanta one at a time on the move that lowers its packet's cost most.

    A move adds a quantum to an occupied slot, or opens slot last+1 for a
    packet.  It changes only its own packet's D_i, so it is ranked by that
    change, its key:

    - an add leaves the delay alone, so its key is the change in
      distortion, ``2**(head - table[r+1] + table[r]) - 2**head`` with
      head = B_i - (bits sent) and r the slot's load;
    - an open's key is ``fl(fl(open_pow - per[i]) + D)``, with open_pow =
      ``2**(head - table[1])`` and D = l * j_open the new slot's delay.

    The least key wins; ties go to the smallest slot, then the smallest
    packet, so an add beats an open of equal key.  By default the move is
    committed only if it strictly lowers the running total, ``fl(fl(T - p)
    + d) < T`` with p = per[i] and d the move's new D_i; otherwise the loop
    stops (the budget is an inequality, so unspent quanta are legal).
    ``spend_all`` commits the best move until none is left: the budget is
    spent, or ``max_slots`` is 0 (a full slot cap still leaves adds).

    Each packet's best add is at its first least-loaded slot.  The gain of
    one more quantum at load r is a fall of table[r+1] - table[r] in the
    exponent, which shrinks as r grows because ``log1p`` is concave; so the
    least-loaded slots gain most, and the first of them wins the tie.  Loads
    never rise along a packet's slots (guarantee 4), so its least-loaded
    slots form a suffix, tracked by one index: an add moves it one slot on,
    and when the suffix is full it steps back over the slots that now hold
    r + 1; an open at load 1 starts a new suffix or extends one at load 1.

    So each packet has two moves, kept in two heaps: its add as (key, slot,
    packet, version) and its open as (fl(open_pow - per[i]), packet,
    version), the common D added when the heap is read; an open wins only
    if its key plus D lies strictly below the best add's.  Only the packet
    that moved is re-scored; its old entries go stale, and a heap holding
    more than 2n + 16 entries is rebuilt from its live ones, so a round
    costs O(log n), amortized.

    Guarantees, in both modes (the acceptance gate re-derives each one
    through ``discrete_cost``):

    1. Every step commits the move of least key under the tie-break above.
    2. Each trace step's ``total_cost`` is the running sum ``fl(fl(T - p) +
       d)``, T the step before's (the idle cost at first), and the whole
       trace builds the allocation returned, whose cost is priced afresh.
       The running sum keeps each step's rounding, so it drifts from the
       cost when packets of about 2**38 bits or more shrink: B=(38.14, 10,
       ..., 59.537), E=549, l=0.5, e=1 ends its trace at 2885.07 against a
       cost of 3069.07.
    3. The default mode stops with quanta left only when the best move does
       not strictly lower the total; ``spend_all`` stops only when no move
       is left.
    4. An add always goes to its packet's first least-loaded slot, so each
       packet's loads never rise along its slots.  They need not differ by
       at most one: a slot opened late starts at one quantum (B=3, l=0.5,
       e=0.25, Q=5 gives loads (4, 1)).

    The greedy is not exact, even for one packet.  The default mode can stop
    on a plateau that no single quantum crosses (B=1, l=1, e=1, Q=2 keeps
    cost 2.0 against the optimum 1.6667), and one quantum at a time can
    settle on the wrong slot count (B=2, l=0.5, e=1, Q=4 gives (4,) at
    1.8333 against (2, 2) at 1.8).  ``greedy <= 2 x optimum`` is certified
    on ``certificate_sweep`` only, and fails off it: B=(4, 7), E=12, l=1,
    e=0.5 costs 22.1756 in both modes, while packet 1 in slot 1 with 8
    quanta and packet 2 in slots 2-5 with 4 quanta each costs 10.7802, a
    ratio of 2.057.
    """
    bits = inst.bits
    n = inst.n
    budget = params.budget_quanta
    slot_len = params.slot_len
    max_slots = params.max_slots
    table = _slot_bit_table(params, budget)
    owner: list[int] = []
    quanta: list[int] = []
    sent = [0.0] * n
    per = idle_costs(bits)
    total = float(sum(per))
    # Per packet: its slots in order (the last sets its delay), the index of
    # its first least-loaded one, and the power terms of its add and its open.
    slots: list[list[int]] = [[] for _ in range(n)]
    low = [0] * n
    add_pow = [0.0] * n
    open_pow = [2.0 ** (b - table[1]) for b in bits] if budget else []
    add_heap: list[tuple[float, int, int, int]] = []
    open_heap = [(o - p, i, 0) for i, (o, p) in enumerate(zip(open_pow, per))]
    heapify(open_heap)
    ver = [0] * n
    cap = 2 * n + 16
    trace: list[TraceStep] = []
    spent = 0
    while spent < budget:
        while add_heap and add_heap[0][3] != ver[add_heap[0][2]]:
            heappop(add_heap)
        while open_heap[0][2] != ver[open_heap[0][1]]:
            heappop(open_heap)
        j_open = len(owner) + 1
        open_delay = slot_len * j_open
        key, j, i, _ = add_heap[0] if add_heap else (math.inf, 0, 0, 0)
        if j_open <= max_slots and open_heap[0][0] + open_delay < key:
            i, j = open_heap[0][1], j_open
            new_d = open_pow[i] + open_delay
        elif add_heap:
            new_d = add_pow[i] + slot_len * slots[i][-1]
        else:
            break  # no move
        new_total = total - per[i] + new_d
        if not spend_all and new_total >= total:
            break
        mine = slots[i]
        if j == j_open:
            action = "open"
            owner.append(i + 1)
            quanta.append(1)
            sent[i] += table[1]
            mine.append(j)
            if quanta[mine[low[i]] - 1] > 1:
                low[i] = len(mine) - 1
        else:
            action = "add"
            r = quanta[j - 1]
            sent[i] += table[r + 1] - table[r]
            quanta[j - 1] = r + 1
            k = low[i] + 1
            if k == len(mine):
                while k and quanta[mine[k - 1] - 1] == r + 1:
                    k -= 1
            low[i] = k
        per[i] = new_d
        total = new_total
        spent += 1
        trace.append(TraceStep(spent, action, j, i + 1, total))
        # Re-score packet i; its old entries go stale.
        v = ver[i] = ver[i] + 1
        head = bits[i] - sent[i]
        j = mine[low[i]]
        r = quanta[j - 1]
        if r < budget:  # table ends at r = budget, which ends the loop
            add_pow[i] = a = 2.0 ** (head - table[r + 1] + table[r])
            heappush(add_heap, (a - 2.0 ** head, j, i, v))
            if len(add_heap) > cap:
                _drop_stale(add_heap, ver)
        open_pow[i] = o = 2.0 ** (head - table[1])
        heappush(open_heap, (o - new_d, i, v))
        if len(open_heap) > cap:
            _drop_stale(open_heap, ver)

    # Owners, the slot cap and the budget hold by construction, and
    # idle_costs has checked the bits.
    alloc = DiscreteAllocation(tuple(owner), tuple(quanta))
    return alloc, _checked_cost(bits, params, alloc, table), tuple(trace)


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
    table = _slot_bit_table(params, params.budget_quanta)
    if width:
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
    alloc = DiscreteAllocation(best_owner, best_quanta)  # within the caps by construction
    return alloc, _checked_cost(bits, params, alloc, table)


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

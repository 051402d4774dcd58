"""Discrete resource-block allocation.

Time is cut into slots of length ``l`` and energy into quanta of size ``e``;
a resource block is one quantum spent in one slot.  All bits sent in a slot
belong to a single packet, slot ``j`` with ``R_j`` quanta carries
``l * log2(1 + e * R_j / l)`` bits of its owner, and packet ``i`` pays

    D_i = 2**(B_i - sum of its slots' bits) + l * i_max,

where ``i_max`` is the last slot carrying any of its bits (a packet that
never transmits pays distortion ``2**B_i`` and no delay).  The greedy
allocator spends one quantum at a time where it helps most; the oracle
finds the exact optimum by dynamic programming over subsets of packets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from itertools import accumulate, product
from operator import add
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .model import _E_SAFE, _LN2, T_MIN, DomainError, InfeasibleError, Instance, SizeError, _integers, shannon_bits

# A budget of more quanta than this is refused: the greedy builds a table of
# Q + 1 floats and takes one step per quantum, each O(log n) heap work, and
# keeps one trace row per step.  At the cap, n = 64 with ``spend_all`` takes
# about 5.1 s and 207 MB above the starting RSS (2-vCPU x86-64, Python 3.11),
# nearly all of it the trace, whose rows are 5-tuples with their own int and float.
MAX_QUANTA = 1_000_000
# The oracle's cap on its steps (``_oracle_plan``): up to about 2 s and 50 MB.
MAX_ORACLE_WORK = 10_000_000


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
        q, s = _integers((self.budget_quanta, self.max_slots), "budget_quanta and max_slots")
        if q < 0 or s < 0:
            raise ValueError("budget_quanta and max_slots must be non-negative")
        object.__setattr__(self, "budget_quanta", q)
        object.__setattr__(self, "max_slots", s)

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
        object.__setattr__(self, "owner", _integers(self.owner, "owners"))
        object.__setattr__(self, "quanta", _integers(self.quanta, "quanta"))
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


class _TraceFields(NamedTuple):
    iteration: int
    action: str
    slot: int
    packet: int
    total_cost: float


@dataclass(frozen=True, init=False, repr=False, eq=False)
class TraceStep(_TraceFields):
    """One committed greedy move.

    A tuple underneath, so the greedy builds one with a single
    ``tuple.__new__``; still a frozen dataclass without a ``__dict__``, whose
    repr, equality and hash are the tuple's, field by field (so a step also
    equals the plain tuple of its fields).
    """

    __slots__ = ()
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
    """table[r] = bits a slot carries when loaded with r quanta, as ``shannon_bits`` gives them."""
    energy = params.quantum * np.arange(r_max + 1)
    if params.quantum * r_max > _E_SAFE:  # its checked form; DiscreteParams made the others
        return shannon_bits(energy, params.slot_len).tolist()
    return (params.slot_len * np.log1p(energy / params.slot_len) / _LN2).tolist()


def idle_costs(bits: Sequence[float]) -> list[float]:
    """Each packet's cost 2**B_i when it sends nothing.

    Raises :class:`DomainError`, naming the packet, once their running sum
    leaves float64's range; as 2**(B_i - sent) <= 2**B_i, a finite sum keeps
    every allocation's distortions, and their sum, finite as well.
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
    that moved is re-scored.  The winning move's entry tops its heap, so one
    ``heapreplace`` swaps it for the packet's new entry of that kind (none
    is needed once a slot holds the whole budget: the loop ends).  In the
    other heap the new entry is pushed and the old one goes stale: stale
    tops are popped as the loop reads the heap, and a heap holding more
    than 2n + 16 entries is rebuilt from its live ones, so a round costs
    O(log n), amortized.  Only an open thus grows the add heap, and only an
    add the open heap.

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
    e=0.5 costs 22.1756 in both modes, 2.057 times the optimum 10.7802 of
    ``oracle_allocate``.
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
    append, new_step = trace.append, tuple.__new__
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
        append(new_step(TraceStep, (spent, action, j, i + 1, total)))
        # Re-score packet i: its entry atop the winning heap is replaced, its
        # entry in the other heap goes stale.
        v = ver[i] = ver[i] + 1
        head = bits[i] - sent[i]
        j = mine[low[i]]
        r = quanta[j - 1]
        if r < budget:  # table ends at r = budget, which ends the loop
            add_pow[i] = a = 2.0 ** (head - table[r + 1] + table[r])
            entry = (a - 2.0 ** head, j, i, v)
            if action == "add":
                heapreplace(add_heap, entry)
            else:
                heappush(add_heap, entry)
                if len(add_heap) > cap:
                    _drop_stale(add_heap, ver)
        open_pow[i] = o = 2.0 ** (head - table[1])
        if action == "open":
            heapreplace(open_heap, (o - new_d, i, v))
        else:
            heappush(open_heap, (o - new_d, i, v))
            if len(open_heap) > cap:
                _drop_stale(open_heap, ver)

    # Owners, the slot cap and the budget hold by construction, and
    # idle_costs has checked the bits.
    alloc = DiscreteAllocation(tuple(owner), tuple(quanta))
    return alloc, _checked_cost(bits, params, alloc, table), tuple(trace)


def _oracle_plan(n: int, q: int, slots: int) -> tuple[int, int, int, int]:
    """(steps, Q, slots tracked, stride) of ``oracle_allocate``: S = 0 spends no quantum and
    Q = 0 builds nothing; slots are tracked (stride 2S + 1) only if S < Q; steps bound its
    min-plus additions plus the block costs it prices."""
    q = q if slots else 0
    cap = slots if slots < q else 0
    size = (q + 1) * (2 * cap + 1)
    steps = n * 2 ** (n - 1) * (size + 1) * (size + 2) // 2 + n * min(n, q) * size * (
        1 if cap else min(q, slots))
    return (steps if q else 0), q, cap, 2 * cap + 1


def oracle_allocate(
    inst: Instance,
    params: DiscreteParams,
) -> tuple[DiscreteAllocation, DiscreteCost]:
    """Exact optimum, by dynamic programming over subsets of the packets.

    Exchange arguments (Smith's rule; Shabtay & Steiner, Discrete Appl. Math.
    155, 2007) turn any allocation, at no higher cost, into blocks, packet i
    sending R_i quanta over k_i slots: (1) blocks in the order of the
    packets' last slots move no last slot later; (2) R quanta split evenly
    over k slots send the most bits, table[r] being concave; (3) with m
    blocks the delays sum to l * sum_p w_p k_p, weights 1..m from the back.
    So the DP places packets from the back, the one put before m - 1 others at
    weight m for 2**(B_i - f(R, k)) + l*m*k (f: the split's bits); idle ones
    cost 2**B_i.  A set's row holds its least cost within x = quanta * stride +
    slots (the full set's at the budget only); a block sits at offset R * stride
    + k, or at R with its best k if no cap binds, so one min-plus product places
    it.  Ties: nothing sent, then the least bitmask; rebuilt front to back, each
    block goes to the lowest-index packet reaching the state, with its fewest
    quanta, then slots, larger loads first.  SizeError above ``_oracle_plan``'s guard.
    """
    n, bits = inst.n, inst.bits
    steps, q, cap, stride = _oracle_plan(n, params.budget_quanta, params.max_slots)
    if steps > MAX_ORACLE_WORK:
        raise SizeError(f"the oracle needs {steps} steps, above the cap of {MAX_ORACLE_WORK}")
    idle = idle_costs(bits)
    if not q:  # no quantum, or no slot, to spend
        return DiscreteAllocation((), ()), DiscreteCost(tuple(idle), float(sum(idle)))
    table = _slot_bit_table(params, q + 1)  # load q + 1 is read only times zero
    size, inf, kmax, weights = (q + 1) * stride, math.inf, min(q, params.max_slots), min(n, q)
    # cost[i, w - 1, R, k]: packet i's R quanta over k slots at weight w (inf off 1 <= k <= R,
    # kmax), 2**18 floats at a time: R = 1..Q, k = 1..kmax, with no binding cap; else k = 0..2S.
    rs, ks = (range(1, q + 1), range(1, kmax + 1)) if stride == 1 else (range(q + 1), range(stride))
    delay = [[[params.slot_len * w * k for k in ks]] for w in range(1, weights + 1)]
    chunk = max(1, 2**18 // (n * weights * len(ks)))
    parts, firsts = [], []
    for start in range(0, len(rs), chunk):
        sent = [(k - r % k) * table[r // k] + r % k * table[r // k + 1] if 0 < k <= r and k <= kmax
                else -inf for r in rs[start:start + chunk] for k in ks]
        cost = np.power(2.0, np.subtract.outer(bits, sent)).reshape(n, 1, -1, len(ks)) + delay
        parts.append(np.minimum.reduce(cost, -1) if stride == 1 else cost.reshape(n, weights, -1))
        firsts.append(cost.argmin(-1))
    blocks = np.concatenate(parts, 2)  # blocks[i][w - 1][offset - 1], offset R * stride + k
    blocks = (blocks if stride == 1 else blocks[..., 1:]).tolist()
    firsts = np.concatenate(firsts, 2)

    # rows[mask][x]: the least cost of the set's blocks, placed last, within x; backs: reversed
    full, last = (1 << n) - 1, size - 1 - cap  # x = Q quanta, and S slots under a cap
    rows = [[0.0 if x % stride <= cap else inf for x in range(size)]]
    backs = [rows[0][::-1]]
    for mask in range(1, full + 1):
        w = mask.bit_count() - 1  # the front packet's weight, less one
        lo = (w + 1) * stride  # each packet holds a quantum
        if lo > last:
            row = [inf] * size
        elif stride == 1 and not w:  # a packet alone: its least block within x
            row = [inf, *accumulate(blocks[mask.bit_length() - 1][0], min)]
        else:
            terms = [(backs[mask ^ 1 << i], blocks[i][w]) for i in range(n) if mask >> i & 1]
            top = size - w * stride  # the w packets behind hold w quanta at least
            lo = lo if mask < full else last
            row = [inf] * lo
            row += [min([min(map(add, back[size - x:top], blk)) for back, blk in terms])
                    if x % stride <= cap else inf for x in range(lo, size)]
        rows.append(row)
        backs.append(row[::-1])

    idle_of = [0.0]  # each set's idle cost, by bitmask, summed without cancellation
    for cost_i in idle:
        idle_of += [rest + cost_i for rest in idle_of]
    totals = [row[last] + rest for row, rest in zip(rows, reversed(idle_of))]
    mask, x = totals.index(min(totals)), last
    owner, quanta = [], []
    while mask:
        w = mask.bit_count() - 1
        for i in [j for j in range(n) if mask >> j & 1]:
            sums = list(map(add, backs[mask ^ 1 << i][size - x:], blocks[i][w]))
            if rows[mask][x] in sums:
                break
        d = sums.index(rows[mask][x]) + 1
        r, k = divmod(d, stride) if stride > 1 else (d, int(firsts[i, w, d - 1]) + 1)
        base, extra = divmod(r, k)
        owner += [i + 1] * k
        quanta += [base + 1] * extra + [base] * (k - extra)
        mask, x = mask ^ 1 << i, x - d
    alloc = DiscreteAllocation(tuple(owner), tuple(quanta))  # within the budget and cap
    return alloc, _checked_cost(bits, params, alloc, table)


def certificate_sweep() -> Iterator[tuple[Instance, DiscreteParams]]:
    """The instance grid on which ``test_c06`` certifies the greedy's 2x bound.

    n in {1,2,3}, B_i in {1,2,3}, slot lengths {0.5, 1}, quanta {0.5, 1} and
    budgets of 1..6 quanta: 936 instances, from 24 parameter sets and 9
    energies per bits tuple, each built once.
    """
    grid = [DiscreteParams(slot_len, quantum, q, max_slots=6)
            for slot_len in (0.5, 1.0) for quantum in (0.5, 1.0) for q in range(1, 7)]
    energies = {params.quantum * params.budget_quanta for params in grid}
    for n in (1, 2, 3):
        for bits in product((1.0, 2.0, 3.0), repeat=n):
            insts = {energy: Instance(bits, energy=energy) for energy in energies}
            for params in grid:
                yield insts[params.quantum * params.budget_quanta], params

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
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .model import InfeasibleError, Instance, SizeError, shannon_bits

# A budget of more quanta than this is refused: the greedy builds a table of
# Q + 1 floats and takes one step per quantum.
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
        if not (self.slot_len > 0 and self.quantum > 0):  # also nan
            raise ValueError("slot_len and quantum must be positive")
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
    """Evaluate D_i per packet and in total; validates the allocation."""
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

    One candidate only ever changes its own packet's D_i, so candidates are
    scored incrementally from the per-packet costs.

    Guarantees, in both modes (the acceptance gate re-derives each one
    through ``discrete_cost``):

    1. Every step commits the cheapest candidate under the tie-break above.
    2. Each trace step's ``total_cost`` is the cost of the allocation the
       trace has built so far, and the whole trace builds the allocation
       returned.
    3. The default mode stops with quanta left only when no candidate
       strictly lowers the total; ``spend_all`` stops only when no candidate
       is left.
    4. An add for a packet goes to its least-loaded slot, because ``log1p``
       is concave, so each packet's loads never rise along its slots.  They
       need not differ by at most one: a slot opened late starts at one
       quantum (B=3, l=0.5, e=0.25, Q=5 gives loads (4, 1)).

    The greedy is not exact, even for one packet.  The default mode can stop
    on a plateau that no single quantum crosses (B=1, l=1, e=1, Q=2 keeps
    cost 2.0 against the optimum 1.6667), and one quantum at a time can
    settle on the wrong slot count (B=2, l=0.5, e=1, Q=4 gives (4,) at
    1.8333 against (2, 2) at 1.8).  Only ``greedy <= 2 x optimum`` is
    certified, over ``certificate_sweep``.
    """
    bits = inst.bits
    n = inst.n
    table = _slot_bit_table(params, params.budget_quanta)
    owner: list[int] = []
    quanta: list[int] = []
    sent = [0.0] * n
    imax = [0] * n
    per = [2.0 ** b for b in bits]
    total = float(sum(per))
    trace: list[TraceStep] = []
    spent = 0
    while spent < params.budget_quanta:
        best: tuple[float, int, int, str, float] | None = None
        for j, (p, r) in enumerate(zip(owner, quanta), start=1):
            i = p - 1
            new_d = (
                2.0 ** (bits[i] - sent[i] - table[r + 1] + table[r])
                + params.slot_len * imax[i]
            )
            cand = (total - per[i] + new_d, j, p, "add", new_d)
            if best is None or cand[:3] < best[:3]:
                best = cand
        if len(owner) < params.max_slots:
            j = len(owner) + 1
            for p in range(1, n + 1):
                i = p - 1
                new_d = 2.0 ** (bits[i] - sent[i] - table[1]) + params.slot_len * j
                cand = (total - per[i] + new_d, j, p, "open", new_d)
                if best is None or cand[:3] < best[:3]:
                    best = cand
        if best is None:
            break
        new_total, j, p, action, new_d = best
        if not spend_all and new_total >= total:
            break
        i = p - 1
        if action == "add":
            sent[i] += table[quanta[j - 1] + 1] - table[quanta[j - 1]]
            quanta[j - 1] += 1
        else:
            owner.append(p)
            quanta.append(1)
            sent[i] += table[1]
            imax[i] = j
        per[i] = new_d
        total = new_total
        spent += 1
        trace.append(TraceStep(spent, action, j, p, total))

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
    """
    sizes = (inst.n, params.budget_quanta, params.max_slots)
    for what, size, cap in zip(("packets", "quanta", "slots"), sizes, ORACLE_CAPS):
        if size > cap:
            raise SizeError(f"oracle is capped at {cap} {what}, got {size}")

    bits = inst.bits
    table = _slot_bit_table(params, params.budget_quanta)
    best_owner: tuple[int, ...] = ()
    best_quanta: tuple[int, ...] = ()
    best_total = float(sum(2.0 ** b for b in bits))  # J = 0: nothing sent
    for j in range(1, min(params.max_slots, params.budget_quanta) + 1):
        for owner in product(range(1, inst.n + 1), repeat=j):
            for quanta in _compositions(j, params.budget_quanta):
                total = sum(_packet_costs(bits, params, owner, quanta, table))
                if total < best_total:
                    best_owner, best_quanta, best_total = owner, quanta, total
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

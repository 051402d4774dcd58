"""Problem instances and the continuous cost model.

A batch of ``n`` packets with sizes ``B_i`` (bits) shares one energy budget
``E`` (joules).  A continuous schedule gives every packet an energy ``E_i``,
a transmission time ``t_i`` and a position in the transmission order; the
bits actually delivered follow the Shannon rate formula at unit bandwidth,

    bhat_i = t_i * log2(1 + E_i / t_i),

and the schedule pays an exponential distortion ``2**(B_i - bhat_i)`` per
packet plus that packet's completion time (queueing behind every
earlier-ordered packet, plus its own transmission).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# Times below this clamp are outside the model's domain: the rate formula has
# a removable singularity at t = 0 and its gradient blows up there.
T_MIN = 1e-6

_LN2 = math.log(2.0)
# Below this energy e / t cannot overflow float64 for any t >= T_MIN.
_E_SAFE = T_MIN * sys.float_info.max


class DomainError(ValueError):
    """An argument lies outside a function's numeric domain."""


class InfeasibleError(ValueError):
    """An allocation violates the instance's resource constraints."""


class SizeError(ValueError):
    """The problem is too large for an exhaustive routine."""


@dataclass(frozen=True)
class Instance:
    """Packet sizes plus the shared energy budget.

    ``energy == 0`` is tolerated so that the discrete allocator can express a
    zero-quantum budget; the continuous solver itself insists on ``E > 0``.
    """

    bits: tuple[float, ...]
    energy: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(float(b) for b in self.bits))
        object.__setattr__(self, "energy", float(self.energy))
        if self.n < 1:
            raise ValueError("an instance needs at least one packet")
        if any(b <= 0 or not math.isfinite(b) for b in self.bits):
            raise ValueError("every packet size must be a positive finite number of bits")
        if self.energy < 0 or not math.isfinite(self.energy):
            raise ValueError("the energy budget must be non-negative and finite")

    @property
    def n(self) -> int:
        return len(self.bits)

    def to_doc(self) -> dict:
        return {"bits": list(self.bits), "energy": self.energy}


def _number(x) -> bool:  # not a bool, and an int that a float can hold
    return type(x) is float or type(x) is int and abs(x) <= sys.float_info.max


# The fields an instance document may hold, what each must be, and its test.
_DOC_FIELDS = {
    "bits": ("a list of numbers", lambda v: type(v) is list and all(map(_number, v))),
    "energy": ("a number", _number),
    "slot_len": ("a number", _number),
    "quantum": ("a number", _number),
}


def instance_from_doc(doc: dict) -> tuple[Instance, dict]:
    """Parse an instance document: ``bits`` and ``energy``, plus the
    discrete model's optional ``slot_len`` and ``quantum``.

    Returns the :class:`Instance` plus a dict of the discrete fields the
    document carries.  Raises ``ValueError`` naming the first field that is
    not one of these four or is not of its type.
    """
    for key, value in doc.items():
        if key not in _DOC_FIELDS:
            raise ValueError(f"config field {key!r} is not one of {', '.join(_DOC_FIELDS)}")
        want, ok = _DOC_FIELDS[key]
        if not ok(value):
            raise ValueError(f"config field {key!r} must be {want}, got {value!r}")
    if "bits" not in doc or "energy" not in doc:
        raise ValueError("instance document needs 'bits' and 'energy'")
    inst = Instance(tuple(doc["bits"]), doc["energy"])
    return inst, {k: doc[k] for k in ("slot_len", "quantum") if k in doc}


def _integers(values, what: str) -> tuple[int, ...]:
    """``values`` as Python ints: integral floats and NumPy ints pass, the rest raise."""
    given = tuple(values)
    try:  # int() raises OverflowError on an infinity, ValueError on a nan
        if (out := tuple(map(int, given))) == given:  # refused, not truncated
            return out
    except (OverflowError, ValueError):
        pass
    raise ValueError(f"{what} must be integers")


@dataclass(frozen=True)
class Order:
    """A transmission order.

    ``perm[k]`` is the 1-based position at which packet ``k + 1`` goes on
    air; i.e. ``perm`` stores positions by packet, not packets by position.
    Use :meth:`sequence` / :meth:`from_sequence` for the other view.
    """

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "perm", _integers(self.perm, "perm entries"))
        if sorted(self.perm) != list(range(1, self.n + 1)):
            raise ValueError("perm must be a permutation of 1..n")

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> "Order":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_sequence(cls, seq) -> "Order":
        """Build an order from the packet sequence (``seq[p-1]`` is sent p-th)."""
        return cls(cls(seq).sequence())  # the two views are inverse permutations

    def sequence(self) -> tuple[int, ...]:
        """Packets listed in the order they go on air."""
        seq = [0] * self.n
        for packet, pos in enumerate(self.perm, start=1):
            seq[pos - 1] = packet
        return tuple(seq)


@dataclass(frozen=True)
class ContinuousAllocation:
    """Per-packet energies and times plus the transmission order."""

    energies: tuple[float, ...]
    times: tuple[float, ...]
    order: Order

    def __post_init__(self) -> None:
        object.__setattr__(self, "energies", tuple(map(float, self.energies)))
        object.__setattr__(self, "times", tuple(map(float, self.times)))
        n = len(self.energies)
        if n != len(self.times) or n != self.order.n:
            raise ValueError("energies, times and order must have matching lengths")
        if any(e < 0 for e in self.energies):
            raise ValueError("energies must be non-negative")
        if any(t < T_MIN for t in self.times):
            raise DomainError(f"every time must be at least t_min={T_MIN}")

    @property
    def n(self) -> int:
        return len(self.energies)

    def to_doc(self) -> dict:
        return {
            "energies": list(self.energies),
            "times": list(self.times),
            "perm": list(self.order.perm),
        }


def allocation_from_doc(doc: dict) -> ContinuousAllocation:
    return ContinuousAllocation(
        tuple(doc["energies"]), tuple(doc["times"]), Order(tuple(doc["perm"]))
    )


@dataclass(frozen=True)
class CostBreakdown:
    """Per-packet cost pieces of a continuous schedule.

    ``delays[i]`` is packet ``i+1``'s completion time; ``total`` is the sum
    of all distortions and all delays.
    """

    distortions: tuple[float, ...]
    delays: tuple[float, ...]
    bhat: tuple[float, ...]
    total: float

    def __post_init__(self) -> None:
        for field in ("distortions", "delays", "bhat"):
            object.__setattr__(self, field, tuple(map(float, getattr(self, field))))
        object.__setattr__(self, "total", float(self.total))

    def to_doc(self) -> dict:
        return {
            "distortions": list(self.distortions),
            "delays": list(self.delays),
            "bhat": list(self.bhat),
            "total": self.total,
        }


def shannon_bits(energy, time):
    """Bits deliverable by spending `energy` joules over `time` seconds.

    Vectorized; accepts scalars or arrays.  Strictly increasing in both
    arguments (for positive energy) and bounded above by energy / ln 2.
    Where e / t overflows float64 (energies near its maximum), ln(1 + e/t)
    is taken as ln e - ln t + log1p(t/e), so the bits stay finite.
    """
    e = np.asarray(energy, dtype=float)
    t = np.asarray(time, dtype=float)
    # Three reductions prove the common case: every time in the domain and
    # every energy non-negative and too small for e / t to overflow, as
    # t >= T_MIN.  Anything else, nan included, takes the checked form.
    safe = 0.0 <= e.min(initial=0.0) and e.max(initial=0.0) <= _E_SAFE
    if safe and t.min(initial=math.inf) >= T_MIN:
        ln = np.log1p(e / t)
    else:
        if (t < T_MIN).any():
            raise DomainError(f"time must be at least t_min={T_MIN}")
        if (e < 0).any():
            raise DomainError("energy must be non-negative")
        with np.errstate(all="ignore"):
            x = e / t
            ln = np.where(np.isinf(x), np.log(e) - np.log(t) + np.log1p(t / e), np.log1p(x))
    out = t * ln / _LN2
    return float(out) if out.ndim == 0 else out


def delay_coefficients(order: Order) -> np.ndarray:
    """Per-packet weights a_i that turn completion-time delay into a linear term.

    Packet i's transmission time is paid once by itself and once by every
    later-ordered packet, so a_i = n - perm[i] + 1 and the total delay equals
    sum(a_i * t_i).
    """
    perm = np.asarray(order.perm, dtype=float)
    return order.n - perm + 1.0


def evaluate_cost(inst: Instance, alloc: ContinuousAllocation) -> CostBreakdown:
    """Full cost breakdown of an allocation; raises if it overspends energy."""
    if alloc.n != inst.n:
        raise ValueError("allocation size does not match instance")
    e = np.asarray(alloc.energies)
    t = np.asarray(alloc.times)
    if e.sum() > inst.energy + 1e-9 * inst.energy:
        raise InfeasibleError(
            f"allocation spends {e.sum()} J against a budget of {inst.energy} J"
        )
    bhat = shannon_bits(e, t)
    distortions = np.exp2(np.asarray(inst.bits) - bhat)
    # Completion times: cumulative sums of the times in transmission order.
    seq = np.asarray(alloc.order.sequence()) - 1
    completion = np.empty(inst.n)
    completion[seq] = np.cumsum(t[seq])
    total = float(distortions.sum() + completion.sum())
    return CostBreakdown(distortions.tolist(), completion.tolist(), bhat.tolist(), total)

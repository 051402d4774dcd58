"""Property-checker tests.

Exercise the probes on small set functions with known structure (modular,
|S|^2, sqrt|S|, ...) before pointing them at the discrete per-packet cost,
where monotonicity and distortion-only supermodularity must hold but the
delay term is known to break supermodularity of the full cost.
"""

import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from edds import verify
from edds.model import Instance, Order, SizeError, delay_coefficients, shannon_bits
from edds.discrete import (
    DiscreteAllocation,
    DiscreteParams,
    certificate_sweep,
    discrete_cost,
    greedy_allocate,
    oracle_allocate,
)
from edds.verify import (
    SetFunction,
    check_convexity,
    check_monotone,
    check_supermodular,
    di_as_set_function,
    hessian_block,
)


def _ground(m):
    return tuple(range(1, m + 1))


def test_set_function_call_accepts_any_iterable():
    sf = SetFunction(_ground(3), lambda s: float(len(s)))
    assert sf([1, 2]) == 2.0
    assert sf((2, 1, 2)) == 2.0
    assert sf(frozenset()) == 0.0


def test_supermodular_modular_function_is_tight():
    weights = {1: 0.25, 2: 1.5, 3: 4.0, 4: 0.125}
    sf = SetFunction(_ground(4), lambda s: sum(weights[i] for i in s))
    report = check_supermodular(sf)
    assert report.violations == 0
    assert report.margin == 0.0  # dyadic weights: slacks are exactly zero
    assert report.worst_witness is None
    # 2^4 subsets, C(rest, 2) pairs each
    assert report.trials == sum(
        math.comb(4 - k, 2) * math.comb(4, k) for k in range(5)
    )


def test_supermodular_square_cardinality():
    sf = SetFunction(_ground(5), lambda s: float(len(s) ** 2))
    report = check_supermodular(sf)
    assert report.violations == 0
    assert report.margin == pytest.approx(2.0)


def test_supermodular_flags_submodular_function():
    sf = SetFunction(_ground(5), lambda s: math.sqrt(len(s)))
    report = check_supermodular(sf)
    assert report.violations > 0
    assert report.margin < -1e-3
    s, i, j = report.worst_witness
    assert i not in s and j not in s and i != j


def test_supermodular_sampled_mode_and_determinism():
    sf = SetFunction(_ground(12), lambda s: math.sqrt(len(s)))
    first = check_supermodular(sf, trials=300, seed=7)
    again = check_supermodular(sf, trials=300, seed=7)
    assert first == again
    assert first.trials == 300
    assert first.violations > 0


def test_supermodular_forced_exhaustive_on_medium_ground():
    sf = SetFunction(_ground(11), lambda s: float(len(s) ** 2))
    report = check_supermodular(sf, exhaustive=True)
    assert report.violations == 0
    assert report.trials == sum(
        math.comb(11 - k, 2) * math.comb(11, k) for k in range(12)
    )


def test_ground_set_size_cap():
    sf = SetFunction(_ground(21), lambda s: float(len(s)))
    with pytest.raises(SizeError):
        check_supermodular(sf)
    with pytest.raises(SizeError):
        check_monotone(sf)


def test_monotone_decreasing_and_constant_pass():
    halving = SetFunction(_ground(6), lambda s: 2.0 ** -len(s))
    report = check_monotone(halving)
    assert report.violations == 0
    assert report.margin > 0.0
    const = SetFunction(_ground(6), lambda s: 3.0)
    assert check_monotone(const).violations == 0


def test_monotone_flags_increasing_function():
    sf = SetFunction(_ground(6), lambda s: float(len(s)))
    report = check_monotone(sf)
    assert report.violations == report.trials
    assert report.margin == pytest.approx(-1.0)
    s, x = report.worst_witness
    assert x not in s


def test_monotone_sampled_determinism():
    sf = SetFunction(_ground(14), lambda s: float(len(s)))
    first = check_monotone(sf, trials=250, seed=3)
    assert first == check_monotone(sf, trials=250, seed=3)
    assert first.trials == 250


def _cells10(cell_bits, slot_len, slots=None):
    """Packet 1's full discrete cost over 10 cells: 3 slots x 4 levels, cut to 10."""
    inst = Instance((cell_bits,), 4.0)
    params = DiscreteParams(slot_len, 1.0, 4, 3)
    sf = di_as_set_function(inst, params, 1, slots or {1: 1, 2: 1, 3: 1}, max_level=4)
    return SetFunction(sf.ground[:10], sf.fn)


def _loop_probe(name, f, exhaustive, trials=0, seed=0):
    """Reference set probe: one (S, cells) row at a time, each value a fresh
    call of f.fn on a frozenset, recorded in the order the bulk probe scores."""
    k = 2 if name == "supermodular" else 1
    probe = verify._Probe(verify.SUPERMODULAR_TOL if k == 2 else verify.MONOTONE_TOL)
    ground = tuple(f.ground)
    m = len(ground)

    def rows():
        if exhaustive:
            for mask in range(1 << m):
                rest = [g for b, g in enumerate(ground) if not mask >> b & 1]
                yield from ((mask, cells) for cells in combinations(rest, k))
            return
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            while True:
                mask = int(rng.integers(0, 1 << m))
                rest = [g for b, g in enumerate(ground) if not mask >> b & 1]
                if len(rest) >= k:
                    break
            yield mask, [rest[c] for c in rng.choice(len(rest), k, replace=False)]

    for mask, cells in rows():
        s = verify._subset_of(ground, mask)
        if k == 2:
            i, j = cells
            slack = f.fn(s) + f.fn(s | {i, j}) - f.fn(s | {i}) - f.fn(s | {j})
        else:
            slack = f.fn(s) - f.fn(s | set(cells))
        probe.record(slack, (s, *cells))
    return probe.report(name)


def test_monotone_evaluates_each_subset_once():
    calls = []
    inner = _cells10(2.5, 0.5)
    counting = SetFunction(inner.ground, lambda s: calls.append(s) or inner.fn(s))
    report = check_monotone(counting, exhaustive=True)
    assert len(calls) == len(set(calls)) == 1 << 10
    assert report.trials == 10 * (1 << 9)


def test_monotone_report_matches_uncached_probe():
    # The values are the same, so the report is too, down to its repr.
    for sf in (
        _cells10(2.5, 0.5),
        _cells10(1.25, 1.0),
        _cells10(3.75, 0.5, {1: 1, 3: 1}),
    ):
        assert repr(check_monotone(sf, exhaustive=True)) == repr(_loop_probe("monotone", sf, True))


def _random_set_function(rng, m):
    """Float values per subset of m cells, drawn with ties, nan, +-inf and -0.0."""
    special = (0.0, -0.0, 1.0, 1.0, 0.1, 0.2, 0.3, math.nan, math.inf, -math.inf, 1e308)
    values = [rng.choice(special) if rng.random() < 0.4 else rng.uniform(-2.0, 2.0)
              for _ in range(1 << m)]
    ground = tuple(f"c{b}" for b in range(m))
    bit = {g: 1 << b for b, g in enumerate(ground)}
    return SetFunction(ground, lambda s: values[sum(bit[g] for g in s)])


def test_bulk_set_probes_match_the_loop():
    # Every report, witness and margin included, is the per-row loop's, and
    # the inf - inf rows warn about nothing.
    rng = random.Random(16)
    for case in range(120):
        m = case % 10
        sf = _random_set_function(rng, m)
        seed = rng.randrange(2**31)
        for name, probe in (("monotone", check_monotone), ("supermodular", check_supermodular)):
            modes = (True, False) if m >= (2 if name == "supermodular" else 1) else (True,)
            for exhaustive in modes:
                want = _loop_probe(name, sf, exhaustive, trials=150, seed=seed)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = probe(sf, trials=150, seed=seed, exhaustive=exhaustive)
                assert repr(got) == repr(want), (case, name, exhaustive)


def test_exhaustive_set_probe_memory_stays_flat():
    # 16 cells: about 2M rows, scored block by block with the 512 KB value
    # table; one table of every row would take more than 45 MB.
    sf = SetFunction(_ground(16), lambda s: float(len(s) ** 2))
    tracemalloc.start()
    try:
        report = check_supermodular(sf, exhaustive=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.trials == sum(math.comb(16, k) * math.comb(16 - k, 2) for k in range(17))
    assert report.violations == 0
    assert peak < 8 * 2**20


# Sampled reports on a 14-cell cost, recorded before the two probes shared a
# loop: each pins the seeded draws (S and its cells) and the slack's operand
# order.  The grid l = 0.25, e = 1 keeps every bit-table entry the same under
# libm's and NumPy's log1p.
_SAMPLED_REPORTS = {
    (3, "monotone"): "PropertyReport(name='monotone', trials=400, violations=13, "
    "worst_witness=(frozenset({(1, 2), (2, 1), (1, 5), (1, 4), (2, 3), (2, 2), (2, 5)}), "
    "(3, 2)), margin=-0.12849741238843182)",
    (3, "supermodular"): "PropertyReport(name='supermodular', trials=400, violations=6, "
    "worst_witness=(frozenset({(2, 4), (1, 2), (1, 5), (1, 1), (1, 4), (2, 3), (2, 2), "
    "(2, 5)}), (3, 2), (3, 3)), margin=-0.16772538564455264)",
    (11, "monotone"): "PropertyReport(name='monotone', trials=400, violations=9, "
    "worst_witness=(frozenset({(2, 4), (1, 2), (2, 1), (1, 1), (1, 4), (2, 2), (2, 5), "
    "(1, 3)}), (3, 1)), margin=-0.13637886197743487)",
    (11, "supermodular"): "PropertyReport(name='supermodular', trials=400, violations=5, "
    "worst_witness=(frozenset({(1, 3), (1, 4)}), (3, 1), (2, 1)), margin=-0.16040339248579016)",
}


def test_sampled_set_probes_keep_their_seeded_reports():
    inst = Instance((0.5,), 5.0)
    params = DiscreteParams(0.25, 1.0, 5, 3)
    sf = di_as_set_function(inst, params, 1, {1: 1, 2: 1, 3: 1}, max_level=5)
    sf = SetFunction(sf.ground[:14], sf.fn)
    for (seed, name), want in _SAMPLED_REPORTS.items():
        probe = check_monotone if name == "monotone" else check_supermodular
        assert repr(probe(sf, trials=400, seed=seed)) == want, (seed, name)


def test_sampled_probes_on_too_few_cells_report_no_trials():
    # No set has k cells outside it (k = 2 for supermodularity, 1 for
    # monotonicity), so no draw can succeed: the sampled mode once looped
    # forever.  A child process with a timeout turns a hang into a failure.
    code = (
        "from edds.verify import SetFunction, check_monotone, check_supermodular\n"
        "for check, ground in ((check_supermodular, ((1, 1),)), (check_supermodular, ()),\n"
        "                      (check_monotone, ())):\n"
        "    print(repr(check(SetFunction(ground, lambda s: float(len(s))), trials=3,\n"
        "                     exhaustive=False)))\n"
    )
    src = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=env, timeout=30)
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout.splitlines() == [
        "PropertyReport(name='supermodular', trials=0, violations=0, worst_witness=None, "
        "margin=0.0)"] * 2 + [
        "PropertyReport(name='monotone', trials=0, violations=0, worst_witness=None, "
        "margin=0.0)"]


def _greedy_runs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 16)
        bits = tuple(round(rng.uniform(0.5, 40.0), 3) for _ in range(n))
        quantum = rng.choice((0.25, 0.3, 0.5, 1.0))
        inst = Instance(bits, quantum * rng.randint(0, 300))
        max_slots = rng.choice((None, rng.randint(0, 30)))
        yield inst, DiscreteParams.for_instance(
            inst, rng.choice((0.1, 0.5, 1.0, 2.0)), quantum, max_slots
        )


def test_probes_and_allocators_price_one_function():
    # The set probes' D_i is discrete_cost's, bit for bit, on single-packet loads.
    rng = random.Random(14)
    for _ in range(3000):
        loads = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        quantum = rng.uniform(0.05, 4.0)
        inst = Instance((rng.uniform(0.1, 30.0),), quantum * sum(loads))
        params = DiscreteParams(rng.uniform(0.05, 4.0), quantum, sum(loads), len(loads))
        owned = {j: 1 for j in range(1, len(loads) + 1)}
        sf = di_as_set_function(inst, params, 1, owned, max_level=6)
        cells = [(j, m) for j, r in enumerate(loads, start=1) for m in range(1, r + 1)]
        alloc = DiscreteAllocation((1,) * len(loads), loads)
        assert sf(cells) == discrete_cost(inst, params, alloc).per_packet[0], (inst, params, loads)
    # Each allocator's cost is discrete_cost's of its own answer, exactly.
    def assert_priced(inst, params, alloc, cost, *_):
        assert cost == discrete_cost(inst, params, alloc), (inst, params, alloc)

    for inst, params in certificate_sweep():
        assert_priced(inst, params, *oracle_allocate(inst, params))
    for inst, params in [*certificate_sweep(), *_greedy_runs(200, seed=14)]:
        for spend_all in (False, True):
            assert_priced(inst, params, *greedy_allocate(inst, params, spend_all))


def _single_packet_setup(max_slots=3, levels=2):
    inst = Instance((2.0,), 2.0)
    params = DiscreteParams(1.0, 1.0, levels, max_slots)
    ownership = {j: 1 for j in range(1, max_slots + 1)}
    return inst, params, ownership


def test_di_values_on_small_sets():
    inst, params, ownership = _single_packet_setup()
    sf = di_as_set_function(inst, params, 1, ownership)
    assert len(sf.ground) == 3 * 2
    assert sf(frozenset()) == pytest.approx(4.0)
    # one quantum in slot 1: one bit sent, delay 1
    assert sf({(1, 1)}) == pytest.approx(2.0 + 1.0)
    # same load placed in slot 3: same bits, delay 3
    assert sf({(3, 1)}) == pytest.approx(2.0 + 3.0)
    # two quanta in slot 1: log2(3) bits
    assert sf({(1, 1), (1, 2)}) == pytest.approx(2.0 ** (2 - math.log2(3)) + 1.0)


def test_di_ignores_foreign_slots():
    inst, params, _ = _single_packet_setup()
    sf = di_as_set_function(inst, params, 1, {1: 1, 2: 2, 3: 2})
    assert sf({(2, 1), (3, 1)}) == pytest.approx(4.0)  # no bits, no delay
    assert sf({(1, 1), (2, 1)}) == pytest.approx(3.0)


def test_di_distortion_only_drops_delay():
    inst, params, ownership = _single_packet_setup()
    sf = di_as_set_function(inst, params, 1, ownership, distortion_only=True)
    assert sf({(3, 1)}) == pytest.approx(2.0)
    assert sf(frozenset()) == pytest.approx(4.0)


def test_di_greedy_reachable_counts_level_prefixes():
    inst, params, ownership = _single_packet_setup()
    sf = di_as_set_function(inst, params, 1, ownership, greedy_reachable=True)
    # level 2 without level 1 is unreachable one-quantum-at-a-time: no effect
    assert sf({(1, 2)}) == pytest.approx(4.0)
    assert sf({(1, 1), (1, 2)}) == pytest.approx(2.0 ** (2 - math.log2(3)) + 1.0)
    full = di_as_set_function(inst, params, 1, ownership)
    assert full({(1, 2)}) == pytest.approx(3.0)  # count mode sees one quantum


def test_di_max_level_and_packet_validation():
    inst, params, ownership = _single_packet_setup()
    sf = di_as_set_function(inst, params, 1, ownership, max_level=1)
    assert len(sf.ground) == 3
    with pytest.raises(ValueError):
        di_as_set_function(inst, params, 2, ownership)


def test_full_cost_breaks_supermodularity_via_delay():
    inst, params, ownership = _single_packet_setup()
    sf = di_as_set_function(inst, params, 1, ownership)
    report = check_supermodular(sf)  # 6 cells -> exhaustive
    assert report.violations > 0
    assert report.margin < -1.0
    # the recorded witness must actually violate the inequality
    s, i, j = report.worst_witness
    slack = sf(s) + sf(set(s) | {i, j}) - sf(set(s) | {i}) - sf(set(s) | {j})
    assert slack == pytest.approx(report.margin)


def test_distortion_only_cost_is_supermodular_and_monotone():
    inst, params, ownership = _single_packet_setup()
    sf = di_as_set_function(inst, params, 1, ownership, distortion_only=True)
    assert check_supermodular(sf).violations == 0
    assert check_monotone(sf).violations == 0


def test_greedy_reachable_distortion_is_monotone():
    # with contiguous-prefix semantics each added cell either does nothing or
    # adds bits, so the distortion-only cost can only go down
    inst, params, ownership = _single_packet_setup(max_slots=2, levels=2)
    sf = di_as_set_function(inst, params, 1, ownership, greedy_reachable=True,
                            distortion_only=True)
    assert check_monotone(sf).violations == 0


def test_convexity_clean_on_reference_instance():
    inst = Instance((15.0, 20.0), 50.0)
    report = check_convexity(inst, Order.identity(2), trials=200, seed=1)
    assert report.violations == 0
    assert report.margin > 0.0
    # each trial records one midpoint slack and one curvature slack per packet
    assert report.trials == 200 * (1 + 2)
    assert report.name == "convexity"


def test_convexity_is_deterministic_and_validates_order():
    inst = Instance((3.0, 5.0), 4.0)
    a = check_convexity(inst, Order.identity(2), trials=50, seed=9)
    b = check_convexity(inst, Order.identity(2), trials=50, seed=9)
    assert a == b
    with pytest.raises(ValueError):
        check_convexity(inst, Order.identity(3), trials=1, seed=0)


def test_report_doc_serializes_witness():
    sf = SetFunction(_ground(4), lambda s: math.sqrt(len(s)))
    doc = check_supermodular(sf).to_doc()
    assert doc["name"] == "supermodular"
    assert doc["violations"] > 0
    assert isinstance(doc["worst_witness"][0], list)
    clean = check_supermodular(SetFunction(_ground(3), lambda s: float(len(s) ** 2)))
    assert clean.to_doc()["worst_witness"] is None


def test_negative_trials_are_refused_and_zero_runs_none():
    sf = SetFunction(_ground(12), lambda s: float(len(s)))
    inst = Instance((3.0, 5.0), 4.0)
    probes = (lambda k: check_supermodular(sf, trials=k),
              lambda k: check_monotone(sf, trials=k),
              lambda k: check_convexity(inst, Order.identity(2), trials=k))
    for probe in probes:
        with pytest.raises(ValueError, match="trials must be non-negative, got -3"):
            probe(-3)
        report = probe(0)
        assert (report.trials, report.violations, report.margin) == (0, 0, 0.0)
    with pytest.raises(ValueError):  # even where an exhaustive probe ignores the count
        check_monotone(sf, trials=-1, exhaustive=True)


# ---------------------------------------------------------------------------
# The batched convexity probe against a loop that scores one trial at a time
# from the same seeded block draws.


def _scalar_hessian_block(inst, packet, e, t):
    """The curvature block with Python scalars, as it was computed one at a time."""
    d = 2.0 ** (inst.bits[packet - 1] - shannon_bits(e, t))
    x = e / t
    g_e, g_t = 1.0 / (1.0 + x), math.log1p(x) - x / (1.0 + x)
    s = (t + e) ** 2
    off = d * (g_e * g_t - e / s)
    return np.array([[d * (g_e * g_e + t / s), off], [off, d * (g_t * g_t + e * e / t / s)]])


def _loop_check_convexity(inst, order, trials=1000, seed=0):
    """Reference probe: one trial at a time, each slack recorded on its own."""
    n = inst.n
    bits = np.asarray(inst.bits)
    a = delay_coefficients(order)
    rng = np.random.default_rng(seed)
    probe = verify._Probe(verify.CONVEXITY_TOL)

    def cost(e, t):
        return float(np.exp2(bits - shannon_bits(e, t)).sum() + a @ t)

    def draw():
        """Each trial's (x, y) in turn, from three draws per block of trials."""
        for start in range(0, trials, verify._TRIAL_BLOCK):
            rows = min(verify._TRIAL_BLOCK, trials - start)
            u = rng.uniform(size=(rows, 2, 1))
            d = rng.dirichlet(np.ones(n), size=(rows, 2))
            t = rng.uniform(0.1, 10.0, (rows, 2, n))
            for k in range(rows):
                yield [(inst.energy * u[k, p, 0] * d[k, p], t[k, p]) for p in (0, 1)]

    for (ex, tx), (ey, ty) in draw():
        em, tm = 0.5 * (ex + ey), 0.5 * (tx + ty)
        mid_slack = 0.5 * (cost(ex, tx) + cost(ey, ty)) - cost(em, tm)
        probe.record(mid_slack, ("midpoint", tuple(ex), tuple(tx), tuple(ey), tuple(ty)))
        for i in range(1, n + 1):
            h = _scalar_hessian_block(inst, i, float(em[i - 1]), float(tm[i - 1]))
            det = float(h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0])
            trace = float(h[0, 0] + h[1, 1])
            probe.record(min(det, trace), ("hessian", i, float(em[i - 1]), float(tm[i - 1])))
    return probe.report("convexity")


def _convexity_cases(count, seed):
    """n 1..6, bits up to 40, budgets log-uniform over 1e-3..1e3, and E = 0."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = k % 6 + 1
        bits = tuple(rng.uniform(0.1, 40.0, n).tolist())
        energy = 0.0 if k % 7 == 0 else float(10.0 ** rng.uniform(-3.0, 3.0))
        yield Instance(bits, energy), Order.identity(n), int(rng.integers(0, 2**31))


def _assert_same_reports(inst, order, trials, seed):
    with np.errstate(over="ignore", invalid="ignore"):
        want = _loop_check_convexity(inst, order, trials, seed)
    got = check_convexity(inst, order, trials, seed)
    assert repr(got) == repr(want), (inst, trials, seed)
    return got


def test_batched_convexity_matches_the_loop():
    for inst, order, seed in _convexity_cases(60, seed=3):
        _assert_same_reports(inst, order, 40, seed)
    # E = 0 and small packets: the cost is about a . t, and the midpoint
    # slacks, its rounding noise, set the margin
    for n in range(3, 7):
        _assert_same_reports(Instance((0.25,) * n, 0.0), Order.identity(n), 200, n)
    # more trials than one block, in a reversed order
    inst = Instance((7.5, 12.0, 3.0), 20.0)
    report = _assert_same_reports(inst, Order((3, 1, 2)), 2 * verify._TRIAL_BLOCK + 5, 11)
    assert report.trials == (2 * verify._TRIAL_BLOCK + 5) * 4


def test_batched_convexity_skips_nan_slacks_like_the_loop():
    # 2**1000-sized blocks: det overflows to inf - inf = nan, which counts as a
    # trial but never as the margin.
    inst = Instance((1000.0, 1000.0), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the batched probe warns about nothing
        report = _assert_same_reports(inst, Order.identity(2), 100, 0)
    assert report.trials == 300 and math.isfinite(report.margin)


def test_batched_convexity_witness_matches_the_loop(monkeypatch):
    # Every finite slack a violation: the witness is the first of the least.
    monkeypatch.setattr(verify, "CONVEXITY_TOL", -math.inf)
    for inst, order, seed in _convexity_cases(12, seed=5):
        report = _assert_same_reports(inst, order, 30, seed)
        assert report.violations == report.trials and report.worst_witness is not None
    report = _assert_same_reports(Instance((1000.0, 1000.0), 1.0), Order.identity(2), 100, 1)
    assert 100 <= report.violations < report.trials  # the nan slacks never count


def test_convexity_draws_per_block_with_a_short_last_block(monkeypatch):
    # The seeded draw order is per block of _TRIAL_BLOCK trials, so the
    # reports depend on it; 2 full blocks of 7 and a last block of 3.
    cases = list(_convexity_cases(12, seed=8))
    wide = [check_convexity(inst, order, 2 * 7 + 3, seed) for inst, order, seed in cases]
    monkeypatch.setattr(verify, "_TRIAL_BLOCK", 7)
    for (inst, order, seed), other in zip(cases, wide):
        report = _assert_same_reports(inst, order, 2 * 7 + 3, seed)
        assert report.trials == (2 * 7 + 3) * (inst.n + 1)
        if inst.energy > 0:
            assert report.margin != other.margin, (inst, seed)
    monkeypatch.setattr(verify, "CONVEXITY_TOL", -math.inf)
    for inst, order, seed in cases:
        assert _assert_same_reports(inst, order, 2 * 7 + 3, seed).worst_witness is not None


def test_convexity_draws_only_feasible_points(monkeypatch):
    # Every rate the probe evaluates: the block's points x and y, their
    # midpoint's cost, then the midpoint's curvature blocks at that same point.
    # x and y spend at most E, to rounding, with t in [0.1, 10).
    calls = []
    monkeypatch.setattr(verify, "shannon_bits",
                        lambda e, t: calls.append((e, t)) or shannon_bits(e, t))
    for inst, order, seed in _convexity_cases(30, seed=4):
        calls.clear()
        trials = verify._TRIAL_BLOCK + 9
        check_convexity(inst, order, trials, seed)
        assert len(calls) == 2 * 4
        for e, t in calls[0::4] + calls[1::4]:
            assert e.shape == t.shape and e.shape[1] == inst.n
            assert np.all(e >= 0.0) and np.all(e.sum(1) <= inst.energy * (1 + 1e-12))
            assert np.all(t >= 0.1) and np.all(t < 10.0)
        for (em, tm), (eh, th) in zip(calls[2::4], calls[3::4]):
            assert np.array_equal(eh, em) and np.array_equal(th, tm)
        assert sum(len(e) for e, _ in calls[0::4]) == trials


def test_hessian_block_matches_the_scalar_formula_bit_for_bit():
    rng = np.random.default_rng(2)
    for _ in range(500):
        n = int(rng.integers(1, 4))
        inst = Instance(tuple(rng.uniform(0.1, 60.0, n).tolist()), 10.0)
        packet = int(rng.integers(1, n + 1))
        e, t = float(10.0 ** rng.uniform(-4, 3)), float(10.0 ** rng.uniform(-6, 2))
        got = hessian_block(inst, packet, e, t)
        assert repr(got.tolist()) == repr(_scalar_hessian_block(inst, packet, e, t).tolist())

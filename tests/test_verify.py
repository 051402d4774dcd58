"""Property-checker tests.

Exercise the probes on small set functions with known structure (modular,
|S|^2, sqrt|S|, ...) before pointing them at the discrete per-packet cost,
where monotonicity and distortion-only supermodularity must hold but the
delay term is known to break supermodularity of the full cost.
"""

import math
import warnings

import numpy as np
import pytest

from edds import verify
from edds.csolve import hessian_block
from edds.model import Instance, Order, SizeError, delay_coefficients, shannon_bits
from edds.discrete import DiscreteParams
from edds.verify import (
    SetFunction,
    check_convexity,
    check_monotone,
    check_supermodular,
    di_as_set_function,
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
# The batched convexity probe against the per-trial loop it replaced.


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
        e = inst.energy * rng.uniform() * rng.dirichlet(np.ones(n))
        t = rng.uniform(0.1, 10.0, n)
        return e, t

    for _ in range(trials):
        ex, tx = draw()
        ey, ty = draw()
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


def test_hessian_block_matches_the_scalar_formula_bit_for_bit():
    rng = np.random.default_rng(2)
    for _ in range(500):
        n = int(rng.integers(1, 4))
        inst = Instance(tuple(rng.uniform(0.1, 60.0, n).tolist()), 10.0)
        packet = int(rng.integers(1, n + 1))
        e, t = float(10.0 ** rng.uniform(-4, 3)), float(10.0 ** rng.uniform(-6, 2))
        got = hessian_block(inst, packet, e, t, 1.0)
        assert repr(got.tolist()) == repr(_scalar_hessian_block(inst, packet, e, t).tolist())

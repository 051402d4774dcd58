"""Self-tests of the benchmark: metric names and units, counters, and checks
that catch wrong answers.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workload as wl
from edds import discrete, model

def _result_doc(name: str, result: dict) -> dict:
    text = run.report(name, result)
    doc = json.loads(text.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    assert isinstance(doc["failed"], int)
    return doc


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in run.CONTRACT[section]}


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_tiny_end_to_end_run_reports_every_metric(name):
    result = run.run_end_to_end(name, seed=3, seconds=0.0, min_items=3, setup_runs=1)
    doc = _result_doc(name, result)
    assert doc["correct"]
    assert doc["failed"] == 0
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(name):
    result = run.run_traced(name, seed=3, count=3)
    doc = _result_doc(name, result)
    assert doc["correct"]
    # The robustness slice is reported on its own, never as workload items.
    assert (doc["attempted"], doc["failed"]) == (3, 0)
    edge_failures = doc["metrics"]["csolve.edge.failures"]["value"]
    assert edge_failures == len(result["edge_failures"]) <= len(wl.edge_items(name))
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == _units("per_layer")
    for key, value in doc["metrics"].items():
        if value["unit"] == "count":
            assert value["value"] == int(value["value"]), key


def test_work_counts_repeat_for_the_same_seed():
    exact = ("csolve.iterations_total", "order.solves_per_search",
             "discrete.greedy_steps", "discrete.greedy_candidates", "verify.trials")
    firsts = {}
    for name in wl.WORKLOADS:
        a = run.run_traced(name, seed=5, count=12)["metrics"]
        b = run.run_traced(name, seed=5, count=12)["metrics"]
        for key in exact:
            assert a[key] == b[key], (name, key)
        firsts[name] = a
    assert firsts["solve-search"]["csolve.iterations_total"] > 0
    assert firsts["discrete-certify"]["csolve.solve_fixed_order.calls"] == 0


def test_shims_cover_the_names_other_modules_import():
    import edds

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod, attr in (("order", "solve_fixed_order"), ("cli", "brute_force_order"),
                          ("cli", "solve_fixed_order"), ("csolve", "evaluate_cost"),
                          ("verify", "hessian_block"), ("discrete", "shannon_bits"),
                          ("cli", "main")):
            assert hasattr(getattr(getattr(edds, mod), attr), "traced_name"), (mod, attr)
    finally:
        tracer.uninstall()
    for mod in tracing.MODULES:
        for value in vars(mod).values():
            assert not hasattr(value, "traced_name")


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1, "i", None],
        ["b", 1.0, 4.0, 0, "i", None],
        ["c", 2.0, 3.0, 1, "i", None],
        ["d", 5.0, 6.0, 0, "i", None],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# The checks reject wrong answers.


def _solved():
    inst = model.Instance((15.0, 20.0), 50.0)
    return inst, wl.run_solve(inst)


def test_correct_solve_passes():
    inst, report = _solved()
    assert wl.check_solve(inst, report) is None


def test_perturbed_allocation_fails_kkt():
    inst, report = _solved()
    alloc = report.alloc
    moved = model.ContinuousAllocation(alloc.energies, tuple(t * 1.001 for t in alloc.times), alloc.order)
    reason = wl.check_continuous(inst, moved, model.evaluate_cost(inst, moved).total, True)
    assert reason is not None and "KKT" in reason


def test_wrong_total_and_nonconvergence_fail():
    inst, report = _solved()
    assert "evaluate_cost" in wl.check_continuous(inst, report.alloc, report.cost.total + 1e-3, True)
    assert wl.check_continuous(inst, report.alloc, report.cost.total, False) == wl.NONCONVERGED


def test_search_checks_exit_code_json_and_reference():
    payload = (wl._search_argv((15.0, 20.0), 50.0), ((13.667, 19.1396), [1, 2]))
    output = wl.run_search(payload)
    assert wl.check_search(payload, output) is None
    assert "exit code" in wl.check_search(payload, (2, output[1]))
    assert "JSON" in wl.check_search(payload, (0, output[1][:-5]))
    off = (payload[0], ((13.0, 19.1396), [1, 2]))
    assert "bhat" in wl.check_search(off, output)
    swapped = (payload[0], ((13.667, 19.1396), [2, 1]))
    assert "perm" in wl.check_search(swapped, output)


def _sweep_case():
    inst = model.Instance((2.0, 3.0), 4.0)
    params = discrete.DiscreteParams(1.0, 1.0, 4, 6)
    cell = ((inst, params),)
    return cell, wl.run_sweep(cell)


def test_greedy_above_twice_oracle_fails_ratio_check():
    cell, output = _sweep_case()
    assert wl.check_sweep(cell, output) is None
    g_alloc, g_cost, g_trace, o_alloc, o_cost = output[0]
    bad = discrete.DiscreteCost(g_cost.per_packet, 2.5 * o_cost.total)
    reason = wl.check_sweep(cell, ((g_alloc, bad, g_trace, o_alloc, o_cost),))
    assert reason is not None and "ratio" in reason


def test_greedy_cost_and_trace_are_checked():
    cell, output = _sweep_case()
    g_alloc, g_cost, g_trace, o_alloc, o_cost = output[0]
    off = discrete.DiscreteCost(g_cost.per_packet, g_cost.total * (1 + 1e-6))
    assert "discrete_cost" in wl.check_sweep(cell, ((g_alloc, off, g_trace, o_alloc, o_cost),))
    flat = g_trace[:1] + (dataclasses.replace(g_trace[1], total_cost=g_trace[0].total_cost),) + g_trace[2:]
    assert "decreasing" in wl.check_sweep(cell, ((g_alloc, g_cost, flat, o_alloc, o_cost),))
    (inst, params), = cell
    greedy = (inst, params, False)
    assert "decreasing" in wl.check_greedy(greedy, (g_alloc, g_cost, flat))
    assert wl.check_greedy((inst, params, True), (g_alloc, g_cost, flat)) is None


def test_probe_violations_fail_only_where_the_gate_expects_none():
    report = wl.run_probe(("c08", None, True))
    assert wl.check_probe(("c08", None, True), report) is None
    bad = dataclasses.replace(report, violations=1)
    assert "violations" in wl.check_probe(("c08", None, True), bad)
    assert wl.check_probe(("cells10-monotone", None, False), bad) is None


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "solve-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

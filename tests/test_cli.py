"""End-to-end CLI tests.

Every test drives ``edds.cli.main`` in-process, captures stdout/stderr, and
asserts on the exit code plus the parsed JSON/CSV payloads.  Exit codes:
0 success, 1 bad input, 2 non-convergence, 3 certificate breach.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from edds import cli
from edds.cli import main
from edds.model import Instance, allocation_from_doc, instance_from_doc
from edds.discrete import DiscreteAllocation, discrete_allocation_from_doc


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def solve_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def test_solve_brute_reproduces_reference(capsys):
    code, doc = solve_json(
        capsys, "solve", "--bits", "15,20", "--energy", "50", "--search", "brute"
    )
    assert code == 0
    assert doc["converged"] is True
    assert doc["search"] == "brute"
    assert doc["alloc"]["perm"] == [1, 2]  # shorter packet first
    assert doc["cost"]["bhat"][0] == pytest.approx(13.667, abs=0.05)
    assert doc["cost"]["bhat"][1] == pytest.approx(19.1396, abs=0.05)
    assert sum(doc["alloc"]["energies"]) <= 50.0 + 1e-9
    assert doc["energy_slack"] <= 1e-6 * 50.0


def test_solve_explicit_order_is_dominated(capsys):
    code_best, best = solve_json(
        capsys, "solve", "--bits", "15,20", "--energy", "50", "--search", "brute"
    )
    code_rev, rev = solve_json(
        capsys, "solve", "--bits", "15,20", "--energy", "50", "--order", "2,1"
    )
    assert code_best == code_rev == 0
    assert rev["alloc"]["perm"] == [2, 1]
    assert rev["search"] is None
    assert best["cost"]["total"] <= rev["cost"]["total"] + 1e-9


def test_solve_rejects_nonpositive_energy(capsys):
    code, out, err = run_cli(capsys, "solve", "--bits", "5", "--energy", "0.0")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--bits", "5,5"),  # missing energy
        ("solve", "--energy", "3"),  # missing bits
        ("solve", "--bits", "a,b", "--energy", "3"),
        ("solve", "--bits", "5,5", "--energy", "3", "--order", "1,a"),
        ("solve", "--bits", "5,5", "--energy", "3", "--order", "1,3"),
        ("solve", "--bits", "5,5", "--energy", "3", "--order", "1,2",
         "--search", "brute"),
        ("solve", "--bits", "5,-1", "--energy", "3"),
        ("sweep", "--fix", "B1=5", "--vary", "B2=3:1:1", "--energy", "4"),
        ("sweep", "--fix", "B1=5", "--vary", "B1=1:3:1", "--energy", "4"),
        ("sweep", "--fix", "B1=5", "--vary", "B2=1:3:0", "--energy", "4"),
        ("sweep", "--fix", "B1=5", "--vary", "B2=1:3:1"),  # missing energy
        ("sweep", "--energy", "4"),  # neither surface nor fix/vary
        ("discrete", "--bits", "2", "--energy", "2", "--slot-len", "1"),
        ("nonsense",),
    ],
)
def test_bad_inputs_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert "error:" in err


def test_overflowing_distortion_exits_1_with_one_line(capsys):
    # at best 2**(1100 - 72) of packet 1 is left, beyond float64
    code, out, err = run_cli(capsys, "solve", "--bits", "1100", "--energy", "50")
    assert code == 1
    assert out == ""
    assert err.startswith("error: packet 1") and err.count("\n") == 1


def test_solver_override_from_config_and_exit_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"max_iters": 1}}))
    code, out, err = run_cli(
        capsys, "solve", "--bits", "15,20", "--energy", "50", "--config", str(cfg)
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["converged"] is False


def test_unknown_solver_override_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"step_size": 2.0}}))
    code, _, err = run_cli(
        capsys, "solve", "--bits", "5", "--energy", "2", "--config", str(cfg)
    )
    assert code == 1 and "step_size" in err


@pytest.mark.parametrize(
    "knob", ["armijo_c", "backtrack_factor", "init_step", "grad_tol", "t_min"]
)
def test_removed_line_search_knobs_rejected(capsys, tmp_path, knob):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {knob: 0.5}}))
    code, out, err = run_cli(
        capsys, "solve", "--bits", "5", "--energy", "2", "--config", str(cfg)
    )
    assert code == 1 and out == "" and knob in err


@pytest.mark.parametrize("value", [1.5, "5", 0])
def test_non_integer_max_iters_exits_1(capsys, tmp_path, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"max_iters": value}}))
    code, out, err = run_cli(
        capsys, "solve", "--bits", "5", "--energy", "2", "--config", str(cfg)
    )
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: max_iters")


@pytest.mark.parametrize("bits, energy", [("30,30,30", "1e-3"), ("60,80,100", "50")])
def test_huge_multiplier_answers_are_certified(capsys, bits, energy):
    # the root is found in 5 and 8 steps at mu near 1e9 and 1e17; these
    # exited 2 while convergence was an absolute residual, which float64
    # cannot resolve at that scale
    code, doc = solve_json(capsys, "solve", "--bits", bits, "--energy", energy)
    assert code == 0
    assert doc["converged"] is True and doc["iterations"] <= 10
    assert abs(doc["duality_gap"]) <= 1e-12


def test_exit_2_says_why_on_stderr(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"max_iters": 1}}))
    argv = ("solve", "--bits", "15,20", "--energy", "50")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert json.loads(out)["duality_gap"] > 1e-12
    assert err.count("\n") == 1 and err.startswith("warning: not converged after 1 ")
    assert "relative duality gap" in err and "1e-12" in err
    code, out, err = run_cli(
        capsys, "sweep", "--fix", "B1=15", "--vary", "B2=18:22:2", "--energy", "50",
        "--config", str(cfg),
    )
    assert code == 2
    assert len(out.splitlines()) == 4  # the CSV is written all the same
    assert err.count("\n") == 1 and err.startswith("warning: 3 of 3 points did not converge")
    code, out, err = run_cli(
        capsys, "sweep", "--bits", "6,9", "--energy", "12", "--surface",
        "--grid-e", "0:12:6", "--grid-t", "1:2:1", "--config", str(cfg),
    )
    assert code == 2
    # the last column leaves packet 2 no energy and no tail solve
    assert err.count("\n") == 1 and err.startswith("warning: 2 of 3 columns did not converge")


def test_config_supplies_instance_and_flags_win(capsys, tmp_path):
    cfg = tmp_path / "inst.json"
    cfg.write_text(json.dumps({"bits": [15, 20], "energy": 50}))
    code, from_cfg = solve_json(
        capsys, "solve", "--config", str(cfg), "--search", "brute"
    )
    assert code == 0
    _, from_flags = solve_json(
        capsys, "solve", "--bits", "15,20", "--energy", "50", "--search", "brute"
    )
    assert from_cfg == from_flags
    # explicit flags override the config body
    code, overridden = solve_json(
        capsys, "solve", "--config", str(cfg), "--bits", "12,20",
        "--energy", "20", "--search", "brute"
    )
    assert code == 0
    assert overridden["cost"]["bhat"][0] == pytest.approx(7.663, abs=0.05)
    assert overridden["cost"]["bhat"][1] == pytest.approx(15.8431, abs=0.05)


def test_sweep_single_point_matches_solve(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--fix", "B1=15", "--vary", "B2=20:20:1",
        "--energy", "50", "--search", "brute",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "B2,bhat1,bhat2,total"
    assert len(lines) == 2
    v, b1, b2, total = (float(x) for x in lines[1].split(","))
    assert v == 20.0
    _, doc = solve_json(
        capsys, "solve", "--bits", "15,20", "--energy", "50", "--search", "brute"
    )
    assert (b1, b2, total) == (
        doc["cost"]["bhat"][0], doc["cost"]["bhat"][1], doc["cost"]["total"]
    )


def test_sweep_total_grows_with_packet_size(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--fix", "B1=5", "--vary", "B2=1:10:1",
        "--energy", "10", "--search", "brute",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 10
    totals = [float(r[3]) for r in rows]
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_sweep_vary_b1_layout(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--vary", "B1=2:4:1", "--fix", "B2=6", "--energy", "8"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "B1,bhat1,bhat2,total"
    assert [float(l.split(",")[0]) for l in lines[1:]] == [2.0, 3.0, 4.0]


@pytest.mark.parametrize("bits, energy, grid_e, packet", [
    ("1100,5", "10", "0:10:5", 1),  # 2**1100 at E1 = 0: was an OverflowError traceback
    ("5,1030", "1000", "1000:1000:1", 2),  # 2**1030 at E2 = 0, where no tail solve runs
])
def test_surface_overflow_exits_1_with_one_line(capsys, bits, energy, grid_e, packet):
    code, out, err = run_cli(capsys, "sweep", "--surface", "--bits", bits, "--energy", energy,
                             "--grid-e", grid_e)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: packet {packet}: the distortion")


def test_surface_tail_overflow_names_packet_2(capsys):
    # The tail solve numbers its one packet 1; the overflowing packet is 2.
    code, out, err = run_cli(capsys, "sweep", "--surface", "--bits", "5,1100", "--energy", "10")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: packet 2: the optimal distortion")


def test_surface_brackets_the_continuous_optimum(capsys):
    _, doc = solve_json(capsys, "solve", "--bits", "15,20", "--energy", "50")
    e_star = doc["alloc"]["energies"][0]
    t_star = doc["alloc"]["times"][0]
    total = doc["cost"]["total"]
    e_lo = max(e_star - 2.0, 0.0)
    t_lo = max(t_star - 1.0, 0.1)
    code, out, _ = run_cli(
        capsys, "sweep", "--surface", "--bits", "15,20", "--energy", "50",
        "--grid-e", f"{e_lo}:{e_star + 2.0}:1.0",
        "--grid-t", f"{t_lo}:{t_star + 1.0}:0.5",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "e1,t1,u1,u2"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    best = min(rows, key=lambda r: r[2] + r[3])
    grid_min = best[2] + best[3]
    # the grid cannot beat the optimizer, and some cell must come close
    assert grid_min >= total - 1e-6
    assert grid_min <= total + 0.6
    assert abs(best[0] - e_star) <= 1.0 + 1e-9
    assert abs(best[1] - t_star) <= 0.5 + 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--surface", "--bits", "15,20", "--energy", "50",
         "--grid-e", "0:60:10"),
        ("sweep", "--surface", "--bits", "15,20", "--energy", "50",
         "--grid-t", "0:2:0.5"),
        ("sweep", "--surface", "--bits", "15", "--energy", "50"),
    ],
)
def test_surface_grid_validation(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1 and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--bits", "5,5", "--energy", "3"),
        ("sweep", "--fix", "B1=5", "--vary", "B2=1:3:1", "--energy", "4"),
        ("sweep", "--surface", "--bits", "15,20", "--energy", "50"),
    ],
)
def test_order_and_search_are_exclusive(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--order", "1,2", "--search", "spf")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        # 1e12 and an unbounded count of grid points
        ("sweep", "--fix", "B1=5", "--vary", "B2=0:1e12:1", "--energy", "4"),
        ("sweep", "--fix", "B1=5", "--vary", "B2=0:inf:1", "--energy", "4"),
        ("sweep", "--surface", "--bits", "15,20", "--energy", "50",
         "--grid-t", "1:2:1e-9"),
        # 1e18 quanta, and a quantum that sends E / quantum to inf
        ("discrete", "--bits", "2", "--energy", "1e15", "--slot-len", "1",
         "--quantum", "1e-3"),
        ("discrete", "--bits", "2", "--energy", "1e300", "--slot-len", "1",
         "--quantum", "1e-300"),
        ("discrete", "--bits", "2", "--energy", "2", "--slot-len", "1", "--quantum", "0"),
        ("oracle", "--bits", "2", "--energy", "1e15", "--slot-len", "1",
         "--quantum", "1e-3"),
    ],
)
def test_oversized_grids_and_budgets_exit_1(capsys, argv):
    # each guard trips on the size alone, before anything of that size is built
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_discrete_zero_energy(capsys):
    code, out, err = run_cli(
        capsys, "discrete", "--bits", "2", "--energy", "0",
        "--slot-len", "1", "--quantum", "1",
    )
    assert code == 0 and err == ""
    head, tail = out.split("\n\n")
    doc = json.loads(head)
    assert doc["cost"]["total"] == 4.0
    assert doc["allocation"]["slots"] == []
    assert tail == "iteration,action,slot,packet,total_cost\n"


def test_discrete_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, "discrete", "--bits", "2", "--energy", "2",
        "--slot-len", "1", "--quantum", "1",
    )
    assert code == 0
    head, tail = out.split("\n\n")
    doc = json.loads(head)
    assert doc["cost"]["total"] == pytest.approx(7.0 / 3.0)
    assert doc["allocation"]["slots"] == [{"owner": 1, "quanta": 2}]
    csv_lines = tail.strip().split("\n")
    assert len(csv_lines) == 3
    assert all(line.split(",")[2] == "1" for line in csv_lines[1:])


def test_discrete_spend_all_pushes_through_plateau(capsys):
    base = ("--bits", "1", "--energy", "2", "--slot-len", "1", "--quantum", "1")
    code, out, _ = run_cli(capsys, "discrete", *base)
    assert code == 0
    assert json.loads(out.split("\n\n")[0])["cost"]["total"] == 2.0
    code, out, _ = run_cli(capsys, "discrete", *base, "--spend-all")
    assert code == 0
    assert json.loads(out.split("\n\n")[0])["cost"]["total"] == pytest.approx(5.0 / 3.0)


def test_oracle_agrees_with_greedy_on_easy_instance(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--bits", "2", "--energy", "2",
        "--slot-len", "1", "--quantum", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ratio"] == pytest.approx(1.0)
    assert doc["greedy"]["allocation"] == doc["oracle"]["allocation"]


def test_oracle_reports_plateau_gap_within_bound(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--bits", "1", "--energy", "2",
        "--slot-len", "1", "--quantum", "1",
    )
    assert code == 0  # gap exists but stays under the certified factor 2
    doc = json.loads(out)
    assert doc["greedy"]["cost"]["total"] == 2.0
    assert doc["oracle"]["cost"]["total"] == pytest.approx(5.0 / 3.0)
    assert doc["ratio"] == pytest.approx(1.2)


def _check_rows(out):
    lines = out.strip().split("\n")
    assert lines[0].split() == ["property", "trials", "violations", "margin", "witness"]
    rows = {}
    for line in lines[1:]:
        parts = line.split(None, 4)
        rows[parts[0]] = {
            "trials": int(parts[1]),
            "violations": int(parts[2]),
            "margin": float(parts[3]),
            "witness": parts[4],
        }
    return rows


def test_check_distortion_only_is_clean(capsys):
    args = (
        "check", "--bits", "2", "--energy", "2", "--slot-len", "1",
        "--quantum", "1", "--distortion-only", "--trials", "200",
        "--convexity-trials", "50",
    )
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and err == ""
    rows = _check_rows(out)
    assert set(rows) == {"monotone", "supermodular", "convexity"}
    for row in rows.values():
        assert row["violations"] == 0
        assert row["witness"] == "-"
    code2, out2, _ = run_cli(capsys, *args)
    assert code2 == 0 and out2 == out  # deterministic given a seed


def test_check_full_cost_flags_delay_term(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--bits", "2", "--energy", "2", "--slot-len", "1",
        "--quantum", "1", "--trials", "200", "--convexity-trials", "50",
        "--exhaustive",
    )
    assert code == 0
    rows = _check_rows(out)
    assert rows["supermodular"]["violations"] > 0
    assert rows["supermodular"]["margin"] < 0
    assert rows["supermodular"]["witness"] != "-"
    assert rows["convexity"]["violations"] == 0


def test_check_validates_packet_index(capsys):
    code, _, err = run_cli(
        capsys, "check", "--bits", "2", "--energy", "2", "--slot-len", "1",
        "--quantum", "1", "--packet", "5",
    )
    assert code == 1 and "packet" in err


def test_repeated_runs_are_byte_identical(capsys):
    argv = ("solve", "--bits", "12,20", "--energy", "20", "--search", "brute")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_cached_parser_keeps_no_state_between_calls(capsys):
    # One process runs these in turn, a usage error among them, with the
    # parser built once; each matches the same command in a fresh interpreter.
    common = ("--bits", "15,20", "--energy", "50")
    commands = [
        ("solve", *common, "--order", "2,1"),
        ("solve", *common, "--order", "1,2", "--search", "brute"),
        ("solve", *common, "--search", "brute"),
        ("sweep", "--fix", "B1=15", "--vary", "B2=18:22:2", "--energy", "50", "--search", "spf"),
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    codes = []
    for argv in commands:
        in_process = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "edds.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=60)
        assert in_process == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(in_process[0])
    assert codes == [0, 1, 0, 0]
    assert cli._build_parser() is cli._build_parser()


def test_docs_round_trip_through_model_constructors(capsys):
    _, doc = solve_json(
        capsys, "solve", "--bits", "15,20", "--energy", "50", "--search", "brute"
    )
    assert instance_from_doc(doc["instance"])[0] == Instance((15.0, 20.0), 50.0)
    alloc = allocation_from_doc(doc["alloc"])
    assert list(alloc.energies) == doc["alloc"]["energies"]
    assert list(alloc.order.perm) == doc["alloc"]["perm"]
    code, out, _ = run_cli(
        capsys, "discrete", "--bits", "2", "--energy", "2",
        "--slot-len", "1", "--quantum", "1",
    )
    d = json.loads(out.split("\n\n")[0])
    assert discrete_allocation_from_doc(d["allocation"]) == DiscreteAllocation((1,), (2,))


def test_check_refuses_oversized_ground_set_before_building_it(capsys, monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("the ground set was built before the cap was checked")

    monkeypatch.setattr(cli, "di_as_set_function", built)
    code, out, err = run_cli(
        capsys, "check", "--bits", "2", "--energy", "2", "--slot-len", "1",
        "--quantum", "1", "--ground-set", "2000000",
    )
    assert code == 1
    assert out == ""
    assert err == "error: ground set is capped at 20 cells, got 2000000\n"


@pytest.mark.parametrize("command", ["discrete", "oracle", "check"])
@pytest.mark.parametrize("bits", ["1100", "1023.5,1023.5"])
def test_overflowing_idle_cost_exits_1_with_one_line(capsys, command, bits):
    # 2**1100 overflows on its own; 2**1023.5 twice overflows only in the sum,
    # which must not reach the output as "total": Infinity (nor the oracle's
    # ratio as a false alarm, exit 3).
    code, out, err = run_cli(
        capsys, command, "--bits", bits, "--energy", "2", "--slot-len", "1",
        "--quantum", "1",
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: packet ")


def test_overflowing_optimal_total_exits_1_with_one_line(capsys):
    # each optimal distortion is finite, their sum 2**1024.9 is not; this
    # printed "total": Infinity
    code, out, err = run_cli(capsys, "solve", "--bits", "1023.9,1023.9", "--energy", "1e-3")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: packet 2")


@pytest.mark.parametrize("command", ["discrete", "oracle"])
@pytest.mark.parametrize("slot_len, quantum, field", [
    ("inf", "1", "slot_len"),  # printed NaN costs and "ratio": NaN
    ("1e-7", "1", "slot_len"),  # below t_min: failed only after the greedy
    ("1", "inf", "quantum"),
])
def test_non_finite_or_too_short_grid_exits_1(capsys, command, slot_len, quantum, field):
    code, out, err = run_cli(
        capsys, command, "--bits", "2", "--energy", "2",
        "--slot-len", slot_len, "--quantum", quantum,
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {field} must be")


@pytest.mark.parametrize("flag", ["--trials", "--convexity-trials"])
def test_check_refuses_negative_trials(capsys, flag):
    code, out, err = run_cli(
        capsys, "check", "--bits", "2,3", "--energy", "4", "--slot-len", "1",
        "--quantum", "1", flag, "-3",
    )
    assert code == 1
    assert out == ""
    assert err == "error: trials must be non-negative, got -3\n"


def test_check_on_large_packets_keeps_stderr_clean(capsys):
    # The curvature determinants overflow to nan here; the probe skips them
    # without a NumPy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "check", "--bits", "1000,1000", "--energy", "1", "--slot-len", "1",
            "--quantum", "1",
        )
    assert code == 0 and err == ""
    rows = _check_rows(out)
    assert rows["convexity"]["trials"] == 1500 and rows["convexity"]["violations"] == 0

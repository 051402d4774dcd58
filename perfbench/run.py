"""The edds benchmark: one seeded workload, checked item by item.

    python3 perfbench/run.py --workload solve-search --seed 1 --seconds 55 --trace 0

With ``--trace 0`` it measures the end-to-end metrics: set-up time over
fresh interpreters, then a closed loop of items (each starts when the
previous one returns) for ``--seconds`` of item time and at least 100 items.
With ``--trace 1`` it runs a fixed item list twice, untraced and then with
spans at every module boundary, and reports per-layer metrics.  Both check
every answer; the last line of stdout is one JSON object.  Run it from the
root of a checkout: the program is imported from ``src/``.
"""

from __future__ import annotations

import os

# One process, one thread: pin every BLAS/OpenMP pool before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import cycle
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "edds" / "__init__.py").is_file():
    sys.exit(f"error: no edds package under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import edds  # noqa: E402

if Path(edds.__file__).resolve().parent != SRC / "edds":
    sys.exit(f"error: imported edds from {edds.__file__}, not from {SRC}")

import tracing  # noqa: E402
import workload as wl  # noqa: E402

MIN_ITEMS = 100  # p90 needs ten samples beyond it
SETUP_RUNS = 7  # fresh interpreters per set-up measurement
RECHECK_ITEMS = 5  # items rerun after the timed loop for the determinism check

# Metric names and units, as BENCHMARK.json declares them.
CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for part in ("end_to_end", "per_layer") for m in CONTRACT[part]}


@dataclass
class Tally:
    """Attempted and failed items, with the reason for each failure."""

    attempted: int = 0
    # attempt number -> (item id, reason); an item recurs when rounds repeat
    failures: dict[int, tuple[str, str]] = field(default_factory=dict)
    wrong: int = 0  # failures where the program returned a wrong answer
    ratio_max: float = 0.0  # worst greedy/oracle ratio seen

    def fail(self, attempt: int, item_id: str, reason: str, wrong: bool) -> None:
        """Record a failure; an attempt that already failed counts once."""
        if attempt not in self.failures:
            self.failures[attempt] = (item_id, reason)
            self.wrong += wrong


def call(item):
    """Run one item; returns (output, error text or None)."""
    try:
        return wl.KINDS[item.kind].run(item.payload), None
    except Exception as exc:  # an item boundary: record the failure, keep going
        return None, f"{type(exc).__name__}: {exc}"


def judge(item, output, error, tally: Tally) -> bool:
    """Count one attempt, numbered from 0, and check its answer; returns True when it passed."""
    attempt = tally.attempted
    tally.attempted += 1
    if error is not None:
        tally.fail(attempt, item.id, error, wrong=False)
        return False
    reason = wl.KINDS[item.kind].check(item.payload, output)
    if reason is not None:
        tally.fail(attempt, item.id, reason, wrong=reason != wl.NONCONVERGED)
        return False
    if item.kind == "sweep":
        tally.ratio_max = max(tally.ratio_max, wl.sweep_ratio(output))
    return True


def fingerprint(output) -> bytes | None:
    """The bytes a rerun of the item must reproduce."""
    return None if output is None else repr(output).encode()


def ready(workload: str, seed: int, rounds: int = wl.ROUNDS) -> list:
    """Everything before timing that follows the import: build the inputs, warm up."""
    items = wl.build(workload, seed, rounds)
    for item in wl.warmup_items(workload):
        call(item)
    return items


def measure_setup(workload: str, seed: int, runs: int) -> float:
    """Median time from interpreter start to ready, over fresh interpreters."""
    times = []
    for _ in range(runs):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe exited {proc.returncode}")
    return statistics.median(times)


def run_end_to_end(workload: str, seed: int, seconds: float,
                   min_items: int = MIN_ITEMS, setup_runs: int = SETUP_RUNS) -> dict:
    """End-to-end metrics: set-up time, then a closed loop of checked items."""
    items = ready(workload, seed)
    setup_s = measure_setup(workload, seed, setup_runs)
    tally = Tally()
    durations: list[float] = []
    recheck: list[tuple] = []
    passed = 0
    busy = 0.0
    for item in cycle(items):
        if busy >= seconds and len(durations) >= min_items:
            break
        start = perf_counter()
        output, error = call(item)
        took = perf_counter() - start
        busy += took
        durations.append(took)
        passed += judge(item, output, error, tally)
        if len(recheck) < RECHECK_ITEMS:
            recheck.append((tally.attempted - 1, item, fingerprint(output)))
    for attempt, item, first in recheck:
        output, _ = call(item)
        if fingerprint(output) != first:
            tally.fail(attempt, item.id, "rerun output differs from the timed run", wrong=True)
    ms = sorted(1e3 * d for d in durations)
    metrics = {
        "setup_s": setup_s,
        "items_per_s": passed / busy,
        "item_ms_p50": statistics.median(ms),
        "item_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"tally": tally, "samples": len(durations), "metrics": metrics}


def run_traced(workload: str, seed: int, count: int | None = None, spans_path=None) -> dict:
    """Per-layer metrics from one round (its first `count` items), run untraced then traced."""
    items = ready(workload, seed, rounds=1)[:count]
    tally = Tally()
    plain = []
    start = perf_counter()
    for item in items:
        output, error = call(item)
        plain.append((output, error))
    plain_s = perf_counter() - start
    for item, (output, error) in zip(items, plain):
        judge(item, output, error, tally)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_s = 0.0
        for attempt, (item, (first, _)) in enumerate(zip(items, plain)):
            tracer.item = item.id
            start = perf_counter()
            output, _ = call(item)
            traced_s += perf_counter() - start
            tracer.item = None
            if fingerprint(output) != fingerprint(first):
                tally.fail(attempt, item.id, "traced output differs from the untraced run", wrong=True)
        # The robustness slice: inputs that have made the solver fail.  They
        # are not items of the workload, so they count neither in `attempted`
        # nor in `failed`; their failures and csolve time are per-layer
        # numbers of their own.
        edges = wl.edge_items(workload)
        edge_failures = []
        for item in edges:
            tracer.item = item.id
            output, error = call(item)
            tracer.item = None
            reason = error or wl.KINDS[item.kind].check(item.payload, output)
            if reason is not None:
                edge_failures.append((item.id, reason))
    finally:
        tracer.uninstall()
    if spans_path is not None:
        tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer.spans, {item.id for item in edges})
    metrics["csolve.edge.failures"] = len(edge_failures)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    metrics["discrete.greedy_ratio_max"] = tally.ratio_max
    return {
        "tally": tally,
        "samples": len(items),
        "metrics": metrics,
        "edge_failures": edge_failures,
    }


def report(workload: str, result: dict) -> str:
    """Human-readable lines, then the one-line JSON result."""
    tally = result["tally"]
    lines = [f"workload {workload}: {result['samples']} timed items"]
    for name, value in result["metrics"].items():
        lines.append(f"  {name:<34} {value:>14.6g} {UNITS[name]}")
    failed = len(tally.failures)
    lines.append(f"  {'fail_ratio':<34} {failed / tally.attempted:>14.6g} 1"
                 f"  ({failed} of {tally.attempted} items)")
    if workload == "discrete-certify":
        lines.append(f"  {'greedy_ratio_max':<34} {tally.ratio_max:>14.6g} 1")
    for item_id, reason in tally.failures.values():
        lines.append(f"  FAIL {item_id}: {reason}")
    for item_id, reason in result.get("edge_failures", ()):
        lines.append(f"  EDGE {item_id}: {reason}")
    doc = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in result["metrics"].items()},
    }
    lines.append(json.dumps(doc))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build inputs, warm up, print 'ready' and exit")
    args = parser.parse_args(argv)
    if args.setup_only:
        ready(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        result = run_traced(args.workload, args.seed,
                            spans_path=out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        result = run_end_to_end(args.workload, args.seed, args.seconds)
    print(report(args.workload, result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Named micro-benchmarks for one checkout of edds, merged into a BENCH json file.

Each case is timed as the least wall time of five runs (after one warm-up
run), next to the work counts that the public outputs give: candidate rows
the oracle scores, probe trials, greedy steps, multiplier steps and orders
solved.  ``--src`` points at any checkout (its ``src/`` is imported), so
the same cases time a parent and a change:

    python bench/run.py --src ../parent --label parent
    python bench/run.py --label change

Each run replaces its label's entry in ``--out`` and keeps the others.
Uses only the standard library and NumPy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

REPEATS = 5


def _oracle_rows(n: int, q: int, slots: int) -> int:
    """Candidates the exhaustive oracle scores: n**J owners times C(q, J) splits."""
    return sum(n**j * math.comb(q, j) for j in range(1, min(q, slots) + 1))


def cases() -> dict:
    """name -> (run, work): run() does the case once, work(result) counts it."""
    from edds.csolve import solve_fixed_order
    from edds.discrete import DiscreteParams, certificate_sweep, greedy_allocate, oracle_allocate
    from edds.model import Instance, Order
    from edds.order import brute_force_order
    from edds.verify import check_convexity

    import numpy as np

    sweep = list(certificate_sweep())
    refs = {"ref1": Instance((15.0, 20.0), 50.0), "ref2": Instance((12.0, 20.0), 20.0)}
    rng = np.random.default_rng([64, 4000])
    greedy_inst = Instance(tuple(rng.uniform(1.0, 25.0, 64).tolist()), 4000.0)
    greedy_params = DiscreteParams(0.5, 1.0, 4000, 4000)
    solve_inst = Instance((3.0, 8.0, 15.0, 24.0), 30.0)
    brute_inst = Instance(tuple(float(b) for b in range(3, 17, 2)), 40.0)

    out = {
        "oracle-sweep": (
            lambda: [oracle_allocate(i, p) for i, p in sweep],
            lambda _: {"instances": len(sweep), "candidate_rows": sum(
                _oracle_rows(i.n, p.budget_quanta, p.max_slots) for i, p in sweep)},
        ),
    }
    for name, inst in refs.items():
        out[f"convexity-{name}-1000"] = (
            lambda inst=inst: check_convexity(inst, Order.identity(2), trials=1000, seed=0),
            lambda rep: {"trials": rep.trials},
        )
    out["greedy-n64-q4000"] = (
        lambda: greedy_allocate(greedy_inst, greedy_params, spend_all=True),
        lambda res: {"steps": len(res[2])},
    )
    out["solve-n4"] = (
        lambda: solve_fixed_order(solve_inst, Order.identity(4)),
        lambda rep: {"multiplier_steps": rep.iterations},
    )
    out["brute-n7"] = (
        lambda: brute_force_order(brute_inst),
        lambda _: {"orders": math.factorial(brute_inst.n)},
    )
    return out


def measure(src: Path) -> dict:
    sys.path.insert(0, str(src / "src"))
    import numpy as np

    results = {}
    for name, (run, work) in cases().items():
        result = run()  # warm-up: caches, imports, allocator
        best = math.inf
        for _ in range(REPEATS):
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        results[name] = {"min_wall_s": round(best, 6), "work": work(result)}
    return {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "repeats": REPEATS,
        "cases": results,
    }


def main(argv=None) -> int:
    here = Path(__file__).resolve().parents[1]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=here, help="checkout to time (default: this one)")
    parser.add_argument("--label", default="change", help="entry name in the output file")
    parser.add_argument("--out", type=Path, default=here / "BENCH_10.json")
    args = parser.parse_args(argv)
    entry = measure(args.src.resolve())
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("runs", {})[args.label] = entry
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, case in entry["cases"].items():
        print(f"{args.label:8s} {name:24s} {case['min_wall_s'] * 1e3:10.2f} ms  {case['work']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

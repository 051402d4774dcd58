"""Named micro-benchmarks for one or more checkouts of edds, merged into a BENCH json file.

Each ``--src`` checkout's ``src/edds`` is imported as its own package, so
its functions keep their own module globals, and all of them are timed in
one process.  Every case runs once per checkout as a warm-up, then
``PASSES`` times, alternating across the checkouts pass by pass (the first
checkout to run rotates each pass), so that drift in the host's speed falls
on all of them alike.  Each label keeps every pass's wall time and their
least, next to the work counts that the public outputs give: the oracle's
step bound (the one its size guard checks), probe trials, subsets a set
probe evaluates, greedy steps, multiplier steps and orders solved.  Time a
parent against a change with

    python bench/run.py --src ../parent --label parent --src . --label change \\
        --out BENCH_14.json

With no ``--src``, this checkout is timed alone, as ``change``.  Each
label's entry in ``--out`` is replaced and the others are kept.  Uses only
the standard library and NumPy.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

PASSES = 9


def load(src: Path, alias: str):
    """Import ``src/src/edds`` as the package ``alias``, with its own submodules."""
    init = src / "src" / "edds" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[alias] = pkg
    spec.loader.exec_module(pkg)  # its relative imports register alias.model, ...
    return pkg


def cases(edds) -> dict:
    """name -> (run, work): run() does the case once, work(result) counts it."""
    import numpy as np

    Instance, Order = edds.model.Instance, edds.model.Order
    DiscreteParams = edds.discrete.DiscreteParams
    greedy_allocate, oracle_allocate = edds.discrete.greedy_allocate, edds.discrete.oracle_allocate
    plan = edds.discrete._oracle_plan  # the DP's step bound

    sweep = list(edds.discrete.certificate_sweep())
    refs = {"ref1": Instance((15.0, 20.0), 50.0), "ref2": Instance((12.0, 20.0), 20.0)}
    solve_inst = Instance((3.0, 8.0, 15.0, 24.0), 30.0)
    rng = np.random.default_rng(64)
    wide_bits = rng.uniform(1.0, 25.0, 64)
    wide_inst = Instance(tuple(wide_bits.tolist()), float(wide_bits.sum()))
    # perfbench's median item: an SPF solve at n = 16, B_i one in each of 16
    # strata of [1, 25], E ~ U[0.5, 4] x sum(B)
    rng16 = np.random.default_rng(16)
    spf_bits = 1.0 + 24.0 * (rng16.permutation(16) + rng16.uniform(0.0, 1.0, 16)) / 16
    spf_inst = Instance(tuple(spf_bits.tolist()), float(rng16.uniform(0.5, 4.0) * spf_bits.sum()))
    search_inst = Instance((3.0, 8.0, 15.0), 26.0)  # perfbench searches n = 2 to 4
    brute_inst = Instance(tuple(float(b) for b in range(3, 17, 2)), 40.0)
    # n = 8: 40320 orders in 8 blocks, the one case whose screen's floor
    # crosses blocks
    brute8_inst = Instance(tuple(float(b) for b in range(3, 19, 2)), 40.0)

    # The sweep's instances with Q > 2, capped at 2 slots: below Q the cap
    # binds, so the DP tracks slots (stride 2S + 1), which the sweep never does.
    capped = [(i, DiscreteParams(p.slot_len, p.quantum, p.budget_quanta, 2))
              for i, p in sweep if p.budget_quanta > 2]
    out = {}
    for name, pairs in (("oracle-sweep", sweep), ("oracle-cap", capped)):
        out[name] = (
            lambda pairs=pairs: [oracle_allocate(i, p) for i, p in pairs],
            lambda _, pairs=pairs: {"instances": len(pairs), "dp_steps": sum(
                plan(i.n, p.budget_quanta, p.max_slots)[0] for i, p in pairs)},
        )
    for name, inst in refs.items():
        out[f"convexity-{name}-1000"] = (
            lambda inst=inst: edds.verify.check_convexity(
                inst, Order.identity(2), trials=1000, seed=0),
            lambda rep: {"trials": rep.trials},
        )
    # Random sizes of 1 to 25 bits, l = 0.5, e = 1; the name without a suffix
    # runs spend_all, "-stop" the default mode.  q100000 is the greedy at scale:
    # a tenth of MAX_QUANTA.
    for name, n, q, spend_all in (
        ("greedy-n64-q4000", 64, 4000, True),
        ("greedy-n64-q100000", 64, 100000, True),
        ("greedy-n256-q5000", 256, 5000, True),
        ("greedy-n256-q5000-stop", 256, 5000, False),
    ):
        rng = np.random.default_rng([n, q])
        inst = Instance(tuple(rng.uniform(1.0, 25.0, n).tolist()), float(q))
        out[name] = (
            lambda inst=inst, params=DiscreteParams(0.5, 1.0, q, q), spend_all=spend_all:
                greedy_allocate(inst, params, spend_all=spend_all),
            lambda res: {"steps": len(res[2])},
        )
    out["greedy-sweep"] = (
        lambda: [greedy_allocate(i, p) for i, p in sweep],
        lambda res: {"instances": len(res), "steps": sum(len(r[2]) for r in res)},
    )
    # Packet 1's full discrete cost (B = 2.5, l = 0.5) over 3 slots x 4 levels
    # cut to 10 cells, the shape of perfbench's cells10 probes, and over
    # 4 slots x 4 levels = 16 cells, both exhaustive.  Work: rows scored and
    # subsets f was evaluated on.
    def cells(count, slots):
        inst = Instance((2.5,), 4.0)
        sf = edds.verify.di_as_set_function(inst, DiscreteParams(0.5, 1.0, 4, slots), 1,
                                            {j: 1 for j in range(1, slots + 1)}, max_level=4)
        return sf.ground[:count], sf.fn

    for name, check, (ground, fn) in (
        ("supermodular-cells10", edds.verify.check_supermodular, cells(10, 3)),
        ("monotone-cells10", edds.verify.check_monotone, cells(10, 3)),
        ("supermodular-16-exhaustive", edds.verify.check_supermodular, cells(16, 4)),
    ):
        def run(check=check, ground=ground, fn=fn):
            calls = []
            counted = edds.verify.SetFunction(ground, lambda s: calls.append(None) or fn(s))
            return check(counted, exhaustive=True), len(calls)

        out[name] = (run, lambda res: {"trials": res[0].trials, "subsets": res[1]})
    for name, inst, order in (("solve-n4", solve_inst, Order.identity(4)),
                              ("solve-n64", wide_inst, Order.identity(64)),
                              ("solve-spf-n16", spf_inst, edds.order.spf_order(spf_inst))):
        out[name] = (
            lambda inst=inst, order=order: edds.csolve.solve_fixed_order(inst, order),
            lambda rep: {"multiplier_steps": rep.iterations},
        )
    for name, inst in (("brute-n3", search_inst), ("brute-n7", brute_inst),
                       ("brute-n8", brute8_inst)):
        out[name] = (
            lambda inst=inst: edds.order.brute_force_order(inst),
            lambda res, inst=inst: {"orders": math.factorial(inst.n),
                                    "multiplier_steps": res[1].iterations},
        )
    return out


def measure(srcs: list[Path], labels: list[str]) -> dict:
    """label -> entry, every case timed across the checkouts pass by pass."""
    import numpy as np

    trees = [cases(load(src, f"_edds_bench{k}")) for k, src in enumerate(srcs)]
    host = {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}
    entries = {label: {"host": host, "passes": PASSES, "interleaved_with": labels,
                       "cases": {}} for label in labels}
    for name in trees[0]:
        for label, tree in zip(labels, trees):
            run, work = tree[name]
            result = run()  # warm-up: caches, imports, allocator
            entries[label]["cases"][name] = {"walls_s": [], "work": work(result)}
    for p in range(PASSES):
        for name in trees[0]:
            for j in range(len(trees)):
                k = (j + p) % len(trees)
                run = trees[k][name][0]
                start = time.perf_counter()
                run()
                wall = time.perf_counter() - start
                entries[labels[k]]["cases"][name]["walls_s"].append(round(wall, 6))
    for entry in entries.values():
        for case in entry["cases"].values():
            case["min_wall_s"] = min(case["walls_s"])
    return entries


def main(argv=None) -> int:
    here = Path(__file__).resolve().parents[1]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, action="append",
                        help="checkout to time; repeat to interleave (default: this one)")
    parser.add_argument("--label", action="append",
                        help="entry name in the output file, one per --src (default: change)")
    parser.add_argument("--out", type=Path, required=True, help="BENCH json file to update")
    args = parser.parse_args(argv)
    srcs = [s.resolve() for s in args.src or [here]]
    labels = args.label or ["change"]
    if len(labels) != len(srcs) or len(set(labels)) != len(labels):
        parser.error("give one distinct --label per --src")
    entries = measure(srcs, labels)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("runs", {}).update(entries)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name in entries[labels[0]]["cases"]:
        for label in labels:
            case = entries[label]["cases"][name]
            print(f"{label:8s} {name:24s} {case['min_wall_s'] * 1e3:10.2f} ms  {case['work']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

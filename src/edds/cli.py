"""Command-line front end.

Subcommands: ``solve`` (continuous solver, optional order search), ``sweep``
(CSV experiment grids), ``discrete`` (greedy resource-block allocation),
``oracle`` (exact optimum plus greedy/optimal ratio) and ``check``
(property probes).  All output is deterministic given the flags and seeds.

Exit codes: 0 success, 1 usage or invalid input, 2 solver non-convergence
(with one ``warning:`` line on stderr), 3 greedy/oracle ratio above the
certified bound, 141 (128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .model import DomainError, Instance, Order, T_MIN, instance_from_doc, shannon_bits
from .csolve import GAP_TOL, SolveReport, solve_fixed_order
from .order import brute_force_order, spf_order
from .discrete import DiscreteParams, greedy_allocate, oracle_allocate, trace_to_csv
from .verify import (
    SetFunction,
    check_convexity,
    check_ground_size,
    check_monotone,
    check_supermodular,
    di_as_set_function,
)

RATIO_BOUND = 2.0
# A start:stop:step grid of more points than this is refused before it is built.
MAX_GRID_POINTS = 1_000_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with code 2."""

    def error(self, message):
        raise _UsageError(message)


def _parse_list(text: str, kind=float) -> tuple:
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError:
        noun = "numbers" if kind is float else "integers"
        raise _UsageError(f"expected a comma-separated list of {noun}, got {text!r}")


def _parse_range(text: str) -> list[float]:
    """'start:stop:step' -> inclusive grid values."""
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"expected numeric start:stop:step, got {text!r}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise _UsageError(f"start, stop and step must be finite in {text!r}")
    if step <= 0 or stop < start:
        raise _UsageError(f"need step > 0 and stop >= start in {text!r}")
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:  # also inf, where stop - start overflows
        raise _UsageError(f"{text!r} has more than {MAX_GRID_POINTS} points")
    count = int(math.floor(span)) + 1
    return [start + k * step for k in range(count)]


def _config(args, need=("bits", "energy")) -> dict:
    """The config file's fields with the flags given merged over them; each
    field in ``need`` must come from one or the other."""
    doc = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise _UsageError("config must be a JSON object")
    flags = {
        "bits": list(_parse_list(args.bits)) if args.bits else None,
        "energy": args.energy,
        "slot_len": getattr(args, "slot_len", None),
        "quantum": getattr(args, "quantum", None),
    }
    doc.update((k, v) for k, v in flags.items() if v is not None)
    for key in need:
        if key not in doc:
            raise _UsageError(f"need --{key.replace('_', '-')} (flag or config)")
    return doc


def _emit_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _unconverged(what: str) -> int:
    """Exit code 2, after one stderr line on what missed GAP_TOL."""
    sys.stderr.write(f"warning: {what} above the tolerance {GAP_TOL:g}\n")
    return 2


# ---------------------------------------------------------------------------
# solve


def _solve(args, inst: Instance) -> SolveReport:
    """Solve in the --order given, or the one --search picks (default identity)."""
    if args.search == "brute":
        return brute_force_order(inst)[1]
    if args.order is not None:
        order = Order(_parse_list(args.order, int))
    elif args.search == "spf":
        order = spf_order(inst)
    else:
        order = Order.identity(inst.n)
    return solve_fixed_order(inst, order)


def cmd_solve(args) -> int:
    inst, _ = instance_from_doc(_config(args))
    report = _solve(args, inst)
    out = {"instance": inst.to_doc(), "search": args.search}
    out.update(report.to_doc())
    _emit_json(out)
    if report.converged:
        return 0
    return _unconverged(f"not converged after {report.iterations} multiplier steps: "
                        f"relative duality gap {report.duality_gap:.3g}")


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    if args.surface:
        return _sweep_surface(args)
    if not args.fix or not args.vary:
        raise _UsageError("sweep needs either --surface or both --fix and --vary")
    fix_name, _, fix_val = args.fix.partition("=")
    vary_name, _, vary_range = args.vary.partition("=")
    if {fix_name, vary_name} != {"B1", "B2"}:
        raise _UsageError("--fix/--vary must name B1 and B2, one each")
    try:
        fixed = float(fix_val)
    except ValueError:
        raise _UsageError(f"expected {fix_name}=<number>, got {args.fix!r}")
    values = _parse_range(vary_range)
    doc = _config(args, need=("energy",))
    lines = [f"{vary_name},bhat1,bhat2,total"]
    bad = 0
    for v in values:
        bits = (fixed, v) if vary_name == "B2" else (v, fixed)
        inst, _ = instance_from_doc({**doc, "bits": list(bits)})
        report = _solve(args, inst)
        bad += not report.converged
        b1, b2 = report.cost.bhat
        lines.append(f"{v!r},{b1!r},{b2!r},{report.cost.total!r}")
    sys.stdout.write("\n".join(lines) + "\n")
    return _unconverged(f"{bad} of {len(values)} points did not converge: "
                        "relative duality gap") if bad else 0


def _distortion(packet: int, undelivered: float, e1: float, t1: float) -> float:
    """2**undelivered, refused with the packet named where float64 overflows."""
    try:
        return 2.0 ** undelivered
    except OverflowError:
        raise DomainError(f"packet {packet}: the distortion 2**{undelivered:.6g} at "
                          f"e1={e1!r}, t1={t1!r} overflows float64") from None


def _sweep_surface(args) -> int:
    inst, _ = instance_from_doc(_config(args))
    if inst.n != 2:
        raise _UsageError("--surface expects exactly two packets")
    energy = inst.energy
    b1, b2 = inst.bits
    e_grid = (
        _parse_range(args.grid_e)
        if args.grid_e
        else [k * energy / 25.0 for k in range(26)]
    )
    t_grid = (
        _parse_range(args.grid_t)
        if args.grid_t
        else [0.1 + 0.4 * k for k in range(25)]
    )
    if t_grid[0] < T_MIN:
        raise _UsageError(f"--grid-t must start at or above t_min={T_MIN}")
    lines = ["e1,t1,u1,u2"]
    bad = 0
    for e1 in e_grid:
        if e1 < 0 or e1 > energy + 1e-12:
            raise _UsageError("--grid-e must stay within [0, energy]")
        e2 = energy - e1
        if e2 > 0:
            # The tail subproblem (packet 2 alone with the leftover energy)
            # fixes t2 and bhat2 for this column of the surface.
            try:
                rep = solve_fixed_order(Instance((b2,), e2), Order.identity(1))
            except DomainError as exc:  # it names its only packet "packet 1"
                _, _, why = str(exc).partition(": ")
                raise DomainError(f"packet 2: {why}") from None
            bad += not rep.converged
            t2 = rep.alloc.times[0]
            bhat2 = rep.cost.bhat[0]
        else:
            t2, bhat2 = T_MIN, 0.0
        for t1 in t_grid:
            u1 = _distortion(1, b1 - shannon_bits(e1, t1), e1, t1) + t1
            u2 = _distortion(2, b2 - bhat2, e1, t1) + t1 + t2
            lines.append(f"{e1!r},{t1!r},{u1!r},{u2!r}")
    sys.stdout.write("\n".join(lines) + "\n")
    return _unconverged(f"{bad} of {len(e_grid)} columns did not converge: "
                        "relative duality gap") if bad else 0


# ---------------------------------------------------------------------------
# discrete / oracle


def _discrete_inputs(args) -> tuple[Instance, DiscreteParams]:
    inst, extras = instance_from_doc(_config(args, need=("bits", "energy", "slot_len", "quantum")))
    params = DiscreteParams.for_instance(
        inst, float(extras["slot_len"]), float(extras["quantum"]), max_slots=args.max_slots
    )
    return inst, params


def cmd_discrete(args) -> int:
    inst, params = _discrete_inputs(args)
    alloc, cost, trace = greedy_allocate(inst, params, spend_all=args.spend_all)
    _emit_json({"allocation": alloc.to_doc(), "cost": cost.to_doc()})
    sys.stdout.write("\n" + trace_to_csv(trace))
    return 0


def cmd_oracle(args) -> int:
    inst, params = _discrete_inputs(args)
    opt_alloc, opt_cost = oracle_allocate(inst, params)
    g_alloc, g_cost, _ = greedy_allocate(inst, params, spend_all=args.spend_all)
    ratio = g_cost.total / opt_cost.total
    _emit_json(
        {
            "oracle": {"allocation": opt_alloc.to_doc(), "cost": opt_cost.to_doc()},
            "greedy": {"allocation": g_alloc.to_doc(), "cost": g_cost.to_doc()},
            "ratio": ratio,
        }
    )
    return 3 if ratio > RATIO_BOUND + 1e-12 else 0


# ---------------------------------------------------------------------------
# check


def _render_table(reports) -> str:
    header = f"{'property':<16}{'trials':>8}{'violations':>12}  {'margin':<14}witness"
    lines = [header]
    for rep in reports:
        if rep.worst_witness is None:
            witness = "-"
        else:
            witness = json.dumps(rep.to_doc()["worst_witness"])
            if len(witness) > 60:
                witness = witness[:57] + "..."
        lines.append(
            f"{rep.name:<16}{rep.trials:>8}{rep.violations:>12}  {rep.margin:<14.6g}{witness}"
        )
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    inst, params = _discrete_inputs(args)
    if not 1 <= args.packet <= inst.n:
        raise _UsageError(f"--packet must lie in 1..{inst.n}")
    cells = args.ground_set
    check_ground_size(cells)  # before any cell or bit table is built
    if args.check_slots < 1:
        raise _UsageError(f"--check-slots must be at least 1, got {args.check_slots}")
    slots = min(params.max_slots, args.check_slots, cells)  # 0 gives an empty ground set
    levels = math.ceil(cells / slots) if slots else 0
    base = DiscreteParams(params.slot_len, params.quantum, params.budget_quanta, slots)
    ownership = {j: args.packet for j in range(1, slots + 1)}
    sf = di_as_set_function(
        inst,
        base,
        args.packet,
        ownership,
        max_level=levels,
        distortion_only=args.distortion_only,
        greedy_reachable=args.greedy_reachable,
    )
    sf = SetFunction(sf.ground[:cells], sf.fn)
    exhaustive = True if args.exhaustive else None
    reports = [
        check_monotone(sf, trials=args.trials, seed=args.seed, exhaustive=exhaustive),
        check_supermodular(sf, trials=args.trials, seed=args.seed, exhaustive=exhaustive),
        check_convexity(
            inst, Order.identity(inst.n), trials=args.convexity_trials, seed=args.seed
        ),
    ]
    sys.stdout.write(_render_table(reports))
    return 0


# ---------------------------------------------------------------------------


@functools.cache  # built once per process; parse_args keeps no state in it
def _build_parser() -> _Parser:
    parser = _Parser(prog="edds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def instance_flags(p):
        p.add_argument("--bits", help="comma-separated packet sizes in bits")
        p.add_argument("--energy", type=float, help="total energy budget in joules")
        p.add_argument("--config", help="JSON file with bits, energy, slot_len and quantum")

    def order_flags(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--order", help="explicit positions pi(1..n), e.g. 1,2")
        group.add_argument("--search", choices=("brute", "spf"), help="order search strategy")

    p = sub.add_parser("solve", help="solve the continuous problem")
    instance_flags(p)
    order_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="CSV experiment grids")
    instance_flags(p)
    p.add_argument("--fix", help="held coordinate, e.g. B1=15")
    p.add_argument("--vary", help="swept coordinate, e.g. B2=1:30:1")
    order_flags(p)
    p.add_argument("--surface", action="store_true", help="emit the (E1,t1) cost surface")
    p.add_argument("--grid-e", dest="grid_e", help="surface energy grid start:stop:step")
    p.add_argument("--grid-t", dest="grid_t", help="surface time grid start:stop:step")
    p.set_defaults(func=cmd_sweep)

    def discrete_flags(p):
        instance_flags(p)
        p.add_argument("--slot-len", dest="slot_len", type=float, help="slot length in seconds")
        p.add_argument("--quantum", type=float, help="energy quantum in joules")
        p.add_argument("--max-slots", dest="max_slots", type=int,
                       help="most slots an allocation may occupy (default: the quanta budget Q)")

    def greedy_flags(p):
        discrete_flags(p)
        p.add_argument("--spend-all", dest="spend_all", action="store_true",
                       help="keep spending quanta even when no move improves")

    p = sub.add_parser("discrete", help="greedy resource-block allocation")
    greedy_flags(p)
    p.set_defaults(func=cmd_discrete)

    p = sub.add_parser("oracle", help="exact optimum and greedy ratio")
    greedy_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("check", help="property probes")
    discrete_flags(p)
    p.add_argument("--packet", type=int, default=1, help="packet whose cost is probed")
    p.add_argument("--ground-set", dest="ground_set", type=int, default=6,
                   help="number of resource cells in the set-function ground set")
    p.add_argument("--check-slots", dest="check_slots", type=int, default=3,
                   help="slots the ground set spreads over")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--convexity-trials", dest="convexity_trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true",
                   help="force exhaustive enumeration of the set-function checks")
    p.add_argument("--greedy-reachable", dest="greedy_reachable", action="store_true",
                   help="count only contiguous level prefixes as loaded quanta")
    p.add_argument("--distortion-only", dest="distortion_only", action="store_true",
                   help="drop the delay term from the probed set function")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader is gone: end quietly, as a process SIGPIPE killed would,
        # and keep the interpreter's flush at exit off the closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (_UsageError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

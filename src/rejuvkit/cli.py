"""Command line interface.

Exit codes: 0 success, 1 validation-battery failure, 2 configuration
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import ConfigError, bundled_config_names, load_config
from .model import STATES, TRIGGER_SIDES
from .numerics import ReducibleChainError
from .simulator import SimConfig
from .toolkit import SweepSpec, rows_to_csv, run_analyze, run_simulate, run_sweep, run_validate

# quadrature, consistency and divergence errors are ArithmeticErrors
_NUMERICAL_ERRORS = (ReducibleChainError, ArithmeticError, np.linalg.LinAlgError)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rejuvkit",
        description=(
            "Availability, MTTF and completion-time analysis of a container service "
            "under OS aging with migration/reboot rejuvenation."
        ),
        epilog="Bundled configs (usable as --config NAME): " + ", ".join(bundled_config_names()),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analytic metrics for one configuration")
    analyze.add_argument("--config", required=True)
    analyze.add_argument("--out", help="CSV output path")

    sweep = sub.add_parser("sweep", help="grid sweep of one variable with optimum location")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--var", required=True, help="trigger_interval, fixing_mean, or a dotted config path")
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--step", type=float, required=True)
    sweep.add_argument("--metrics", default="availability,mttf", help="comma list: availability,mttf,completion")
    sweep.add_argument("--refine", action="store_true", help="place an interior optimum between grid points")
    sweep.add_argument("--tie", default="all", choices=("all", *TRIGGER_SIDES))
    sweep.add_argument("--out", help="CSV output path")

    simulate = sub.add_parser("simulate", help="Monte Carlo cross-validation of the analytic values")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--reps", type=int, required=True)
    simulate.add_argument("--seed", type=int, required=True)
    simulate.add_argument("--horizon", type=float, default=1e5)
    simulate.add_argument("--warmup", type=float, default=0.0)
    simulate.add_argument("--metrics", default="availability,mttf")
    simulate.add_argument("--triggers", help="comma list of trigger intervals to compare at")
    simulate.add_argument("--out", help="CSV output path")

    validate = sub.add_parser("validate", help="model-consistency battery")
    validate.add_argument("--config", required=True)
    return parser


def _emit(csv_text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)


def _cmd_analyze(args):
    cfg = load_config(args.config)
    report, rows = run_analyze(cfg)
    print(f"availability      {report.availability:.10f}")
    print(f"mttf              {report.mttf:.4f} h")
    if report.completion_time is not None:
        print(f"completion time   {report.completion_time:.4f} h")
    print("state probabilities (long-run fraction of time):")
    for state, value in zip(STATES, report.pi):
        print(f"  {state.index:>2} {state.label:7} {value:.6e}")
    print("expected visits before first failure (no-repair chain):")
    for state, value in zip(STATES[:10], () if report.visits is None else report.visits):
        print(f"  {state.index:>2} {state.label:7} {value:.6f}")
    _emit(rows_to_csv(rows), args.out)
    return 0


def _cmd_sweep(args):
    cfg = load_config(args.config)
    spec = SweepSpec(
        variable=args.var,
        start=args.start,
        stop=args.stop,
        step=args.step,
        metrics=tuple(m.strip() for m in args.metrics.split(",") if m.strip()),
        tie=args.tie,
        refine=args.refine,
    )
    rows, optima = run_sweep(cfg, spec)
    for metric, record in optima.items():
        kind = "min" if metric == "completion" else "max"
        tag = " (refined)" if record["refined"] else ""
        print(
            f"optimum {metric}: {kind} {record['optimum']:.10g} "
            f"at {spec.variable} = {record['value']:.10g}{tag}"
        )
    _emit(rows_to_csv(rows), args.out)
    return 0


def _cmd_simulate(args):
    cfg = load_config(args.config)
    sim = SimConfig(replications=args.reps, seed=args.seed, horizon=args.horizon, warmup=args.warmup)
    metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    triggers = None
    if args.triggers:
        triggers = [float(t) for t in args.triggers.split(",") if t.strip()]
    rows, agreement = run_simulate(cfg, sim, metrics, triggers)
    for entry in agreement:
        est = entry["estimate"]
        flag = "agree" if entry["agree"] else "DISAGREE"
        extra = f" ({est.truncated} truncated)" if est.truncated else ""
        print(
            f"{entry['metric']:<13} trigger {entry['trigger']:>6}: analytic {entry['analytic']:.6g} "
            f"sim {est.mean:.6g} CI [{est.ci_low:.6g}, {est.ci_high:.6g}] -> {flag}{extra}"
        )
    _emit(rows_to_csv(rows), args.out)
    return 0


def _cmd_validate(args):
    cfg = load_config(args.config)
    results = run_validate(cfg)
    failed = False
    for name, status, detail in results:
        print(f"{status.upper():<5} {name}" + (f" - {detail}" if detail else ""))
        failed = failed or status == "FAIL"
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "sweep": _cmd_sweep,
        "simulate": _cmd_simulate,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

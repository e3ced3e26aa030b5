"""Write ``reference.json``: the analytic outputs the correctness gate expects.

Run from the repository root::

    python3 perfbench/snapshot.py

It records, for every bundled config and for each point of the
51-point ``preset_f_hypo`` trigger sweep, availability, MTTF and the
completion time by the default route and by ``method="analytic"``, plus
the sweep's refined optima.  Re-run it only for an intended change of
results, and list the old and new values in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rejuvkit import analysis, config, toolkit  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402


def point(cfg):
    report = analysis.metrics_report(cfg.params, cfg.workload)
    return {
        "availability": report.availability,
        "mttf": report.mttf,
        "completion": report.completion_time,
        "completion_analytic": analysis.completion_time(
            cfg.params, cfg.workload, method="analytic"
        ),
    }


def main():
    configs = {name: point(config.load_config(name)) for name in config.bundled_config_names()}

    base = config.load_config(workloads.SWEEP_CONFIG)
    spec = toolkit.SweepSpec(
        "trigger_interval", *workloads.SWEEP_GRID, metrics=workloads.METRICS, refine=True
    )
    grid = spec.grid()
    _, optima = toolkit.run_sweep(base, spec)
    points = [point(toolkit.apply_variable(base, "trigger_interval", v)) for v in grid]
    best = {}
    for metric, record in optima.items():
        at = point(toolkit.apply_variable(base, "trigger_interval", record["value"]))
        at[metric] = record["optimum"]
        best[metric] = {"value": record["value"], "refined": record["refined"], "point": at}

    ref = {
        "configs": configs,
        "sweep": {"config": workloads.SWEEP_CONFIG, "grid": grid, "points": points, "optima": best},
    }
    gate.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {gate.REFERENCE}")


if __name__ == "__main__":
    main()

"""Batch drivers: analyze / sweep / simulate / validate, with CSV output.

One CSV schema serves every run type::

    variable,value,metric,analytic,sim_mean,ci_low,ci_high

Analytic-only rows leave the simulation columns empty.  Sweep rows carry
the swept variable and grid value; plot the CSV with any tool.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from . import ctmc
from .analysis import completion_lsts, completion_time, metrics_report
from .config import ConfigError, RunConfig
from .distributions import Distribution, Exponential, to_json
from .model import KERNEL_TARGETS, TRIGGER_SIDES, TRIGGERS, validate
from .simulator import SimConfig, simulate_availability, simulate_completion, simulate_mttf

__all__ = [
    "CSV_HEADER",
    "SweepSpec",
    "run_analyze",
    "run_sweep",
    "run_simulate",
    "run_validate",
    "rows_to_csv",
    "fixing_time_table",
]

CSV_HEADER = ("variable", "value", "metric", "analytic", "sim_mean", "ci_low", "ci_high")
METRICS = ("availability", "mttf", "completion")
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepSpec:
    """Grid sweep of one scalar knob.

    ``variable`` is ``trigger_interval``, ``fixing_mean``, or a dotted
    config path (e.g. ``branch.c1`` or ``triggers.a1``).  ``tie`` chooses
    which triggers a ``trigger_interval`` sweep moves: every trigger
    (``all``), only the primary-side ones (``primary``), or only the
    backup-side ones (``backup``).  A spec is checked when it is built
    and raises :class:`ConfigError`.
    """

    variable: str
    start: float
    stop: float
    step: float
    metrics: tuple = ("availability", "mttf")
    tie: str = "all"
    refine: bool = False

    def __post_init__(self):
        if not self.start <= self.stop:
            raise ConfigError(f"sweep start {self.start} must be <= stop {self.stop}")
        if not self.step > 0:
            raise ConfigError(f"sweep step must be positive, got {self.step}")
        if (self.stop - self.start) / self.step > 1e6:
            raise ConfigError("sweep grid exceeds 1e6 points")
        bad = [m for m in self.metrics if m not in METRICS]
        if bad:
            raise ConfigError(f"unknown metrics {bad} (known: {list(METRICS)})")
        if self.tie not in ("all", *TRIGGER_SIDES):
            raise ConfigError(f"tie mode must be all/primary/backup, got {self.tie!r}")

    def grid(self):
        n = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [self.start + i * self.step for i in range(n)]


def apply_variable(cfg: RunConfig, variable: str, value: float, tie: str = "all") -> RunConfig:
    """Config with the swept variable set to ``value``."""
    if variable == "trigger_interval":
        moved = TRIGGERS if tie == "all" else TRIGGER_SIDES[tie]
        try:
            params = replace(cfg.params, **{k: float(value) for k in moved})
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # the unmoved triggers keep their values; raw can hold only numbers
        triggers = {k: getattr(params, k) for k in TRIGGERS}
        numeric = {k: v for k, v in triggers.items() if not isinstance(v, Distribution)}
        return replace(cfg, params=params, raw={**cfg.raw, "triggers": numeric})
    if variable == "fixing_mean":
        if value <= 0:
            raise ConfigError(f"fixing_mean must be positive, got {value}")
        return cfg.with_overrides(
            {
                "distributions.fixing_primary": to_json(cfg.params.fixing_primary.with_mean(value)),
                "distributions.fixing_backup": to_json(cfg.params.fixing_backup.with_mean(value)),
            }
        )
    return cfg.with_overrides({variable: value})


def _evaluate(cfg: RunConfig, metrics) -> dict:
    want_completion = "completion" in metrics
    if want_completion and cfg.workload is None:
        raise ConfigError("completion metric requested but the config has no workload block")
    values = {}
    if set(metrics) - {"completion"}:
        report = metrics_report(cfg.params)
        values.update(availability=report.availability, mttf=report.mttf)
    if want_completion:
        values["completion"] = completion_time(cfg.params, cfg.workload)
    return {m: values[m] for m in metrics}


def run_analyze(cfg: RunConfig):
    """(MetricsReport, CSV rows) for a single configuration."""
    report = metrics_report(cfg.params, cfg.workload)
    trigger = cfg.params.a1 if isinstance(cfg.params.a1, (int, float)) else float("nan")
    rows = [
        ("trigger_interval", trigger, "availability", report.availability, "", "", ""),
        ("trigger_interval", trigger, "mttf", report.mttf, "", "", ""),
    ]
    if report.completion_time is not None:
        rows.append(("trigger_interval", trigger, "completion", report.completion_time, "", "", ""))
    return report, rows


def _refine_golden(f, lo, hi, minimise, iterations=48):
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    sign = 1.0 if minimise else -1.0
    for _ in range(iterations):
        if sign * f1 < sign * f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        if b - a < 1e-9 * max(1.0, abs(b)):
            break
    x = 0.5 * (a + b)
    return x, f(x)


def run_sweep(cfg: RunConfig, spec: SweepSpec):
    """(CSV rows, optimum records) over the sweep grid.

    The optimum maximises availability/MTTF and minimises completion
    time, breaking ties toward the smaller grid value.  With
    ``spec.refine`` a golden-section pass between the bracketing grid
    points sharpens the reported optimum.
    """
    grid = spec.grid()
    rows = []
    series = {m: [] for m in spec.metrics}
    for value in grid:
        point = apply_variable(cfg, spec.variable, value, spec.tie)
        metrics = _evaluate(point, spec.metrics)
        for m in spec.metrics:
            rows.append((spec.variable, value, m, metrics[m], "", "", ""))
            series[m].append(metrics[m])

    optima = {}
    for m in spec.metrics:
        vals = series[m]
        minimise = m == "completion"
        best = min(range(len(vals)), key=lambda i: (vals[i] if minimise else -vals[i], grid[i]))
        record = {
            "variable": spec.variable,
            "metric": m,
            "value": grid[best],
            "optimum": vals[best],
            "refined": False,
        }
        if spec.refine and 0 < best < len(grid) - 1:

            def f(v, _m=m):
                point = apply_variable(cfg, spec.variable, v, spec.tie)
                return _evaluate(point, (_m,))[_m]

            x, fx = _refine_golden(f, grid[best - 1], grid[best + 1], minimise)
            record.update(value=x, optimum=fx, refined=True)
        optima[m] = record
    return rows, optima


def run_simulate(cfg: RunConfig, sim: SimConfig, metrics=("availability", "mttf"), triggers=None):
    """(CSV rows, agreement flags): analytic value vs simulation CI per metric.

    ``triggers`` optionally re-runs the comparison over a list of
    trigger-interval values (one block of rows per value).
    """
    bad = [m for m in metrics if m not in METRICS]
    if bad:
        raise ConfigError(f"unknown metrics {bad} (known: {list(METRICS)})")
    points = [None] if triggers is None else list(triggers)
    rows = []
    agreement = []
    for point in points:
        at = cfg if point is None else apply_variable(cfg, "trigger_interval", point, "all")
        trigger = at.params.a1
        analytic = _evaluate(at, metrics)
        for m in metrics:
            if m == "availability":
                est = simulate_availability(at.params, sim)
            elif m == "mttf":
                est = simulate_mttf(at.params, sim)
            else:
                est = simulate_completion(at.params, at.workload, sim)
            rows.append(
                ("trigger_interval", trigger, m, analytic[m], est.mean, est.ci_low, est.ci_high)
            )
            agreement.append(
                {
                    "metric": m,
                    "trigger": trigger,
                    "analytic": analytic[m],
                    "estimate": est,
                    "agree": est.contains(analytic[m]),
                }
            )
    return rows, agreement


def fixing_time_table(cfg: RunConfig, fixing_means, trigger_grid, metrics=("availability", "mttf")):
    """Optimum trigger per fixing mean (the fixing-time sensitivity study)."""
    records = []
    for mean in fixing_means:
        base = apply_variable(cfg, "fixing_mean", mean)
        spec = SweepSpec(
            "trigger_interval",
            trigger_grid[0],
            trigger_grid[-1],
            trigger_grid[1] - trigger_grid[0],
            metrics=tuple(metrics),
        )
        _, optima = run_sweep(base, spec)
        records.append({"fixing_mean": mean, "optima": optima})
    return records


def run_validate(cfg: RunConfig):
    """Model-consistency battery; list of (check, status, detail)."""
    results = []

    def record(name, ok, detail=""):
        results.append((name, "pass" if ok else "FAIL", detail))

    problems = validate(cfg.params)
    record("parameter-invariants", not problems, "; ".join(problems))

    try:
        report = metrics_report(cfg.params)
    except Exception as exc:  # noqa: BLE001 - battery reports, never raises
        record("kernel-construction", False, f"{type(exc).__name__}: {exc}")
        return results
    P, v, h = report.kernel, report.stationary, report.sojourn
    gap = float(np.abs(P.sum(axis=1) - 1.0).max())
    record("kernel-row-sums", gap <= 1e-12, f"max deviation {gap:.2e}")
    off_pattern = max(
        abs(P[i, j]) for i in range(12) for j in range(12) if j not in KERNEL_TARGETS[i]
    )
    record("kernel-sparsity", off_pattern == 0.0, f"max off-pattern mass {off_pattern:.2e}")
    resid = float(np.abs(v - v @ P).max())
    record("stationary-residual", resid <= 1e-10, f"residual {resid:.2e}")
    record(
        "sojourn-times",
        bool(np.all(np.isfinite(h)) and np.all(h >= 0.0) and h.sum() > 0.0),
        f"range [{h.min():.3g}, {h.max():.3g}] h",
    )

    if cfg.workload is not None:
        # resolving the cases checks A(0) + B(0) = 1 for each of them
        try:
            phi1, phi2 = completion_lsts(cfg.params, cfg.workload, 0.0)
            record("completion-conservation", True, f"phi(0) = {phi1!r}, {phi2!r}")
        except Exception as exc:  # noqa: BLE001
            record("completion-conservation", False, f"{type(exc).__name__}: {exc}")
    else:
        results.append(("completion-conservation", "skip", "no workload block"))

    # degenerate branches and exponential stand-ins for the trigger steps
    # make the chain an exact CTMC when its remaining laws are exponential;
    # compares the two engines
    try:
        oracle = replace(
            cfg.params,
            c1=1.0,
            c2=0.0,
            c3=0.0,
            **{
                k: Exponential(1.0 / max(float(getattr(cfg.params, k)), 1e-6))
                for k in TRIGGERS
            },
        )
        a_ct = ctmc.availability_ctmc(oracle)
        m_ct = ctmc.mttf_ctmc(oracle)
        smp = metrics_report(oracle)
        a_gap, m_gap = abs(smp.availability - a_ct), abs(smp.mttf - m_ct) / m_ct
        record(
            "ctmc-oracle",
            a_gap <= 1e-6 and m_gap <= 1e-3,
            f"availability gap {a_gap:.2e}, mttf gap {m_gap:.2e}",
        )
    except ctmc.CtmcNotApplicable as exc:
        results.append(("ctmc-oracle", "skip", str(exc)))
    except Exception as exc:  # noqa: BLE001
        record("ctmc-oracle", False, f"{type(exc).__name__}: {exc}")
    return results


def rows_to_csv(rows) -> str:
    """Render rows under the common header with stable formatting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    return buf.getvalue()


def _fmt(cell):
    if isinstance(cell, float):
        return f"{cell:.12g}"
    return cell

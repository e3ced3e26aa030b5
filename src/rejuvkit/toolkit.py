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
from .analysis import (
    CompletionNotApplicable, _completion_times, _reports, completion_lsts, metrics_report
)
from .config import ConfigError, RunConfig
from .distributions import Exponential
from .model import TRIGGER_SIDES, TRIGGERS, _trigger
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
_BATCH = 1024  # sweep points per batched pass: bounds the memory of a wide grid


def _check_metrics(metrics):
    """Raise :class:`ConfigError` unless ``metrics`` lists known metrics, each once."""
    if not metrics or len(set(metrics)) < len(metrics) or not set(metrics) <= set(METRICS):
        raise ConfigError(
            f"metrics {list(metrics)}: list one or more of {list(METRICS)}, none twice"
        )


@dataclass(frozen=True)
class SweepSpec:
    """Grid sweep of one scalar knob.

    ``variable`` is ``trigger_interval``, ``fixing_mean``, or a dotted
    config path (e.g. ``triggers.a1`` or ``workload.x``).  The branch
    paths ``branch.cK`` must be set together, through
    :meth:`RunConfig.with_overrides`, so a sweep of one of them fails
    the simplex check.  ``tie`` chooses which triggers a
    ``trigger_interval`` sweep moves: every trigger (``all``), only the
    primary-side ones (``primary``), or only the backup-side ones
    (``backup``).  ``refine`` sharpens an interior optimum from the grid
    values at the cost of one more evaluation per metric (see
    :func:`run_sweep`).  A spec is checked when it is built and raises
    :class:`ConfigError`.
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
        _check_metrics(self.metrics)
        if self.tie not in ("all", *TRIGGER_SIDES):
            raise ConfigError(f"tie mode must be all/primary/backup, got {self.tie!r}")
        if self.tie != "all" and self.variable != "trigger_interval":
            raise ConfigError(f"tie mode {self.tie!r} applies only to trigger_interval")

    def grid(self):
        n = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [self.start + i * self.step for i in range(n)]


def apply_variable(cfg: RunConfig, variable: str, value: float, tie: str = "all") -> RunConfig:
    """Config with the swept variable set to ``value`` by
    :meth:`RunConfig.with_overrides`."""
    if variable == "trigger_interval":
        return cfg.with_overrides({f"triggers.tied_{tie}": value})
    if variable == "fixing_mean":
        if value <= 0:
            raise ConfigError(f"fixing_mean must be positive, got {value}")
        return cfg.with_overrides(
            {
                "distributions.fixing_primary": cfg.params.fixing_primary.with_mean(value),
                "distributions.fixing_backup": cfg.params.fixing_backup.with_mean(value),
            }
        )
    return cfg.with_overrides({variable: value})


def _evaluate(cfgs, metrics) -> list[dict]:
    """The ``metrics`` of each config in ``cfgs``, each metric evaluated for
    all of them in one batched pass."""
    want_completion = "completion" in metrics
    if want_completion and any(cfg.workload is None for cfg in cfgs):
        raise ConfigError("completion metric requested but the config has no workload block")
    params = [cfg.params for cfg in cfgs]
    values = {}
    if set(metrics) - {"completion"}:
        reports = _reports(params)
        values.update(
            availability=[r.availability for r in reports], mttf=[r.mttf for r in reports]
        )
    if want_completion:
        values["completion"] = _completion_times(params, [cfg.workload for cfg in cfgs])
    return [{m: values[m][n] for m in metrics} for n in range(len(cfgs))]


def _trigger_value(params) -> float:
    """A run's ``value`` column: a1 in hours, or nan when a1 is a law."""
    return params.a1 if isinstance(params.a1, (int, float)) else float("nan")


def run_analyze(cfg: RunConfig):
    """(MetricsReport, CSV rows) for a single configuration."""
    report = metrics_report(cfg.params, cfg.workload)
    trigger = _trigger_value(cfg.params)
    rows = [
        ("trigger_interval", trigger, "availability", report.availability, "", "", ""),
        ("trigger_interval", trigger, "mttf", report.mttf, "", "", ""),
    ]
    if report.completion_time is not None:
        rows.append(("trigger_interval", trigger, "completion", report.completion_time, "", "", ""))
    return report, rows


def _refine(f, grid, vals, best, minimise):
    """(value, metric) near the interior grid optimum ``best``: one
    evaluation of ``f`` at the stationary point of the polynomial through
    up to 3 grid values on each side, kept if it lies between the
    bracketing grid points and is at least as good as ``best``."""
    lo, hi = max(best - 3, 0), min(best + 4, len(grid))
    x, fx = grid[best], vals[best]
    if not all(map(math.isfinite, vals[lo:hi])):
        return x, fx
    # one solve and Newton steps: np.polyfit and np.roots would page in
    # LAPACK code that nothing else runs, 3-5 MB of peak RSS in a sweep
    steps = np.vander(np.arange(lo - best, hi - best, dtype=float))
    coef = np.linalg.solve(steps, np.subtract(vals[lo:hi], fx))
    slope, bend = np.polyder(coef), np.polyder(coef, 2)
    u = 0.0
    with np.errstate(all="ignore"):  # a flat window gives 0/0, and u is nan
        for _ in range(8):
            u -= np.polyval(slope, u) / np.polyval(bend, u)
    if not abs(u) <= 1.0:
        return x, fx
    x_new = x + float(u) * (grid[1] - grid[0])
    f_new = f(x_new)
    sign = 1.0 if minimise else -1.0
    return (x_new, f_new) if sign * f_new <= sign * fx else (x, fx)


class _SweepRows:
    """A sweep's CSV rows, ``(variable, value, metric, analytic, "", "", "")``
    for each grid value and metric in turn, read from one array of the
    values: a wide grid keeps one float per row, not a tuple."""

    def __init__(self, variable, grid, metrics, values):
        self._variable, self._grid, self._metrics = variable, np.array(grid), metrics
        self._values = values

    def __len__(self):
        return self._values.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        point, m = divmod(range(len(self))[i], len(self._metrics))
        value, analytic = float(self._grid[point]), float(self._values[point, m])
        return (self._variable, value, self._metrics[m], analytic, "", "", "")

    def __eq__(self, other):  # as a list of the rows would compare
        if not isinstance(other, (list, _SweepRows)):
            return NotImplemented
        return list(self) == list(other)


def run_sweep(cfg: RunConfig, spec: SweepSpec):
    """(CSV rows, optimum records) over the sweep grid.

    The grid is evaluated in batched passes of up to 1024 points.  The
    optimum maximises availability/MTTF and minimises completion time,
    breaking ties toward the smaller grid value.  With ``spec.refine`` an
    interior optimum moves to the stationary point of the polynomial
    through up to 7 grid values around it, evaluated once more and kept
    if it is no worse than the grid point.
    """
    grid = spec.grid()
    values = np.empty((len(grid), len(spec.metrics)))
    for start in range(0, len(grid), _BATCH):
        chunk = grid[start : start + _BATCH]
        points = [apply_variable(cfg, spec.variable, value, spec.tie) for value in chunk]
        for n, point in enumerate(_evaluate(points, spec.metrics), start):
            values[n] = [point[m] for m in spec.metrics]
    rows = _SweepRows(spec.variable, grid, spec.metrics, values)
    series = dict(zip(spec.metrics, values.T.tolist()))

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
                return _evaluate([point], (_m,))[0][_m]

            x, fx = _refine(f, grid, vals, best, minimise)
            record.update(value=x, optimum=fx, refined=True)
        optima[m] = record
    return rows, optima


def run_simulate(cfg: RunConfig, sim: SimConfig, metrics=("availability", "mttf"), triggers=None):
    """(CSV rows, agreement flags): analytic value vs simulation CI per metric.

    ``triggers`` optionally re-runs the comparison over a list of
    trigger-interval values (one block of rows per value).  Each value's
    estimates draw from streams of their own, keyed by its index.
    """
    _check_metrics(metrics)
    points = [None] if triggers is None else list(triggers)
    if not points:
        raise ConfigError(f"triggers {points}: list one or more trigger intervals")
    rows = []
    agreement = []
    for index, point in enumerate(points):
        at = cfg if point is None else apply_variable(cfg, "trigger_interval", point, "all")
        trigger = _trigger_value(at.params)
        analytic = _evaluate([at], metrics)[0]
        for m in metrics:
            if m == "availability":
                est = simulate_availability(at.params, sim, index)
            elif m == "mttf":
                est = simulate_mttf(at.params, sim, index)
            else:
                est = simulate_completion(at.params, at.workload, sim, index)
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


def fixing_time_table(cfg: RunConfig, fixing_means, sweep: SweepSpec):
    """Optima of the ``sweep`` per fixing mean (the fixing-time sensitivity study)."""
    return [
        {"fixing_mean": m, "optima": run_sweep(apply_variable(cfg, "fixing_mean", m), sweep)[1]}
        for m in fixing_means
    ]


def run_validate(cfg: RunConfig):
    """Model-consistency battery; list of (check, status, detail).

    Parameters and kernel row sums are checked where they are built; a
    failed build shows as ``kernel-construction``."""
    results = []

    def record(name, ok, detail=""):
        results.append((name, "pass" if ok else "FAIL", detail))

    try:
        report = metrics_report(cfg.params)
    except Exception as exc:  # noqa: BLE001 - battery reports, never raises
        record("kernel-construction", False, f"{type(exc).__name__}: {exc}")
        return results
    P, v, h = report.kernel, report.stationary, report.sojourn
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
        except CompletionNotApplicable as exc:
            results.append(("completion-conservation", "skip", str(exc)))
        except Exception as exc:  # noqa: BLE001
            record("completion-conservation", False, f"{type(exc).__name__}: {exc}")
    else:
        results.append(("completion-conservation", "skip", "no workload block"))

    # degenerate branches and exponential stand-ins of the triggers' means
    # (a trigger may be a law) make the chain an exact CTMC when its
    # remaining laws are exponential; compares the two engines
    means = {k: _trigger(getattr(cfg.params, k)).mean() for k in TRIGGERS}
    try:
        oracle = replace(
            cfg.params,
            c1=1.0,
            c2=0.0,
            c3=0.0,
            **{k: Exponential(1.0 / max(m, 1e-6)) for k, m in means.items()},
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

"""Correctness gate: every result of a run is checked outside the timed region.

Three kinds of check, each counted as one operation:

* snapshot: an analytic value matches ``reference.json`` (taken with
  ``snapshot.py``) within the "same behaviour" tolerances;
* structure: the kernel, stationary vector and completion transform of a
  solved point satisfy the model's invariants;
* simulation: the analytic value lies inside the simulator's 95% CI
  widened by ``SIM_WIDEN``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from rejuvkit import analysis, model, numerics
from rejuvkit.simulator import Estimate

REFERENCE = Path(__file__).with_name("reference.json")

AVAILABILITY_ABS = 1e-10
MTTF_REL = 1e-9
# Completion matches the default route tightly, or the exact
# ``method="analytic"`` route loosely; the second admits the intended fix
# of the default route's finite-difference bias.
COMPLETION_DEFAULT_REL = 1e-9
COMPLETION_ANALYTIC_REL = 1e-6
ROW_SUM_ABS = 1e-12
STATIONARY_RESIDUAL = 1e-10
CONSERVATION_ABS = 1e-9
# The CLI's 95% t-interval (1.96 sigma for these replication counts) widened
# to 2.1 x 1.96 = 4.12 sigma: an unbiased simulator's estimate misses with
# probability 2 * (1 - Phi(4.12)) = 3.8e-5 < 1e-4.
SIM_WIDEN = 2.1


def load_reference():
    return json.loads(REFERENCE.read_text())


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


def value_ok(metric, value, ref):
    """``ref`` holds the snapshot's metric values at the same point."""
    if metric == "availability":
        return abs(value - ref["availability"]) <= AVAILABILITY_ABS
    if metric == "mttf":
        return _rel(value, ref["mttf"]) <= MTTF_REL
    return (
        _rel(value, ref["completion"]) <= COMPLETION_DEFAULT_REL
        or _rel(value, ref["completion_analytic"]) <= COMPLETION_ANALYTIC_REL
    )


def sim_ok(estimate, analytic):
    centre = 0.5 * (estimate.ci_low + estimate.ci_high)
    half = 0.5 * (estimate.ci_high - estimate.ci_low)
    return abs(analytic - centre) <= SIM_WIDEN * half


def failure_free_floor(params, workload):
    """Completion time with no failure: both cases weighted by b1, b2."""
    w = workload
    x1 = w.x / 2.0 if w.x1 is None else w.x1
    t1 = float(params.a4) if w.t1 is None else w.t1
    a1 = float(params.a1)
    primary = a1 / w.r1 + (w.x - a1) / w.r2
    backup = t1 / w.r1 + (w.x - x1 - t1) / w.r2
    return w.b1 * primary + w.b2 * backup


def structure_problems(cfg, completion):
    """Invariant violations of one solved point (empty list = sound)."""
    p, w = cfg.params, cfg.workload
    P = model.transition_matrix(p)
    problems = []
    gap = float(np.abs(P.sum(axis=1) - 1.0).max())
    if not gap <= ROW_SUM_ABS:
        problems.append(f"kernel row sum off by {gap:.2e}")
    for i, allowed in model.KERNEL_TARGETS.items():
        stray = [j for j in range(P.shape[1]) if j not in allowed and P[i, j] != 0.0]
        if stray:
            problems.append(f"kernel row {i} has mass outside its pattern at {stray}")
    v = numerics.dtmc_stationary(P)
    resid = float(np.abs(v - v @ P).max())
    if not resid <= STATIONARY_RESIDUAL:
        problems.append(f"stationary residual {resid:.2e}")
    if w is not None:
        phi = (
            analysis.completion_lst_primary(p, w, 0.0),
            analysis.completion_lst_backup(p, w, 0.0),
        )
        if not all(abs(f - 1.0) <= CONSERVATION_ABS for f in phi):
            problems.append(f"phi(0) = {phi}")
        floor = failure_free_floor(p, w)
        if not completion >= floor:
            problems.append(f"completion {completion} below the failure-free floor {floor}")
    return problems


class Gate:
    """Counts checked operations and keeps the first misses for the report."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def structure(self, label, cfg, completion):
        problems = structure_problems(cfg, completion)
        self.check(not problems, f"{label}: {'; '.join(problems)}")


def sweep_point(ref, trigger):
    sweep = ref["sweep"]
    return sweep["points"][sweep["grid"].index(trigger)]


def check_sweep(gate, ref, out):
    for _, value, metric, analytic, *_ in out["rows"]:
        gate.check(
            value_ok(metric, analytic, sweep_point(ref, value)),
            f"sweep {metric} at {value}: {analytic!r}",
        )
    step = ref["sweep"]["grid"][1] - ref["sweep"]["grid"][0]
    for metric, record in out["optima"].items():
        want = ref["sweep"]["optima"][metric]
        ok = (
            record["refined"] == want["refined"]
            and abs(record["value"] - want["value"]) <= step
            and value_ok(metric, record["optimum"], want["point"])
        )
        gate.check(ok, f"sweep optimum {metric}: {record['optimum']!r} at {record['value']!r}")


def check_configs(gate, ref, out):
    for name, result in out.items():
        want = ref["configs"][name]
        for metric in ("availability", "mttf", "completion"):
            gate.check(
                value_ok(metric, result[metric], want), f"{name} {metric}: {result[metric]!r}"
            )
        failed = [check for check, status, _ in result["validate"] if status == "FAIL"]
        gate.check(not failed, f"{name} validate failed {failed}")


def check_simulations(gate, ref, agreements):
    for entry in agreements:
        metric, trigger, analytic = entry["metric"], entry["trigger"], entry["analytic"]
        gate.check(
            value_ok(metric, analytic, sweep_point(ref, trigger)),
            f"simulate analytic {metric} at {trigger}: {analytic!r}",
        )
        est = entry["estimate"]
        gate.check(
            sim_ok(est, analytic),
            f"simulate {metric} at {trigger}: analytic {analytic!r} outside "
            f"{SIM_WIDEN} x CI [{est.ci_low!r}, {est.ci_high!r}]",
        )


def self_check(ref, cfg):
    """Perturbed values each checker must flag; unperturbed ones it must pass.

    Returns (ok, details).  ``cfg`` is the sweep config at trigger 27.
    """
    point = sweep_point(ref, 27.0)
    flag = {
        "availability +2e-10": ("availability", point["availability"] + 2e-10),
        "mttf x(1+2e-9)": ("mttf", point["mttf"] * (1.0 + 2e-9)),
        "completion x(1+2e-6)": ("completion", point["completion"] * (1.0 + 2e-6)),
        "completion analytic x(1-2e-6)": (
            "completion",
            point["completion_analytic"] * (1.0 - 2e-6),
        ),
    }
    details = {k: not value_ok(m, v, point) for k, (m, v) in flag.items()}
    keep = {
        "availability": point["availability"],
        "mttf": point["mttf"],
        "completion": point["completion"],
        "completion analytic": point["completion_analytic"],
    }
    for k, v in keep.items():
        details[f"{k} unperturbed passes"] = value_ok(k.split()[0], v, point)

    a = point["availability"]
    half = 0.1 * (1.0 - a)
    off = Estimate("availability", a - 2.5 * half, a - 3.5 * half, a - 1.5 * half, 1000)
    on = Estimate("availability", a - 2.0 * half, a - 3.0 * half, a - 1.0 * half, 1000)
    details["simulation 2.5 half-widths off is flagged"] = not sim_ok(off, a)
    details["simulation 2.0 half-widths off passes"] = sim_ok(on, a)

    floor = failure_free_floor(cfg.params, cfg.workload)
    details["completion below floor is flagged"] = bool(structure_problems(cfg, 0.999 * floor))
    details["sound point passes"] = not structure_problems(cfg, point["completion"])
    return all(details.values()), details


def sim_precision(estimate):
    """Relative CI half-width; availability is taken on unavailability."""
    half = 0.5 * (estimate.ci_high - estimate.ci_low)
    scale = 1.0 - estimate.mean if estimate.metric == "availability" else estimate.mean
    return half / abs(scale) if scale else math.inf

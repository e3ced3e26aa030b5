"""The three benchmark workloads, driven through rejuvkit's public functions.

A workload turns ``--seed`` into inputs (``inputs``), solves them in one
repetition (``run``; calls go through module attributes so that the
tracer's patches apply), names the solved points for the structural
checks (``points``) and checks its outputs (``check``).
"""

from __future__ import annotations

import random

from rejuvkit import config, toolkit
from rejuvkit.simulator import SimConfig

import gate

METRICS = ("availability", "mttf", "completion")
SWEEP_CONFIG = "preset_f_hypo"
SWEEP_GRID = (0.0, 50.0, 1.0)
MC_TRIGGERS = (0.0, 27.0, 50.0)
# Replications per estimate, chosen per metric so that each estimate's
# sample variance -- and so sim_*_s_1pct -- varies by about 3% from seed to
# seed, and each estimate runs for most of a second or more: shorter
# timings swing more with host load.  The warm-up drops the start in
# state 0, which otherwise biases unavailability low by about 1% relative
# over a 1e5 h horizon.
MC_REPS = {"availability": 2000, "mttf": 20000, "completion": 40000}
MC_HORIZON = 1e5
MC_WARMUP = 2e4
# Workloads that never simulate still report sim_*_s_1pct from this fixed
# probe at trigger 27, run between their timed repetitions; its seed is
# fixed so that only the simulator's speed moves the figure.  Its
# estimates run for about a second (availability) and half a second.
PROBE_TRIGGER = 27.0
PROBE_REPS = {"availability": 1000, "mttf": 10000, "completion": 20000}
PROBE_SEED = 0


def _sim_config(reps, seed):
    return SimConfig(replications=reps, seed=seed, horizon=MC_HORIZON, warmup=MC_WARMUP)


def simulate(metric_order, triggers, reps, seed):
    """One ``run_simulate`` per metric; agreement entries in call order."""
    cfg = config.load_config(SWEEP_CONFIG)
    agreements = []
    for m in metric_order:
        _, agreement = toolkit.run_simulate(cfg, _sim_config(reps[m], seed), (m,), triggers)
        agreements.extend(agreement)
    return agreements


def probe():
    return simulate(METRICS, [PROBE_TRIGGER], PROBE_REPS, PROBE_SEED)


def sweep_config_at(trigger):
    return toolkit.apply_variable(config.load_config(SWEEP_CONFIG), "trigger_interval", trigger)


class TriggerSweep:
    """The paper's headline study: 51-point trigger sweep with refined optima."""

    name = "trigger_sweep"
    configs = (SWEEP_CONFIG,)
    simulates = False
    grid = toolkit.SweepSpec("trigger_interval", *SWEEP_GRID).grid()

    def inputs(self, seed):
        order = list(METRICS)
        random.Random(seed).shuffle(order)
        return toolkit.SweepSpec("trigger_interval", *SWEEP_GRID, metrics=tuple(order), refine=True)

    def run(self, spec):
        cfg = config.load_config(SWEEP_CONFIG)
        rows, optima = toolkit.run_sweep(cfg, spec)
        return {"rows": rows, "optima": optima}

    def warm(self, spec):
        cfg = config.load_config(SWEEP_CONFIG)
        toolkit.run_sweep(cfg, toolkit.SweepSpec("trigger_interval", 0.0, 1.0, 1.0, METRICS))

    def points(self, spec, out):
        completion = {v: x for _, v, m, x, *_ in out["rows"] if m == "completion"}
        for value in self.grid:
            yield f"sweep point {value}", sweep_config_at(value), completion[value]

    def check(self, g, ref, out):
        gate.check_sweep(g, ref, out)


class ConfigScan:
    """Every bundled config once: no solve can reuse another's work."""

    name = "config_scan"
    configs = tuple(config.bundled_config_names())
    simulates = False

    def inputs(self, seed):
        names = list(self.configs)
        random.Random(seed).shuffle(names)
        return names

    def run(self, names):
        out = {}
        for name in names:
            cfg = config.load_config(name)
            report, _ = toolkit.run_analyze(cfg)
            out[name] = {
                "availability": report.availability,
                "mttf": report.mttf,
                "completion": report.completion_time,
                "validate": toolkit.run_validate(cfg),
            }
        return out

    def warm(self, names):
        self.run(names[:1])

    def points(self, names, out):
        for name in names:
            yield name, config.load_config(name), out[name]["completion"]

    def check(self, g, ref, out):
        gate.check_configs(g, ref, out)


class McCrosscheck:
    """Monte Carlo cross-check at three triggers: simulator-bound."""

    name = "mc_crosscheck"
    configs = (SWEEP_CONFIG,)
    simulates = True

    def inputs(self, seed):
        rng = random.Random(seed)
        order, triggers = list(METRICS), list(MC_TRIGGERS)
        rng.shuffle(order)
        rng.shuffle(triggers)
        return {"metrics": order, "triggers": triggers, "seed": seed}

    def run(self, inp):
        return simulate(inp["metrics"], inp["triggers"], MC_REPS, inp["seed"])

    def warm(self, inp):
        simulate(METRICS, [PROBE_TRIGGER], {m: 2 for m in METRICS}, inp["seed"])

    def points(self, inp, out):
        completion = {e["trigger"]: e["analytic"] for e in out if e["metric"] == "completion"}
        for trigger in inp["triggers"]:
            yield f"simulate point {trigger}", sweep_config_at(trigger), completion[trigger]

    def check(self, g, ref, out):
        gate.check_simulations(g, ref, out)


WORKLOADS = {w.name: w for w in (TriggerSweep(), ConfigScan(), McCrosscheck())}

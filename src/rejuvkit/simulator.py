"""Monte Carlo discrete-event simulation of the aging/rejuvenation model.

Independent cross-validation of the analytic metrics: each state is
simulated as a race of competing events (one duration sampled per armed
event, minimum wins, resampled on every entry - the Markov-renewal
property at transition epochs).  Replications use substreams derived
from (seed, metric, replication index), so results are reproducible and
independent of execution order.  Parameter sets, workloads and
:class:`SimConfig` check themselves when they are built, so the
simulators take them as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from .analysis import WorkloadSpec, completion_cases
from .model import ModelParams, state_events

__all__ = [
    "SimConfig",
    "Estimate",
    "simulate_availability",
    "simulate_mttf",
    "simulate_completion",
    "simulate_occupancy",
]

GUARD_HORIZON = 1e9  # hours; a replication running past this is censored
_TAG_AVAILABILITY = 1
_TAG_MTTF = 2
_TAG_COMPLETION = 3
_TAG_OCCUPANCY = 4


@dataclass(frozen=True)
class SimConfig:
    replications: int
    seed: int
    horizon: float = 1e5  # simulated hours per availability replication
    warmup: float = 0.0  # discarded before availability accounting

    def __post_init__(self):
        if self.replications < 2:
            raise ValueError("CI requires >= 2 replications")
        if not 0.0 <= self.warmup < self.horizon:
            raise ValueError(f"need horizon > warmup >= 0, got {self.horizon}, {self.warmup}")


@dataclass(frozen=True)
class Estimate:
    metric: str
    mean: float
    ci_low: float
    ci_high: float
    replications: int
    truncated: int = 0  # replications censored at the guard horizon

    def contains(self, value: float) -> bool:
        return self.ci_low <= value <= self.ci_high


def _rng(seed: int, tag: int, rep: int) -> np.random.Generator:
    entropy = (seed & 0xFFFFFFFFFFFFFFFF, tag, rep)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _estimate(metric, values, truncated=0) -> Estimate:
    values = np.asarray(values, dtype=float)
    n = values.size
    mean = float(values.mean())
    spread = float(values.std(ddof=1))
    half = float(stdtrit(n - 1, 0.975)) * spread / math.sqrt(n) if spread > 0.0 else 0.0
    return Estimate(metric, mean, mean - half, mean + half, n, truncated)


def _draw(ev, rng) -> float:
    if ev.thin < 1.0 and rng.random() >= ev.thin:
        return math.inf
    return float(ev.dist.sample(rng))


def _step(events, rng):
    """(sojourn, next state); simultaneous firings go to the earlier event."""
    best = math.inf
    target = -1
    for ev in events:
        d = _draw(ev, rng)
        if d < best:
            best = d
            target = ev.target
    return best, target


def _occupancy_rep(events, rng, horizon, warmup):
    occupancy = np.zeros(len(events))
    t = 0.0
    state = 0
    while t < horizon:
        dt, nxt = _step(events[state], rng)
        end = min(t + dt, horizon)
        overlap = end - max(t, warmup)
        if overlap > 0.0:
            occupancy[state] += overlap
        if not math.isfinite(dt):  # every armed event declined; cannot happen
            break  # pragma: no cover - defensive
        t += dt
        state = nxt
    return occupancy / (horizon - warmup)


def _occupancy_rows(p: ModelParams, c: SimConfig, tag: int) -> np.ndarray:
    """Per-replication occupancy fractions, one row of 12 per replication."""
    events = state_events(p)
    rows = np.empty((c.replications, len(events)))
    for rep in range(c.replications):
        rng = _rng(c.seed, tag, rep)
        rows[rep] = _occupancy_rep(events, rng, c.horizon, c.warmup)
    return rows


def simulate_availability(p: ModelParams, c: SimConfig) -> Estimate:
    """Up-time fraction over the horizon, averaged across replications.

    Accumulates the (rare) downtime and returns its complement: exact
    when no failure ever fires, and better conditioned in general.
    """
    rows = _occupancy_rows(p, c, _TAG_AVAILABILITY)
    return _estimate("availability", 1.0 - rows[:, 10] - rows[:, 11])


def simulate_occupancy(p: ModelParams, c: SimConfig):
    """Per-state occupancy fractions: (means, standard errors), length 12."""
    rows = _occupancy_rows(p, c, _TAG_OCCUPANCY)
    means = rows.mean(axis=0)
    stderr = rows.std(axis=0, ddof=1) / math.sqrt(c.replications)
    return means, stderr


def simulate_mttf(p: ModelParams, c: SimConfig) -> Estimate:
    """Time to first entry into a failed state, repair disabled."""
    events = state_events(p)
    values = []
    truncated = 0
    for rep in range(c.replications):
        rng = _rng(c.seed, _TAG_MTTF, rep)
        t = 0.0
        state = 0
        while state < 10:
            dt, nxt = _step(events[state], rng)
            t += dt
            state = nxt
            if t > GUARD_HORIZON:
                truncated += 1
                t = GUARD_HORIZON
                break
        values.append(t)
    return _estimate("mttf", values, truncated)


def _attempt(case, rng):
    """One execution attempt of a completion case: (completed?, elapsed wall clock)."""
    h_pre = float(case.pre_fail.sample(rng))
    if h_pre <= case.tau:
        return False, h_pre
    (m_reboot, reboot), (m_fix, fix), (m_rest, rest) = case.post
    pick = rng.random() * (m_reboot + m_fix + m_rest)
    law = reboot if pick < m_reboot else fix if pick < m_reboot + m_fix else rest
    h_post = float(law.sample(rng))
    if h_post <= case.delta:
        return False, case.tau + h_post
    return True, case.t0


def simulate_completion(p: ModelParams, w: WorkloadSpec, c: SimConfig) -> Estimate:
    """Wall-clock completion time under preemptive-repeat restarts."""
    primary, backup = completion_cases(p, w)
    values = []
    truncated = 0
    for rep in range(c.replications):
        rng = _rng(c.seed, _TAG_COMPLETION, rep)
        case = primary if (w.b1 == 1.0 or rng.random() < w.b1) else backup
        clock = 0.0
        while True:
            done, elapsed = _attempt(case, rng)
            clock += elapsed
            if done:
                break
            clock += float(case.overhead.sample(rng)) + float(case.aging.sample(rng))
            if w.backup_restart_via_primary:
                case = primary
            if clock > GUARD_HORIZON:
                truncated += 1
                clock = GUARD_HORIZON
                break
        values.append(clock)
    return _estimate("completion", values, truncated)

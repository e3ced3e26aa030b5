"""Monte Carlo discrete-event simulation of the aging/rejuvenation model.

Independent cross-validation of the analytic metrics: each state is
simulated as a race of competing events (one duration sampled per armed
event, minimum wins).  A phase-type duration is one exponential draw per
phase, summed (``Distribution.sample``).  Every entry races afresh (the
Markov-renewal property at transition epochs), so a state's races are
i.i.d. whatever path led there: they are drawn in numpy blocks of
``POOL`` and each walk takes the next one on entry, which leaves the
law of every walk unchanged; completion attempts are pooled likewise.
Each estimate draws from one stream derived from (seed, metric), its
replications in order: results are reproducible, and the first k
replications are the same whatever the total.  Parameter sets,
workloads and :class:`SimConfig` check themselves when they are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import WorkloadSpec, completion_cases
from .model import ModelParams, state_events

__all__ = [
    "SimConfig",
    "Estimate",
    "simulate_availability",
    "simulate_mttf",
    "simulate_completion",
]

GUARD_HORIZON = 1e9  # hours; a replication running past this is censored
POOL = 1024  # races, or completion attempts, drawn per block
_TAG_AVAILABILITY = 1
_TAG_MTTF = 2
_TAG_COMPLETION = 3
# ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi)/2 = sum of c_k / x^(2k + 1)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


@dataclass(frozen=True)
class SimConfig:
    replications: int
    seed: int
    horizon: float = 1e5  # simulated hours per availability replication
    warmup: float = 0.0  # discarded before availability accounting

    def __post_init__(self):
        if self.replications < 2:
            raise ValueError("CI requires >= 2 replications")
        if not 0.0 <= self.warmup < self.horizon < math.inf:
            raise ValueError(
                f"need a finite horizon > warmup >= 0, got {self.horizon}, {self.warmup}"
            )


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


def _rng(seed: int, tag: int) -> np.random.Generator:
    entropy = np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, tag))
    return np.random.Generator(np.random.PCG64(entropy))


def _stirling_tail(x: float) -> float:
    """ln Gamma(x) less its Stirling form; for x >= 10 the omitted terms are below 3e-17."""
    return math.fsum(c / x ** (2 * k + 1) for k, c in enumerate(_STIRLING))


def _gamma_ratio(b: float) -> float:
    """Gamma(b + 1/2) / (Gamma(b) sqrt(b)) for b > 0, to a few ulp."""
    scale = 1.0
    while b < 10.0:  # Gamma(b + 1) = b Gamma(b) steps b up into Stirling's range
        scale *= math.sqrt(b * (b + 1.0)) / (b + 0.5)
        b += 1.0
    return scale * math.exp(
        b * math.log1p(0.5 / b) - 0.5 + _stirling_tail(b + 0.5) - _stirling_tail(b)
    )


def _beta_series(a: float, b: float, x: float) -> float:
    """I_x(a, b) a B(a, b) / (x^a (1 - x)^b), the series 2F1(a + b, 1; a + 1; x).

    Every term is positive, so the sum carries no cancellation; past
    its peak the terms fall by about x each, and x <= 1/2 here.
    """
    term = total = 1.0
    n = 0
    while term > 1e-17 * total:
        term *= (a + b + n) / (a + 1.0 + n) * x
        total += term
        n += 1
    return total


def _t975(df: int) -> float:
    """The 0.975-quantile of Student's t with ``df`` >= 1 degrees of freedom.

    Newton steps from the normal quantile on the upper tail
    P(T > t) = I_y(df/2, 1/2)/2, y = df/(df + t^2).  That tail is
    t f(t) S_B / df with f the density and S_B the series of
    I_y(df/2, 1/2); once t^2 < df, y passes 1/2 and the tail is taken
    as 1/2 - t f(t) S_A instead, S_A the series of I_{1-y}(1/2, df/2).
    For t > 0 the tail is decreasing and convex, and at every finite df
    the root lies above the normal quantile, so each tangent meets zero
    between the iterate and the root: the steps rise to it without
    overshoot, 2 of them at large df and 8 at df = 1.  Newton converges
    quadratically, so a step below 1e-9 relative leaves no error above
    rounding.
    """
    t = 1.959963984540054  # the normal 0.975-quantile
    b = 0.5 * df
    scale = _gamma_ratio(b) / math.sqrt(2.0 * math.pi)  # f(t) = scale (1 + t^2/df)^-(b + 1/2)
    for _ in range(16):
        q = t * t / df
        f = scale * math.exp(-(b + 0.5) * math.log1p(q))
        if q < 1.0:
            tail = 0.5 - t * f * _beta_series(0.5, b, q / (1.0 + q))
        else:
            tail = t * f * _beta_series(b, 0.5, 1.0 / (1.0 + q)) / df
        step = (tail - 0.025) / f
        t += step
        if abs(step) <= 1e-9 * t:
            break
    return t


def _estimate(metric, values, truncated=0) -> Estimate:
    values = np.asarray(values, dtype=float)
    n = values.size
    mean = float(values.mean())
    spread = float(values.std(ddof=1))
    half = _t975(n - 1) * spread / math.sqrt(n) if spread > 0.0 else 0.0
    return Estimate(metric, mean, mean - half, mean + half, n, truncated)


def _races(events, rng, n):
    """n independent races of one state: (sojourns, next states) as lists.

    Events draw n durations each in priority order, then n arming draws
    if thinned; a strict ``<`` gives ties to the earlier event.  A race
    no armed event enters lasts forever and leads to state -1.
    """
    best = np.full(n, math.inf)
    target = np.full(n, -1)
    for ev in events:
        d = ev.dist.sample(rng, n)
        if ev.thin < 1.0:
            d[rng.random(n) >= ev.thin] = math.inf
        won = d < best
        best[won] = d[won]
        target[won] = ev.target
    return best.tolist(), target.tolist()


def _outcomes(events, rng):
    """The races of one state, one (sojourn, next state) per entry, drawn POOL at a time."""
    while True:
        yield from zip(*_races(events, rng, POOL))


def _downtime(races, horizon, warmup) -> float:
    """Hours spent in the failed states 10 and 11 between warmup and horizon."""
    down = 0.0
    t = 0.0
    state = 0
    while t < horizon:
        dt, nxt = next(races[state])
        if state >= 10:
            overlap = min(t + dt, horizon) - max(t, warmup)
            if overlap > 0.0:
                down += overlap
        t += dt  # inf, when every armed event declines, ends the run
        state = nxt
    return down


def simulate_availability(p: ModelParams, c: SimConfig) -> Estimate:
    """Up-time fraction over the horizon, averaged across replications.

    Accumulates the (rare) downtime and returns its complement: exact
    when no failure ever fires, and better conditioned in general.
    """
    rng = _rng(c.seed, _TAG_AVAILABILITY)
    races = [_outcomes(events, rng) for events in state_events(p)]
    span = c.horizon - c.warmup
    down = [_downtime(races, c.horizon, c.warmup) for _ in range(c.replications)]
    return _estimate("availability", [1.0 - d / span for d in down])


def simulate_mttf(p: ModelParams, c: SimConfig) -> Estimate:
    """Time to first entry into a failed state, repair disabled."""
    rng = _rng(c.seed, _TAG_MTTF)
    races = [_outcomes(events, rng) for events in state_events(p)]
    values = []
    truncated = 0
    for _ in range(c.replications):
        t = 0.0
        state = 0
        while state < 10:
            dt, state = next(races[state])
            t += dt
            if t > GUARD_HORIZON:
                truncated += 1
                t = GUARD_HORIZON
                break
        values.append(t)
    return _estimate("mttf", values, truncated)


def _attempts(case, rng):
    """Execution attempts of one completion case, POOL at a time: (completed?, hours).

    A failed attempt's hours include the restart overhead and the fresh
    aging onset that follow it.
    """
    bounds = np.cumsum([mass for mass, _ in case.post])  # reboot, fix, rest
    while True:
        pre = case.pre_fail.sample(rng, POOL)
        # branch k where k of the first two cumulative masses lie at or below the pick
        branch = np.searchsorted(bounds[:2], rng.random(POOL) * bounds[2], "right")
        post = np.choose(branch, [law.sample(rng, POOL) for _, law in case.post])
        restart = case.overhead.sample(rng, POOL) + case.aging.sample(rng, POOL)
        failed_pre = pre <= case.tau
        done = ~failed_pre & (post > case.delta)
        hours = np.where(done, case.t0, np.where(failed_pre, pre, case.tau + post) + restart)
        yield from zip(done.tolist(), hours.tolist())


def simulate_completion(p: ModelParams, w: WorkloadSpec, c: SimConfig) -> Estimate:
    """Wall-clock completion time under preemptive-repeat restarts."""
    rng = _rng(c.seed, _TAG_COMPLETION)
    primary, backup = (_attempts(case, rng) for case in completion_cases(p, w))
    values = []
    truncated = 0
    for _ in range(c.replications):
        attempts = primary if (w.b1 == 1.0 or rng.random() < w.b1) else backup
        clock = 0.0
        while True:
            done, hours = next(attempts)
            clock += hours
            if done:
                break
            if w.backup_restart_via_primary:
                attempts = primary
            if clock > GUARD_HORIZON:
                truncated += 1
                clock = GUARD_HORIZON
                break
        values.append(clock)
    return _estimate("completion", values, truncated)

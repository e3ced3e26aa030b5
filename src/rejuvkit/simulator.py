"""Monte Carlo discrete-event simulation of the aging/rejuvenation model.

Independent cross-validation of the analytic metrics: each state is
simulated as a race of competing events (one duration sampled per armed
event, minimum wins); a phase-type duration is one exponential draw per
phase, summed.  Every entry to state 0 is a Markov-renewal epoch, so a
replication is a run of i.i.d. segments: availability cycles (state 0 to
its next entry; availability is the ratio of up-hours to hours over
whole cycles), MTTF excursions (to that entry or a failed state), and
completion walks over the cases until an attempt completes.  Segments
are walked in numpy batches, in lockstep, with each state's races and
each case's attempts drawn in blocks.  Each estimate draws from one
stream keyed by (seed, metric, point), its batches in order: results are
reproducible, and the first k replications are the same whatever the
total.  Parameter sets, workloads and :class:`SimConfig` check
themselves when they are built.
"""

from __future__ import annotations

import itertools
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

GUARD_HORIZON = 1e9  # hours; a replication reaching this is censored
POOL = 1024  # races, or completion attempts, drawn per block
FIRST_BATCH = 1024  # segments in a stream's first batch; each next batch doubles,
MAX_BATCH = 8192  # up to this many
_FAILED = 10  # states 10 and 11 are the failed ones
_DONE = 2  # a completion walk's state once an attempt completes
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
    warmup: float = 0.0  # availability counts the cycles that start from here on

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
    failures: int = 0  # failed-state visits (availability), failed replications (mttf)

    def contains(self, value: float) -> bool:
        return self.ci_low <= value <= self.ci_high

    @property
    def rel_half_width(self) -> float:
        """The CI half-width over the mean; for availability, over the unavailability."""
        scale = 1.0 - self.mean if self.metric == "availability" else self.mean
        return 0.5 * (self.ci_high - self.ci_low) / abs(scale) if scale else math.inf


def _rng(seed: int, tag: int, point: int) -> np.random.Generator:
    entropy = np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, tag, point))
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


def _estimate(metric, values, truncated=0, failures=0, per=None) -> Estimate:
    """A 95% t-interval for the mean of the per-replication ``values``, or given ``per``
    for sum(values) / sum(per), by the delta method: deviations values - ratio per."""
    values = np.asarray(values, dtype=float)
    n = values.size
    mean = float(values.mean() if per is None else values.sum() / per.sum())
    deviations = values if per is None else (values - mean * per) / per.mean()
    spread = float(deviations.std(ddof=1))
    half = _t975(n - 1) * spread / math.sqrt(n) if spread > 0.0 else 0.0
    return Estimate(metric, mean, mean - half, mean + half, n, truncated, failures)


def _races(events, rng, n):
    """n independent races of one state: (sojourns, next states) as arrays.

    Events draw n durations each in priority order, then n arming draws
    if thinned; a strict ``<`` gives ties to the earlier event.  A race
    no armed event enters lasts forever and leads to state -1.
    """
    best = np.full(n, math.inf)
    target = np.full(n, -1, np.int8)
    for ev in events:
        d = ev.dist.sample(rng, n)
        if ev.thin < 1.0:
            d[rng.random(n) >= ev.thin] = math.inf
        target[d < best] = ev.target
        np.minimum(best, d, out=best)
    return best, target


def _pooled(rng, draw, *args):
    """``draw(*args, rng, count)``, a request below POOL served from a block of POOL;
    a block's rest is dropped when a request outgrows it."""
    block, used = (np.empty(0),), 0

    def take(count):
        nonlocal block, used
        if count >= POOL:
            return draw(*args, rng, count)
        if used + count > block[0].size:
            block, used = draw(*args, rng, POOL), 0
        used += count
        return [x[used - count : used] for x in block]

    return take


def _walk(draws, state, stops, limit):
    """Lockstep walks from ``state``, each until it enters ``stops`` or its hours reach limit.

    Each step sorts the live walks by state and takes each state's steps in one
    call, ``draws[k](count)`` -> (hours, next states).  Returns the hours (capped
    at limit), the last states and the walks that visit state 10, then 11, once
    per visit.  An endless race (state -1) stops by the limit."""
    hours, live = np.zeros(state.size), np.arange(state.size)
    failed = [(live[:0], live[:0])]
    while live.size:
        live = live[state[live].argsort(kind="stable")]
        counts = np.bincount(state[live]).tolist()
        dt, nxt = map(np.concatenate, zip(*(draws[k](m) for k, m in enumerate(counts) if m)))
        if len(counts) > _FAILED:  # walks in failed states sort last, 10 before 11
            at, m = sum(counts[:_FAILED]), counts[_FAILED]
            failed.append((live[at : at + m], live[at + m :]))
        hours[live] = now = hours[live] + dt
        state[live] = nxt
        live = live[~stops[nxt] & (now < limit)]
    return np.minimum(hours, limit), state, map(np.concatenate, zip(*failed))


def _runs(draws, n, stops, final, limit, start=None, warmup=None):
    """The first n replications: their hours, capped at limit, and (3, n) sums.

    Segments are walks from state 0, or from ``start(size)``, in batches that double
    from FIRST_BATCH to MAX_BATCH: the first k replications do not depend on n.  A
    replication takes segments until one ends in a ``final`` state or its hours reach
    limit.  Given warmup, the sums are of hours, visits to state 10 and to 11, over
    each replication's walks that start from warmup on."""
    hours, sums = [], np.zeros((3, n + 1))
    closed, carry = 0, 0.0  # replications closed; hours of the open one
    for b in itertools.count():
        size = min(FIRST_BATCH << b, MAX_BATCH)
        state = np.zeros(size, np.int8) if start is None else start(size)
        seg_hours, last, visits = _walk(draws, state, stops, limit)
        # clock: each segment's start; segment 0 holds the open replication's hours
        clock = np.concatenate(([0.0, carry], seg_hours)).cumsum()
        ends = np.flatnonzero(np.append(False, final[last]))
        tail = np.append(ends, size)  # the last segment of each run between final ones
        base = clock[np.append(0, ends + 1)]
        long, cuts = np.flatnonzero(clock[tail + 1] - base >= limit).tolist(), []
        for g in long:  # close at each first segment ending at or past start + limit
            at, last_end = base[g], tail[g] + 1
            while (k := clock.searchsorted(at + limit)) <= last_end:
                cuts.append(k - 1)
                at = clock[k]
        ends = np.array(sorted({*ends.tolist(), *cuts})) if cuts else ends
        base = clock[np.append(0, ends + 1)]  # where each replication starts
        hours.append(clock[ends + 1] - base[:-1])
        if warmup is not None:  # each walk's replication, n if uncounted or past n
            rep = np.searchsorted(ends, np.arange(1, size + 1))
            rep = np.where(clock[1:-1] - base[rep] < warmup, n, np.minimum(closed + rep, n))
            sums[0] += np.bincount(rep, seg_hours, n + 1)
            sums[1:] += [np.bincount(rep[v], None, n + 1) for v in visits]
        closed += ends.size
        carry = clock[-1] - base[-1]
        if closed >= n:
            return np.minimum(np.concatenate(hours)[:n], limit), sums[:, :n]


def simulate_availability(p: ModelParams, c: SimConfig, point: int = 0) -> Estimate:
    """Up-hours over hours, summed over whole cycles, with a delta-method interval.

    A replication runs cycles from state 0 until its hours reach the horizon, and
    counts those that start from the warm-up on.  A visit to state 10 or 11 is down
    for the mean of the one law it races, not its sampled stay (conditional Monte
    Carlo).  ``point`` selects the stream of a study's point."""
    rng, events, n = _rng(c.seed, _TAG_AVAILABILITY, point), state_events(p), c.replications
    states = np.arange(len(events))
    draws = [_pooled(rng, _races, row) for row in events]
    _, (hours, *visits) = _runs(draws, n, states == 0, states < 0, c.horizon, None, c.warmup)
    if not hours.any():
        raise ValueError(f"no cycle starts between warmup {c.warmup} and horizon {c.horizon}")
    down = np.dot([ev.dist.mean() for (ev,) in events[_FAILED:]], visits)
    return _estimate("availability", hours - down, failures=int(np.sum(visits)), per=hours)


def simulate_mttf(p: ModelParams, c: SimConfig, point: int = 0) -> Estimate:
    """Time to first entry into a failed state, repair disabled: a run of
    excursions, each from state 0 to its next entry or to a failed state."""
    rng = _rng(c.seed, _TAG_MTTF, point)
    draws = [_pooled(rng, _races, events) for events in state_events(p)]
    states = np.arange(len(draws))
    failed = states >= _FAILED
    hours, _ = _runs(draws, c.replications, failed | (states == 0), failed, GUARD_HORIZON)
    truncated = int(np.count_nonzero(hours >= GUARD_HORIZON))
    return _estimate("mttf", hours, truncated, hours.size - truncated)


def _attempts(case, restart, rng, n):
    """n attempts of one completion case: (hours, next states), ``_DONE`` or ``restart``.

    A failed attempt's hours include the restart overhead and the fresh
    aging onset that follow it."""
    bounds = np.cumsum([mass for mass, _ in case.post])  # reboot, fix, rest
    pre = case.pre_fail.sample(rng, n)
    # branch k where k of the first two cumulative masses lie at or below the pick
    branch = np.searchsorted(bounds[:2], rng.random(n) * bounds[2], "right")
    post = np.choose(branch, [law.sample(rng, n) for _, law in case.post])
    restart_hours = case.overhead.sample(rng, n) + case.aging.sample(rng, n)
    failed_pre = pre <= case.tau
    done = ~failed_pre & (post > case.delta)
    hours = np.where(done, case.t0, np.where(failed_pre, pre, case.tau + post) + restart_hours)
    return hours, np.where(done, _DONE, restart)


def simulate_completion(p: ModelParams, w: WorkloadSpec, c: SimConfig, point: int = 0) -> Estimate:
    """Wall-clock completion time under preemptive-repeat restarts: a walk
    over the cases, 0 (primary) or 1 (backup, with probability b2) at the
    start, until an attempt completes."""
    rng = _rng(c.seed, _TAG_COMPLETION, point)
    primary, backup = completion_cases(p, w)
    draws = [_pooled(rng, _attempts, primary, 0),
             _pooled(rng, _attempts, backup, 0 if w.backup_restart_via_primary else 1)]
    done = np.arange(_DONE + 1) == _DONE
    hours, _ = _runs(
        draws, c.replications, done, done, GUARD_HORIZON,
        lambda size: (rng.random(size) >= w.b1).astype(np.int8),
    )
    return _estimate("completion", hours, int(np.count_nonzero(hours >= GUARD_HORIZON)))

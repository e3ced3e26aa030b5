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
each case's attempts drawn in blocks.

Four credits replace draws by their conditional expectations
(conditional Monte Carlo; Asmussen & Glynn 2007, Stochastic Simulation,
V.4), while the walk still follows what it drew:

- a race credits its failure event's chance to win given the durations
  it drew, its arming draws integrated out.  Availability counts each
  credit as down for the mean of the failed state's law, and MTTF is the
  ratio E[T] = E[L] / p of hours to credits over the excursions;
- a completion attempt that outlives its pre-trigger failure draw
  credits its chance to complete, the branch pick and the post-trigger
  draw integrated out, and completion is the ratio of hours to credits;
- a state raced by one unthinned law draws nothing and stays that law's
  mean;
- a failed completion attempt's restart overhead and fresh aging onset
  take their laws' means.

Each credit is the expectation of what it replaces given everything the
walk drew before it, and whether a segment is counted depends only on
the segments before it, so every ratio and mean keeps its limit.  A race
credits its failure only if the failure would come before the walk's
limit (the horizon, or the guard), as those are the failures the walk
can meet: a run whose failure laws cannot fire by then reads an
availability of exactly 1.  Each
estimate draws from one stream keyed by (seed, metric, point), its
batches in order: results are reproducible, and the first k replications
are the same whatever the total.  Parameter sets, workloads and
:class:`SimConfig` check themselves when they are built.
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
    # replications censored at the guard horizon; for availability, the
    # counted cycles cut at the horizon
    truncated: int = 0
    # sampled failed-state visits (availability), failed replications (mttf),
    # failed attempts (completion): the events the credits stand in for
    failures: int = 0

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


def _outcomes(events, rng, n):
    """n independent races of one state: their sojourns and next states, and
    each event's drawn durations.

    Events draw n durations each in priority order, then n arming draws
    if thinned; a strict ``<`` gives ties to the earlier event.  A race
    no armed event enters lasts forever and leads to state -1."""
    best = np.full(n, math.inf)
    target = np.full(n, -1, np.int8)
    drawn = []
    for ev in events:
        d = ev.dist.sample(rng, n)
        drawn.append(d)
        if ev.thin < 1.0:
            d = np.where(rng.random(n) < ev.thin, d, math.inf)
        target[d < best] = ev.target
        np.minimum(best, d, out=best)
    return best, target, drawn


def _races(events, rng, n):
    """n independent races of one state: (sojourns, next states, failure credits,
    failure durations) as arrays.

    The failure event is the one that enters state 10 or 11.  Its credit
    is the chance, given the drawn durations, that it wins, the arming
    draws integrated out: its own arming chance c_f times 1 - c_k for each
    event k that beats it (sooner, or as soon and listed earlier), so 0
    once an unthinned event beats it: where no event is thinned, the drawn
    outcome."""
    best, target, drawn = _outcomes(events, rng, n)
    f = next((k for k, ev in enumerate(events) if ev.target >= _FAILED), None)
    if f is None:
        return best, target, np.zeros(n), best
    credit = np.full(n, events[f].thin)
    for k, ev in enumerate(events):
        if k != f and ev.thin > 0.0:
            beats = drawn[k] <= drawn[f] if k < f else drawn[k] < drawn[f]
            np.multiply(credit, 1.0 - ev.thin, out=credit, where=beats)
    return best, target, credit, drawn[f]


def _single(events):
    """Whether a state is raced by one unthinned law."""
    return len(events) == 1 and events[0].thin == 1.0


def _draw(events, down, passes, rng, n):
    """n steps of one state for a walk: (hours, next states), and for a race with
    a thinned event the credits it adds to the walk's drawn failures, with the
    failure durations.

    A state raced by one unthinned law draws nothing: it stays that law's
    mean, which is the expectation of the stay it would draw.  The walk
    meets its drawn failures itself, as visits to state 10 or 11 or as an
    excursion's end, so a race without a thinned event (``down`` None)
    adds nothing, its credit being its outcome; one with a thinned event
    adds its credit less its outcome, times ``down``.  Given ``passes``,
    (hours, states) per state, a step into a state goes on to the state it
    passes to, adding those hours."""
    if _single(events):
        steps = np.full(n, events[0].dist.mean()), np.full(n, events[0].target, np.int8)
    elif down is None:
        steps = _outcomes(events, rng, n)[:2]
    else:
        sojourns, nxt, credit, reach = _races(events, rng, n)
        steps = sojourns, nxt, down * (credit - (nxt >= _FAILED)), reach
    if passes is None:
        return steps
    hours, to = passes
    return steps[0] + hours[steps[1]], to[steps[1]], *steps[2:]


def _walker(rng, events, stops, down):
    """Pooled steps of each state for walks that stop on ``stops``, and
    ``start(size)``: the hours and states of walks from state 0.

    A state raced by one unthinned law that neither fails nor stops the
    walk is passed at once: a step into it adds its law's mean and goes on,
    as does a walk that starts in one.  ``down[k]`` scales the credits of
    state k's races."""
    hours, to = np.zeros(len(events) + 1), np.arange(len(events) + 1, dtype=np.int8)
    to[-1] = -1  # an endless race's state -1 leads nowhere
    for k in range(len(events)):
        s = k
        while s < _FAILED and not stops[s] and _single(events[s]):
            hours[k] += events[s][0].dist.mean()
            s = events[s][0].target
        to[k] = s
    draws = [
        _pooled(
            rng, _draw, row,
            scale if any(ev.thin < 1.0 for ev in row) else None,
            (hours, to) if any(to[ev.target] != ev.target for ev in row) else None,
        )
        for row, scale in zip(events, down)
    ]
    h, s = 0.0, 0
    if _single(events[0]):
        (ev,) = events[0]
        h, s = ev.dist.mean() + hours[ev.target], to[ev.target]
    return draws, lambda size: (np.full(size, h), np.full(size, s, np.int8))


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


def _walk(draws, hours, state, stops, limit):
    """Lockstep walks from ``hours`` in ``state``, each until it enters ``stops`` or its
    hours reach limit.

    Each step sorts the live walks by state and takes each state's steps in one
    call, ``draws[k](count)`` -> (hours, next states[, credits, failure durations]).
    Returns the hours (capped at limit), the last states, each walk's credits and
    its visits to state 10 and to 11.  A credit counts only if its failure would
    come before limit, as the walk meets only those failures.  An endless race
    (state -1) stops by the limit."""
    live = np.flatnonzero(hours < limit)
    credits, failed = np.zeros(state.size), [(live[:0], live[:0])]
    while live.size:
        live = live[state[live].argsort(kind="stable")]
        counts = np.bincount(state[live]).tolist()
        before = hours[live]
        steps, at = [], 0
        for k, m in enumerate(counts):
            if m:
                step = draws[k](m)
                if len(step) > 2:
                    walks, due = live[at : at + m], before[at : at + m] + step[3]
                    np.add.at(credits, walks, np.where(due < limit, step[2], 0.0))
                steps.append(step[:2])
                at += m
        dt, nxt = map(np.concatenate, zip(*steps))
        if len(counts) > _FAILED:  # walks in failed states sort last, 10 before 11
            at, m = sum(counts[:_FAILED]), counts[_FAILED]
            failed.append((live[at : at + m], live[at + m :]))
        hours[live] = now = before + dt
        state[live] = nxt
        live = live[~stops[nxt] & (now < limit)]
    visits = [np.bincount(np.concatenate(v), minlength=state.size) for v in zip(*failed)]
    return np.minimum(hours, limit), state, credits, visits


def _runs(draws, n, stops, final, limit, start, count, warmup=0.0):
    """The first n replications: their hours, capped at limit, and their sums.

    Segments are walks from ``start(size)``, (hours, states), in batches that double
    from FIRST_BATCH to MAX_BATCH: the first k replications do not depend on n.  A
    replication takes segments until one ends in a ``final`` state or its hours reach
    limit.  ``count(hours, credits, visits)`` gives per walk what to sum, (k, n), over
    each replication's walks that start from warmup on: whether a walk counts
    depends only on the walks before it."""
    hours, sums, acc = np.empty(n), None, 0.0  # acc: the open replication's sums
    closed, carry = 0, 0.0  # replications closed; hours of the open one
    for b in itertools.count():
        size = min(FIRST_BATCH << b, MAX_BATCH)
        seg_hours, last, credits, visits = _walk(draws, *start(size), stops, limit)
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
        kept = min(ends.size, n - closed)  # those closed here that are among the first n
        hours[closed : closed + kept] = clock[ends[:kept] + 1] - base[:kept]
        first, stop = np.append(1, ends + 1), np.append(ends, size) + 1  # counted: [first, stop)
        if warmup:
            first = np.minimum(np.maximum(clock.searchsorted(base + warmup), first), stop)
        part = []
        for x in count(seg_hours, credits, visits):
            cum = np.concatenate(([0, 0], x)).cumsum()
            part.append(cum[stop] - cum[first])
        part = np.array(part)
        part[:, 0] += acc
        acc = part[:, -1].copy()
        sums = np.empty((len(part), n)) if sums is None else sums
        sums[:, closed : closed + kept] = part[:, :kept]
        closed += kept
        carry = clock[-1] - base[-1]
        # the batch's arrays go before the next walk, not after it: peak memory
        del seg_hours, last, credits, visits, clock, ends, tail, base, first, stop, part, cum, x
        if closed == n:
            return np.minimum(hours, limit, out=hours), sums


def simulate_availability(p: ModelParams, c: SimConfig, point: int = 0) -> Estimate:
    """Up-hours over hours, summed over whole cycles, with a delta-method interval.

    A replication runs cycles from state 0 until its hours reach the horizon, and
    counts those that start from the warm-up on; ``truncated`` counts the counted
    cycles cut at the horizon.  The down hours are each race's failure credit times
    the mean of the failed state's law, not the sampled failed stays (conditional
    Monte Carlo); ``failures`` counts the sampled visits.  ``point`` selects the
    stream of a study's point."""
    rng, events, n = _rng(c.seed, _TAG_AVAILABILITY, point), state_events(p), c.replications
    states = np.arange(len(events))
    stay = [row[0].dist.mean() for row in events[_FAILED:]]  # in state 10, 11
    down = [next((stay[ev.target - _FAILED] for ev in row if ev.target >= _FAILED), 0.0)
            for row in events]  # the hours a failure credit of each state's races counts
    draws, start = _walker(rng, events, states == 0, down)

    def count(hours, credits, visits):
        # each drawn failure is met by its visit; credits add the rest
        down = credits + stay[0] * visits[0] + stay[1] * visits[1]
        return hours, down, visits[0] + visits[1], hours >= c.horizon

    _, (hours, down, visits, cut) = _runs(
        draws, n, states == 0, states < 0, c.horizon, start, count, c.warmup
    )
    if not hours.any():
        raise ValueError(f"no cycle starts between warmup {c.warmup} and horizon {c.horizon}")
    return _estimate("availability", hours - down, int(cut.sum()), int(visits.sum()), per=hours)


def simulate_mttf(p: ModelParams, c: SimConfig, point: int = 0) -> Estimate:
    """Time to first entry into a failed state, repair disabled: a run of
    excursions, each from state 0 to its next entry or to a failed state.

    The estimate is the regenerative ratio E[T] = E[L] / p of hours to failure
    credits over each replication's excursions (conditional Monte Carlo), or,
    once a replication is censored at the guard horizon, the mean of the capped
    hours."""
    rng = _rng(c.seed, _TAG_MTTF, point)
    events = state_events(p)
    states = np.arange(len(events))
    failed = states >= _FAILED
    draws, start = _walker(rng, events, failed | (states == 0), [1.0] * len(events))
    hours, (credits,) = _runs(
        draws, c.replications, failed | (states == 0), failed, GUARD_HORIZON, start,
        lambda hours, credits, visits: (credits,),
    )
    truncated = int(np.count_nonzero(hours >= GUARD_HORIZON))
    # a replication not censored ends in one drawn failure, credited 1
    per = None if truncated else 1.0 + credits
    return _estimate("mttf", hours, truncated, hours.size - truncated, per=per)


def _attempts(case, restart, chance, rng, n):
    """n attempts of one completion case: (hours, next states, credits less outcomes,
    dues), the next state ``_DONE`` or ``restart``.

    An attempt that outlives its pre-trigger failure draw is credited ``chance``, its
    chance to complete, and one that does not, 0.  A failed attempt's hours include the
    restart overhead and the fresh aging onset that follow it, each at its law's mean:
    they draw nothing."""
    pre = case.pre_fail.sample(rng, n)
    bounds = np.cumsum([mass for mass, _ in case.post])  # reboot, fix, rest
    pick = rng.random(n) * bounds[2]
    # branch k where k of the first two cumulative masses lie at or below the pick;
    # each branch's law is drawn only for the attempts that picked it
    picks = pick < bounds[0], (bounds[0] <= pick) & (pick < bounds[1]), bounds[1] <= pick
    post = np.empty(n)
    for picked, (_, law) in zip(picks, case.post):
        post[picked] = law.sample(rng, np.count_nonzero(picked))
    restart_hours = case.overhead.mean() + case.aging.mean()
    failed_pre = pre <= case.tau
    done = ~failed_pre & (post > case.delta)
    hours = np.where(done, case.t0, np.where(failed_pre, pre, case.tau + post) + restart_hours)
    credit = np.where(failed_pre, 0.0, chance)
    return hours, np.where(done, _DONE, restart), credit - done, np.zeros(n)


def simulate_completion(p: ModelParams, w: WorkloadSpec, c: SimConfig, point: int = 0) -> Estimate:
    """Wall-clock completion time under preemptive-repeat restarts: a walk
    over the cases, 0 (primary) or 1 (backup, with probability b2) at the
    start, until an attempt completes.

    The estimate is the ratio of hours to completion credits (conditional Monte
    Carlo), or, once a replication is censored at the guard horizon, the mean of the
    capped hours: a replication ends at its first drawn completion, so by optional
    stopping its credits have mean 1.  ``failures`` counts the sampled failed attempts."""
    rng = _rng(c.seed, _TAG_COMPLETION, point)
    draws = []
    # a failed attempt enters failed state 10 to restart the primary case or 11 the
    # backup, which draw as states 0 and 1 do: the walk counts them as visits
    for case, restart in zip(completion_cases(p, w), (0, 0 if w.backup_restart_via_primary else 1)):
        # a case with no post-trigger mass fails every attempt before its trigger
        mass = math.fsum(m for m, _ in case.post) or math.inf
        chance = math.fsum(m * law.survival(case.delta) for m, law in case.post) / mass
        draws.append(_pooled(rng, _attempts, case, _FAILED + restart, chance))
    draws += [None] * (_FAILED - 2) + draws
    done = np.arange(_FAILED + 2) == _DONE
    hours, (credits, failed) = _runs(
        draws, c.replications, done, done, GUARD_HORIZON,
        lambda size: (np.zeros(size), (rng.random(size) >= w.b1).astype(np.int8)),
        lambda hours, credits, visits: (credits, visits[0] + visits[1]),
    )
    truncated = int(np.count_nonzero(hours >= GUARD_HORIZON))
    # a replication not censored ends at one drawn completion, credited 1
    per = None if truncated else np.add(credits, 1.0, out=credits)
    return _estimate("completion", hours, truncated, int(failed.sum()), per=per)

import math

import numpy as np
import pytest

import rejuvkit.model as model
import rejuvkit.simulator as sim
from rejuvkit import (
    Deterministic,
    Exponential,
    SimConfig,
    WorkloadSpec,
    availability,
    completion_time,
    mttf,
    simulate_availability,
    simulate_completion,
    simulate_mttf,
    state_events,
)
from rejuvkit.analysis import completion_cases, metrics_report
from rejuvkit.config import bundled_config_names, load_config
from rejuvkit.model import _Event, sojourn_times, transition_matrix
from rejuvkit.toolkit import apply_variable
from tests.conftest import make_params

NEVER = Deterministic(1e9)


def test_simconfig_validation():
    with pytest.raises(ValueError, match="2 replications"):
        SimConfig(replications=1, seed=1)
    with pytest.raises(ValueError, match="warmup"):
        SimConfig(replications=10, seed=1, horizon=10.0, warmup=10.0)
    with pytest.raises(ValueError, match="finite horizon"):
        SimConfig(replications=10, seed=1, horizon=math.inf)


def test_determinism_bit_identical():
    p = make_params()
    cfg = SimConfig(replications=20, seed=777, horizon=2e4, warmup=500.0)
    a = simulate_availability(p, cfg)
    b = simulate_availability(p, cfg)
    assert a == b
    w = WorkloadSpec(x=590.6201, r1=0.566316)
    assert simulate_completion(p, w, cfg) == simulate_completion(p, w, cfg)
    assert simulate_mttf(p, SimConfig(replications=10, seed=3)) == simulate_mttf(
        p, SimConfig(replications=10, seed=3)
    )


def test_no_failures_availability_is_one():
    p = make_params(failure=NEVER)
    est = simulate_availability(p, SimConfig(replications=5, seed=11, horizon=5e4))
    assert est.mean == 1.0 and est.ci_low == 1.0 and est.ci_high == 1.0


def test_availability_counts_whole_cycles_from_warmup():
    # aging after exactly 4 h, failure 6 h later, repair in 2 h: 12 h
    # cycles, each down over [10, 12).  A replication runs the cycles that
    # start at 0, 12, ..., 84, the last one ending past the 95 h horizon,
    # and counts the 7 that start from the 11 h warm-up on, whole: 84 h,
    # 14 h down.  8 replications, so every ratio and sum is exact.
    p = make_params(
        aging=Deterministic(4.0),
        failure=Deterministic(6.0),
        fixing=Deterministic(2.0),
        trigger=1e5,
        c=(1.0, 0.0, 0.0),
    )
    est = simulate_availability(p, SimConfig(replications=8, seed=5, horizon=95.0, warmup=11.0))
    assert est.mean == 1.0 - 14.0 / 84.0
    assert est.ci_low == est.ci_high == est.mean
    assert est.failures == 8 * 7


def test_availability_credits_a_failed_visit_its_laws_mean(monkeypatch):
    # aging after exactly 4 h, then in state 8 the failure at 6 h races the
    # reboot at 1 h (armed with c2 = 0.5) and the fixing at 2 h (c3 = 0.25);
    # the trigger at 1e5 h never beats it.  Given those durations the failure
    # wins with chance (1 - 0.5)(1 - 0.25) = 0.375, whatever the drawn arming,
    # and it would come at 10 h, before the 10.5 h horizon.  Every other
    # failure would come past the horizon, so each replication is one cycle
    # cut at 10.5 h and down 0.375 times the fixing law's mean(), which reports
    # 3 h while its draws stay 2 h.  The kernel, and with it sojourn_times, is
    # switched off: the oracle shares none of the analytic engine's code.
    def switched_off(*args):
        raise AssertionError("the simulator used the analytic kernel")

    monkeypatch.setattr(model, "_kernel", switched_off)
    monkeypatch.setattr(Deterministic, "mean", lambda d: 3.0 if d.offset == 2.0 else d.offset)
    p = make_params(
        aging=Deterministic(4.0),
        failure=Deterministic(6.0),
        fixing=Deterministic(2.0),
        reboot=Deterministic(1.0),
        trigger=1e5,
        c=(0.25, 0.5, 0.25),
    )
    est = simulate_availability(p, SimConfig(replications=8, seed=5, horizon=10.5))
    assert est.mean == 8 * (10.5 - 0.375 * 3.0) / (8 * 10.5)
    assert est.ci_low == est.ci_high == est.mean
    assert est.truncated == 8


def test_availability_reports_cycles_cut_at_the_horizon():
    # a first cycle of ~1e9 h is cut at the 1e4 h horizon: each replication
    # counts that one cut cycle, and the estimate says so
    p = make_params(aging=Exponential(1e-9))
    est = simulate_availability(p, SimConfig(replications=4, seed=1, horizon=1e4))
    assert est.truncated == est.replications == 4


@pytest.mark.parametrize("name", bundled_config_names())
def test_failed_states_race_one_unthinned_law(name):
    # the premise of that credit: a failed state's stay is one unthinned law's draw
    p = load_config(name).params
    assert state_events(p)[10:] == [
        [_Event(p.fixing_primary, 1.0, 0)],
        [_Event(p.fixing_backup, 1.0, 7)],
    ]


def test_estimate_reports_failures_and_relative_half_width():
    # built positionally with 5 fields, as perfbench's gate builds it
    est = sim.Estimate("availability", 0.99, 0.985, 0.995, 1000)
    assert (est.truncated, est.failures) == (0, 0)
    assert est.rel_half_width == pytest.approx(0.5)
    assert sim.Estimate("mttf", 200.0, 190.0, 210.0, 10).rel_half_width == 0.05
    assert sim.Estimate("availability", 1.0, 1.0, 1.0, 10).rel_half_width == math.inf
    p = make_params()
    est = simulate_mttf(p, SimConfig(replications=50, seed=3))
    assert est.failures == 50 - est.truncated == 50
    est = simulate_availability(p, SimConfig(replications=50, seed=3, horizon=2e4))
    assert est.failures > 0
    assert est.rel_half_width == (est.ci_high - est.ci_low) / (2.0 * (1.0 - est.mean))
    w = WorkloadSpec(x=590.6201, r1=0.566316)
    assert simulate_completion(p, w, SimConfig(replications=50, seed=3)).failures > 0
    never = make_params(failure=NEVER)
    assert simulate_completion(never, w, SimConfig(replications=50, seed=3)).failures == 0


def test_availability_without_a_counted_cycle_is_refused():
    # a first cycle of ~1e9 h, cut at the 1e4 h horizon, starts before the
    # warm-up in every replication: no cycle is counted, and no ratio exists
    p = make_params(aging=Exponential(1e-9))
    with pytest.raises(ValueError, match="no cycle starts between warmup 100.0"):
        simulate_availability(p, SimConfig(replications=4, seed=1, horizon=1e4, warmup=100.0))


def test_degenerate_mttf_path():
    # aging after exactly 4 h, failure exactly 6 h later, nothing else armed
    p = make_params(
        aging=Deterministic(4.0), failure=Deterministic(6.0), trigger=1e5, c=(1.0, 0.0, 0.0)
    )
    est = simulate_mttf(p, SimConfig(replications=8, seed=5))
    assert est.mean == pytest.approx(10.0, abs=1e-12)
    assert est.ci_low == est.ci_high == est.mean


def test_no_failure_completion_is_structural():
    p = make_params(failure=NEVER, trigger=30.0)
    w = WorkloadSpec(x=200.0, r1=0.8)
    est = simulate_completion(p, w, SimConfig(replications=10, seed=2))
    expected = 30.0 / 0.8 + 170.0
    assert est.mean == pytest.approx(expected, abs=1e-9)
    assert est.ci_high - est.ci_low == pytest.approx(0.0, abs=1e-9)


def test_t_quantile_matches_scipy():
    import numpy as np
    from scipy.special import stdtrit

    grid = np.unique(np.geomspace(300, 200_000, 120).round().astype(int))
    for df in [*range(1, 301), *grid.tolist(), 300_000, 1_000_000, 10_000_000, 1_000_000_000]:
        assert sim._t975(df) == pytest.approx(stdtrit(df, 0.975), rel=1e-14, abs=0.0)


def _step(events, rng):
    """The scalar race, one draw at a time: the oracle for ``sim._races``.

    (sojourn, next state); simultaneous firings go to the earlier event."""
    best = math.inf
    target = -1
    for ev in events:
        if ev.thin < 1.0 and rng.random() >= ev.thin:
            continue
        d = ev.dist.sample(rng)
        if d < best:
            best = d
            target = ev.target
    return best, target


def _stepped(events, rng, n):
    """n scalar races, in the form ``sim._races`` returns them: each failure's
    credit is its drawn outcome, and its duration the sojourn."""
    sojourns, targets = map(np.array, zip(*(_step(events, rng) for _ in range(n))))
    return sojourns, targets, (targets >= 10) * 1.0, sojourns


# --- the per-event walkers: oracles for the batched estimators ---------------


def _outcomes(events, rng):
    """The races of one state, one (sojourn, next state) per entry, drawn 1,024 at a time."""
    while True:
        yield from zip(*(x.tolist() for x in sim._races(events, rng, 1024)[:2]))


def _downtime(races, horizon, warmup):
    """(hours, hours in the failed states 10 and 11) of a run's whole cycles
    that start from warmup on.

    The run takes cycles from state 0 until its hours reach horizon; a cycle
    ends on its next entry to state 0, or once its own hours reach horizon.
    Each stay in a failed state counts as sampled."""
    hours = down = t = 0.0
    while t < horizon:
        length = stay = 0.0
        state = 0
        while length < horizon:
            dt, nxt = next(races[state])
            stay += dt if state >= 10 else 0.0
            length += dt  # inf, when every armed event declines, ends the run
            state = nxt
            if state == 0:
                break
        length = min(length, horizon)
        if t >= warmup:
            hours += length
            down += stay
        t += length
    return hours, down


def scalar_availability(p, c):
    rng = sim._rng(c.seed, sim._TAG_AVAILABILITY, 0)
    races = [_outcomes(events, rng) for events in state_events(p)]
    runs = [_downtime(races, c.horizon, c.warmup) for _ in range(c.replications)]
    hours, down = np.array(runs).T
    return sim._estimate("availability", hours - down, per=hours)


def scalar_mttf(p, c):
    rng = sim._rng(c.seed, sim._TAG_MTTF, 0)
    races = [_outcomes(events, rng) for events in state_events(p)]
    values = []
    truncated = 0
    for _ in range(c.replications):
        t = 0.0
        state = 0
        while state < 10:
            dt, state = next(races[state])
            t += dt
            if t > sim.GUARD_HORIZON:
                truncated += 1
                t = sim.GUARD_HORIZON
                break
        values.append(t)
    return sim._estimate("mttf", values, truncated)


def _attempts(case, rng):
    """Attempts of one completion case, one at a time: (completed?, hours).

    A failed attempt's hours include its sampled restart overhead and
    fresh aging onset."""
    bounds = np.cumsum([mass for mass, _ in case.post])  # reboot, fix, rest
    while True:
        pre = case.pre_fail.sample(rng)
        branch = np.searchsorted(bounds[:2], rng.random() * bounds[2], "right")
        post = case.post[branch][1].sample(rng)
        restart = case.overhead.sample(rng) + case.aging.sample(rng)
        if pre <= case.tau:
            yield False, pre + restart
        elif post <= case.delta:
            yield False, case.tau + post + restart
        else:
            yield True, case.t0


def scalar_completion(p, w, c):
    rng = sim._rng(c.seed, sim._TAG_COMPLETION, 0)
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
            if clock > sim.GUARD_HORIZON:
                truncated += 1
                clock = sim.GUARD_HORIZON
                break
        values.append(clock)
    return sim._estimate("completion", values, truncated)


def _race_points():
    cfg = load_config("preset_f_hypo")
    return {
        "f_hypo_t0": apply_variable(cfg, "trigger_interval", 0.0).params,
        "f_hypo_t27": apply_variable(cfg, "trigger_interval", 27.0).params,
        "exp_a1": make_params(a1=Exponential(1 / 30)),
    }


@pytest.mark.parametrize("point", ["f_hypo_t0", "f_hypo_t27", "exp_a1"])
@pytest.mark.parametrize(
    "draw, n", [(sim._races, 40_000), (_stepped, 4_000)], ids=["pooled", "scalar"]
)
def test_races_match_the_analytic_rows(point, draw, n):
    # next-state frequencies within a 4-sigma multinomial bound of the
    # kernel row, the mean sojourn within 4 standard errors, and the mean
    # failure credit within that multinomial bound of the row's failure
    # entry (a credit in [0, 1] with mean q has variance at most q(1 - q))
    p = _race_points()[point]
    P, h = transition_matrix(p), sojourn_times(p)
    rng = np.random.default_rng(2024)
    for i, events in enumerate(state_events(p)):
        sojourns, targets, credits, _ = draw(events, rng, n)
        freq = np.bincount(targets, minlength=12) / n
        bound = 4.0 * np.sqrt(P[i] * (1.0 - P[i]) / n) + 1e-12
        assert np.all(np.abs(freq - P[i]) <= bound), (i, freq, P[i])
        se = np.std(sojourns, ddof=1) / math.sqrt(n)
        assert abs(np.mean(sojourns) - h[i]) <= 4.0 * se + 1e-12 * h[i], (i, h[i])
        fail = P[i, 10:].sum()
        bound = 4.0 * math.sqrt(fail * (1.0 - fail) / n) + 1e-12
        assert abs(np.mean(credits) - fail) <= bound, (i, np.mean(credits), fail)


def test_race_credits_integrate_out_the_arming():
    # the failure at 6 h beats the trigger at 1e5 h; it is beaten by the reboot
    # at 1 h (armed with 0.5), and by the fixing at 6 h on the tie only if the
    # fixing were listed first: each race credits (1 - 0.5), whatever it drew,
    # and its failure duration is 6 h
    events = [
        _Event(Deterministic(6.0), 1.0, 10),
        _Event(Deterministic(1e5), 0.25, 2),
        _Event(Deterministic(1.0), 0.5, 3),
        _Event(Deterministic(6.0), 0.25, 6),
    ]
    sojourns, targets, credits, durations = sim._races(events, np.random.default_rng(3), 1000)
    assert np.array_equal(credits, [0.5] * 1000) and np.array_equal(durations, [6.0] * 1000)
    assert set(targets.tolist()) == {3, 10} and set(sojourns.tolist()) == {1.0, 6.0}
    # listed first, a thinned event beats the failure on the tie too
    events = [_Event(Deterministic(6.0), 0.5, 3), _Event(Deterministic(6.0), 1.0, 10)]
    _, targets, credits, _ = sim._races(events, np.random.default_rng(3), 1000)
    assert np.array_equal(credits, [0.5] * 1000) and set(targets.tolist()) == {3, 10}
    # an unthinned race credits its drawn outcome
    events = [_Event(Exponential(1.0), 1.0, 7), _Event(Exponential(1.0), 1.0, 10)]
    _, targets, credits, _ = sim._races(events, np.random.default_rng(3), 1000)
    assert np.array_equal(credits, targets == 10)


@pytest.mark.parametrize("draw", [sim._races, _stepped], ids=["pooled", "scalar"])
def test_race_ties_go_to_the_earlier_event(draw):
    events = [_Event(Deterministic(5.0), 1.0, 3), _Event(Deterministic(5.0), 1.0, 7)]
    sojourns, targets, *_ = draw(events, np.random.default_rng(1), 100)
    assert np.array_equal(sojourns, [5.0] * 100) and np.array_equal(targets, [3] * 100)


@pytest.mark.parametrize(
    "name, trigger",
    [("preset_f_hypo", 0.0), ("preset_f_hypo", 27.0), ("preset_a_hypo_f_hypo_erl", None)],
)
def test_batched_estimates_match_the_per_event_walkers(name, trigger):
    # independent streams: the batched walker at seed 3, the per-event
    # walkers at seed 4; each metric's two means lie within 4 combined
    # standard errors.  The per-event walkers sample every stay and count
    # every failure they meet, where the batched ones credit each race its
    # chance of failure and stay in a one-law state for that law's mean.
    cfg = load_config(name)
    if trigger is not None:
        cfg = apply_variable(cfg, "trigger_interval", trigger)
    p, w = cfg.params, cfg.workload
    long_run = dict(horizon=5e4, warmup=5e3)
    pairs = [
        (
            simulate_availability(p, SimConfig(400, 3, **long_run)),
            scalar_availability(p, SimConfig(400, 4, **long_run)),
        ),
        (simulate_mttf(p, SimConfig(2000, 3)), scalar_mttf(p, SimConfig(2000, 4))),
        (
            simulate_completion(p, w, SimConfig(4000, 3)),
            scalar_completion(p, w, SimConfig(4000, 4)),
        ),
    ]
    for pair in pairs:
        se = [(e.ci_high - e.ci_low) / (2.0 * sim._t975(e.replications - 1)) for e in pair]
        assert abs(pair[0].mean - pair[1].mean) < 4.0 * math.hypot(*se), pair


def test_replications_are_a_stable_prefix(monkeypatch):
    # one stream per estimate, its segment batches drawn in order: more
    # replications only append values, and each long case spans batches
    seen = []
    batches = []
    walk = sim._walk
    monkeypatch.setattr(
        sim,
        "_estimate",
        lambda metric, values, truncated=0, failures=0, per=None: seen.append(
            list(values if per is None else zip(values, per))
        ),
    )
    monkeypatch.setattr(sim, "_walk", lambda *args: batches.append(1) or walk(*args))
    p = make_params()
    w = WorkloadSpec(x=590.6201, r1=0.566316)
    for short in (True, False):
        for run, many in (
            (lambda n: simulate_availability(p, SimConfig(n, seed=4, horizon=2e4)), 300),
            (lambda n: simulate_mttf(p, SimConfig(n, seed=4)), 3000),
            (lambda n: simulate_completion(p, w, SimConfig(n, seed=4)), 3000),
        ):
            batches.clear()
            run(5 if short else many)
            assert len(batches) == 1 if short else len(batches) >= 2
    for few, many in zip(seen[:3], seen[3:]):
        assert len(few) == 5 and many[:5] == few


def test_ci_width_shrinks_like_root_n():
    p = make_params()
    w = WorkloadSpec(x=590.6201, r1=0.566316)
    small = simulate_completion(p, w, SimConfig(replications=400, seed=9))
    large = simulate_completion(p, w, SimConfig(replications=1600, seed=9))
    ratio = (small.ci_high - small.ci_low) / (large.ci_high - large.ci_low)
    assert ratio == pytest.approx(2.0, rel=0.10)


def test_mttf_ci_contains_analytic():
    p = make_params()
    est = simulate_mttf(p, SimConfig(replications=600, seed=31))
    assert est.truncated == 0
    assert est.ci_low <= mttf(p) <= est.ci_high


def test_completion_matches_analytic_within_three_halfwidths():
    p = make_params()
    w = WorkloadSpec(x=590.6201, r1=0.566316)
    est = simulate_completion(p, w, SimConfig(replications=4000, seed=13))
    analytic = completion_time(p, w, method="analytic")
    half = (est.ci_high - est.ci_low) / 2.0
    assert abs(est.mean - analytic) <= 3.0 * half


def test_backup_case_and_routing_simulated():
    p = make_params(trigger=25.0)
    w = WorkloadSpec(x=400.0, x1=100.0, r1=0.8, t1=25.0, b1=0.0, b2=1.0)
    est = simulate_completion(p, w, SimConfig(replications=4000, seed=21))
    analytic = completion_time(p, w, method="analytic")
    half = (est.ci_high - est.ci_low) / 2.0
    assert abs(est.mean - analytic) <= 3.0 * half


def test_availability_ci_coverage():
    # CI construction coverage over 1,000 independent runs.  The 5e3 h
    # warm-up sheds most of the start in state 0 (a failure needs aging
    # first, and the MTTF is ~6,700 h), so the 95% intervals cover the
    # steady-state value at close to their nominal rate.
    p = make_params()
    truth = availability(p)
    hits = 0
    for run in range(1000):
        est = simulate_availability(
            p, SimConfig(replications=60, seed=808_000 + run, horizon=3e4, warmup=5e3)
        )
        hits += est.ci_low <= truth <= est.ci_high
    assert 930 <= hits <= 970


def test_mttf_ci_coverage():
    # the same check for the MTTF ratio of hours to failure credits: over
    # 1,000 independent runs its 95% intervals cover mttf(p) at close to
    # their nominal rate
    p = make_params()
    truth = mttf(p)
    hits = 0
    for run in range(1000):
        est = simulate_mttf(p, SimConfig(replications=200, seed=909_000 + run))
        hits += est.ci_low <= truth <= est.ci_high
    assert 930 <= hits <= 970


def test_completion_ci_coverage():
    # the same check for the completion ratio of hours to completion credits
    p = make_params()
    w = WorkloadSpec(x=590.6201, r1=0.566316)
    truth = completion_time(p, w, method="analytic")
    hits = 0
    for run in range(1000):
        est = simulate_completion(p, w, SimConfig(replications=200, seed=707_000 + run))
        hits += est.ci_low <= truth <= est.ci_high
    assert 930 <= hits <= 970


def test_availability_has_no_start_transient():
    # Without a warm-up a replication starts in state 0, aged only after a
    # wait: a fixed window from time 0 would see too little downtime.  The
    # ratio over whole regenerative cycles has no start transient, so even
    # the narrow interval of 60,000 short runs lies within 2 half-widths.
    p = make_params()
    est = simulate_availability(p, SimConfig(replications=60_000, seed=808, horizon=3e4))
    half = (est.ci_high - est.ci_low) / 2.0
    assert abs(est.mean - availability(p)) <= 2.0 * half


def simulate_occupancy(p, c, tag=4):
    """Per-state occupancy fractions: (means, standard errors), length 12.

    The per-event availability walker, on its own stream, keeping the
    time spent in every state."""
    rng = sim._rng(c.seed, tag, 0)
    races = [_outcomes(events, rng) for events in state_events(p)]
    rows = np.zeros((c.replications, len(races)))
    for row in rows:
        t = 0.0
        state = 0
        while t < c.horizon:
            dt, nxt = next(races[state])
            overlap = min(t + dt, c.horizon) - max(t, c.warmup)
            if overlap > 0.0:
                row[state] += overlap
            t += dt
            state = nxt
    rows /= c.horizon - c.warmup
    return rows.mean(axis=0), rows.std(axis=0, ddof=1) / math.sqrt(c.replications)


def test_occupancy_matches_pi_within_three_stderr():
    # horizon long enough that the finite-run renewal bias of the rare
    # migration states sits well inside three standard errors
    p = make_params()
    pi = metrics_report(p).pi
    means, stderr = simulate_occupancy(
        p, SimConfig(replications=100, seed=55, horizon=4e5, warmup=4e3)
    )
    for i in range(12):
        bound = 3.0 * max(stderr[i], 1e-9)
        assert abs(means[i] - pi[i]) <= bound, (i, means[i], pi[i], stderr[i])


def test_guard_horizon_truncation_reported(monkeypatch):
    monkeypatch.setattr(sim, "GUARD_HORIZON", 5000.0)
    p = make_params(failure=NEVER)  # absorption unreachable
    est = simulate_mttf(p, SimConfig(replications=4, seed=17))
    assert est.truncated == 4 and est.failures == 0
    assert est.mean == 5000.0


def test_completion_guard_horizon_truncation_reported(monkeypatch):
    monkeypatch.setattr(sim, "GUARD_HORIZON", 5000.0)
    # an attempt of several hundred hours against a 20-hour mean failure
    # time: every replication keeps restarting past the guard
    p = make_params(failure=Exponential(0.05))
    w = WorkloadSpec(x=590.6201, r1=0.566316)
    est = simulate_completion(p, w, SimConfig(replications=4, seed=17))
    assert est.truncated == 4
    assert est.mean == 5000.0


@pytest.mark.parametrize("b1", [1.0, 0.5])
def test_completion_case_without_post_trigger_mass(b1):
    # a backup that always fails before its trigger epoch (53 h) has no
    # post-trigger mass: each of its attempts fails and restarts the primary
    # case, whether or not the backup case is ever entered
    p = make_params(fail_idle_backup=Deterministic(10.0))
    w = WorkloadSpec(x=590.6201, r1=0.566316, b1=b1, b2=1.0 - b1)
    assert sum(m for m, _ in completion_cases(p, w)[1].post) == 0.0
    truth = completion_time(p, w, method="analytic")
    est = simulate_completion(p, w, SimConfig(replications=2000, seed=3))
    assert est.failures > 0
    assert abs(est.mean - truth) <= 3.0 * (est.ci_high - est.ci_low) / 2.0


def _attempt_args(monkeypatch, p, w):
    """The (case, restart, chance) with which simulate_completion draws each case's
    attempts."""
    seen, pooled = [], sim._pooled
    monkeypatch.setattr(sim, "GUARD_HORIZON", 5000.0)  # a walk that never completes stops
    monkeypatch.setattr(
        sim, "_pooled", lambda rng, draw, *args: seen.append(args) or pooled(rng, draw, *args)
    )
    simulate_completion(p, w, SimConfig(replications=2, seed=1))
    return seen


@pytest.mark.parametrize(
    "failures",
    [{}, dict(fail_fixing_primary=Exponential(0.01), fail_reboot_primary=Exponential(0.002))],
)
def test_completion_credits_average_to_the_outcomes(monkeypatch, failures):
    # each attempt is credited its chance to complete given its pre-trigger
    # draw: over 1e5 attempts, credits less outcomes sum to within 4 standard
    # errors of 0, whether the three post-trigger branches draw one law or several
    w = WorkloadSpec(x=590.6201, r1=0.566316)
    (case, restart, chance), _ = _attempt_args(monkeypatch, make_params(**failures), w)
    assert 0.0 < chance < 1.0
    assert len({law for _, law in case.post}) == (3 if failures else 1)
    _, _, excess, due = sim._attempts(case, restart, chance, np.random.default_rng(5), 100_000)
    assert not due.any()
    assert abs(excess.sum()) < 4.0 * excess.std(ddof=1) * math.sqrt(excess.size)


@pytest.mark.parametrize("post", [1e4, 1.0])
def test_completion_credit_of_point_mass_post_laws_is_the_outcome(monkeypatch, post):
    # a point-mass post-trigger law completes every attempt that reaches it, or
    # none: the credit given the pre-trigger draw is then the outcome itself
    idle = Exponential(0.01)
    p = make_params(failure=Deterministic(post), fail_idle_primary=idle, fail_idle_backup=idle)
    w = WorkloadSpec(x=590.6201, r1=0.566316)
    (case, restart, chance), _ = _attempt_args(monkeypatch, p, w)
    assert chance == (1.0 if post > case.delta else 0.0)
    _, nxt, excess, _ = sim._attempts(case, restart, chance, np.random.default_rng(5), 10_000)
    assert np.array_equal(excess, np.zeros(10_000))
    assert (nxt == sim._DONE).any() == (post > case.delta)


@pytest.mark.parametrize("trigger", ["a1", "a4"])
def test_completion_rejects_distribution_trigger_like_analysis(trigger):
    p = make_params(**{trigger: Exponential(1.0 / 30.0)})
    w = WorkloadSpec(x=590.6201, r1=0.566316)
    with pytest.raises(ValueError) as analytic:
        completion_time(p, w)
    with pytest.raises(ValueError) as simulated:
        simulate_completion(p, w, SimConfig(replications=4, seed=1))
    assert str(simulated.value) == str(analytic.value)

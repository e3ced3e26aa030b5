import math

import numpy as np
import pytest

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
from rejuvkit.analysis import metrics_report
from rejuvkit.config import load_config
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
    """n scalar races, in the form ``sim._races`` returns them."""
    sojourns, targets = zip(*(_step(events, rng) for _ in range(n)))
    return list(sojourns), list(targets)


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
    # kernel row, and the mean sojourn within 4 standard errors
    p = _race_points()[point]
    P, h = transition_matrix(p), sojourn_times(p)
    rng = np.random.default_rng(2024)
    for i, events in enumerate(state_events(p)):
        sojourns, targets = draw(events, rng, n)
        freq = np.bincount(targets, minlength=12) / n
        bound = 4.0 * np.sqrt(P[i] * (1.0 - P[i]) / n) + 1e-12
        assert np.all(np.abs(freq - P[i]) <= bound), (i, freq, P[i])
        se = np.std(sojourns, ddof=1) / math.sqrt(n)
        assert abs(np.mean(sojourns) - h[i]) <= 4.0 * se + 1e-12 * h[i], (i, h[i])


@pytest.mark.parametrize("draw", [sim._races, _stepped], ids=["pooled", "scalar"])
def test_race_ties_go_to_the_earlier_event(draw):
    events = [_Event(Deterministic(5.0), 1.0, 3), _Event(Deterministic(5.0), 1.0, 7)]
    sojourns, targets = draw(events, np.random.default_rng(1), 100)
    assert sojourns == [5.0] * 100 and targets == [3] * 100


def test_replications_are_a_stable_prefix(monkeypatch):
    # one stream per estimate, used in order: more replications only
    # append values, across pool refills too
    seen = []
    monkeypatch.setattr(sim, "_estimate", lambda metric, values, truncated=0: seen.append(values))
    p = make_params()
    w = WorkloadSpec(x=590.6201, r1=0.566316)
    for short in (True, False):
        simulate_availability(p, SimConfig(5 if short else 300, seed=4, horizon=2e4))
        simulate_mttf(p, SimConfig(5 if short else 3000, seed=4))
        simulate_completion(p, w, SimConfig(5 if short else 3000, seed=4))
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


def test_availability_start_transient_is_visible():
    # Without a warm-up, the start in state 0 (aged only after a wait)
    # biases a 3e4 h run's availability high.  A regenerative estimator,
    # which has no start transient, should flip this test.
    p = make_params()
    est = simulate_availability(p, SimConfig(replications=60_000, seed=808, horizon=3e4))
    half = (est.ci_high - est.ci_low) / 2.0
    assert est.mean - availability(p) > 2.0 * half


def simulate_occupancy(p, c, tag=4):
    """Per-state occupancy fractions: (means, standard errors), length 12.

    Walks the pooled races of the availability simulator, on its own
    stream, but keeps the time spent in every state."""
    rng = sim._rng(c.seed, tag)
    races = [sim._outcomes(events, rng) for events in state_events(p)]
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
    assert est.truncated == 4
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


@pytest.mark.parametrize("trigger", ["a1", "a4"])
def test_completion_rejects_distribution_trigger_like_analysis(trigger):
    p = make_params(**{trigger: Exponential(1.0 / 30.0)})
    w = WorkloadSpec(x=590.6201, r1=0.566316)
    with pytest.raises(ValueError) as analytic:
        completion_time(p, w)
    with pytest.raises(ValueError) as simulated:
        simulate_completion(p, w, SimConfig(replications=4, seed=1))
    assert str(simulated.value) == str(analytic.value)

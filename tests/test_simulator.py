import pytest

import rejuvkit.simulator as sim
from rejuvkit import (
    Deterministic,
    SimConfig,
    WorkloadSpec,
    availability,
    completion_time,
    mttf,
    simulate_availability,
    simulate_completion,
    simulate_mttf,
)
from rejuvkit.simulator import simulate_occupancy
from rejuvkit.analysis import metrics_report
from tests.conftest import make_params

NEVER = Deterministic(1e9)


def test_simconfig_validation():
    with pytest.raises(ValueError, match="2 replications"):
        SimConfig(replications=1, seed=1)
    with pytest.raises(ValueError, match="warmup"):
        SimConfig(replications=10, seed=1, horizon=10.0, warmup=10.0)


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


def test_availability_ci_coverage(rng):
    # CI construction coverage: analytic value inside the 95% interval in
    # at least 93 of 100 independent runs (fixed master seed)
    p = make_params()
    truth = availability(p)
    hits = 0
    for run in range(100):
        est = simulate_availability(
            p, SimConfig(replications=60, seed=808_000 + run, horizon=3e4, warmup=1e3)
        )
        hits += est.ci_low <= truth <= est.ci_high
    assert hits >= 93


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


@pytest.mark.parametrize("trigger", ["a1", "a4"])
def test_completion_rejects_distribution_trigger_like_analysis(trigger):
    from rejuvkit import Exponential

    p = make_params(**{trigger: Exponential(1.0 / 30.0)})
    w = WorkloadSpec(x=590.6201, r1=0.566316)
    with pytest.raises(ValueError) as analytic:
        completion_time(p, w)
    with pytest.raises(ValueError) as simulated:
        simulate_completion(p, w, SimConfig(replications=4, seed=1))
    assert str(simulated.value) == str(analytic.value)

import math

import numpy as np
import pytest

from rejuvkit import (
    CompletionDivergenceError,
    Deterministic,
    Exponential,
    WorkloadSpec,
    availability,
    completion_lst_backup,
    completion_lst_primary,
    completion_time,
    mttf,
    scale_time,
)
from rejuvkit.analysis import metrics_report
from rejuvkit.ctmc import CtmcNotApplicable, availability_ctmc, mttf_ctmc
from tests.conftest import make_params

NEVER = Deterministic(1e9)  # a failure law that cannot fire in any window


def exp_trigger_params(mean=30.0, **kw):
    trig = Exponential(1.0 / mean)
    defaults = dict(
        failure=Exponential(0.0010432),
        a1=trig, a2=trig, a3=trig, a4=trig, a5=trig, a6=trig,
        c=(1.0, 0.0, 0.0),
    )
    defaults.update(kw)
    return make_params(**defaults)


# --- availability ----------------------------------------------------------


def test_availability_partitions_with_pi():
    pi = metrics_report(make_params()).pi
    a = availability(make_params())
    assert a + pi[10] + pi[11] == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < a < 1.0


def test_instant_repair_gives_full_availability():
    p = make_params(fixing=Deterministic(0.0))
    assert availability(p) == pytest.approx(1.0, abs=1e-12)


def test_availability_matches_ctmc():
    p = exp_trigger_params()
    assert availability(p) == pytest.approx(availability_ctmc(p), abs=1e-6)


def test_ctmc_not_applicable_cases():
    with pytest.raises(CtmcNotApplicable, match="branch"):
        availability_ctmc(make_params(failure=Exponential(1.0)))
    with pytest.raises(CtmcNotApplicable, match="trigger"):
        availability_ctmc(make_params(failure=Exponential(1.0), c=(1.0, 0.0, 0.0)))
    with pytest.raises(CtmcNotApplicable, match="exponential"):
        availability_ctmc(exp_trigger_params(failure=Deterministic(3.0)))


def test_ctmc_generator_rows_sum_to_zero():
    from rejuvkit.ctmc import generator

    Q = generator(exp_trigger_params())
    assert np.abs(Q.sum(axis=1)).max() <= 1e-12


# --- mttf ------------------------------------------------------------------


def test_mttf_matches_ctmc_first_passage():
    p = exp_trigger_params()
    smp = mttf(p)
    oracle = mttf_ctmc(p)
    assert abs(smp - oracle) / oracle <= 1e-3


def test_mttf_two_step_closed_form():
    # trigger far beyond any failure: absorption after one aging cycle,
    # MTTF = mean aging + mean failure exactly
    lam_u, lam_f = 0.001, 0.01
    p = make_params(
        trigger=1e7, aging=Exponential(lam_u), failure=Exponential(lam_f), c=(1.0, 0.0, 0.0)
    )
    assert mttf(p) == pytest.approx(1.0 / lam_u + 1.0 / lam_f, rel=1e-8)


def test_stationary_solve_from_the_start_state():
    # the same config: P[8, 2] and P[1, 9] are e^{-1e5}, exactly 0.0 in
    # double precision, which leaves {1, 7, 11} a closed class that the
    # start state never reaches; the stationary solve covers {0, 8, 10}
    p = make_params(
        trigger=1e7, aging=Exponential(0.001), failure=Exponential(0.01), c=(1.0, 0.0, 0.0)
    )
    report = metrics_report(p)
    assert report.kernel[8, 2] == 0.0 and report.kernel[1, 9] == 0.0
    assert report.availability == pytest.approx(1100.0 / 1101.0, abs=1e-12)
    assert report.stationary[[1, 7, 11]].tolist() == [0.0, 0.0, 0.0]
    assert report.mttf == pytest.approx(1100.0, rel=1e-12)


def test_reachability_runs_once_per_report(monkeypatch):
    from rejuvkit import analysis, numerics

    calls = []
    real = numerics.reachability

    def counted(P):
        calls.append(P.shape)
        return real(P)

    monkeypatch.setattr(numerics, "reachability", counted)
    monkeypatch.setattr(analysis, "reachability", counted)
    # the second config leaves a closed class that state 0 never reaches
    for trigger in (30.0, 1e7):
        calls.clear()
        p = make_params(
            trigger=trigger, aging=Exponential(0.001), failure=Exponential(0.01), c=(1.0, 0.0, 0.0)
        )
        metrics_report(p)
        assert calls == [(12, 12)]


def test_mttf_absorption_unreachable_raises():
    # certain triggers/migration always outrun the far point-mass failures:
    # the no-repair chain cycles forever and the visit solve is singular
    p = make_params(failure=NEVER, migration=Deterministic(0.01), c=(1.0, 0.0, 0.0))
    with pytest.raises(ArithmeticError, match="absorption|singular"):
        mttf(p)


def test_availability_when_absorption_unreachable():
    # no failure state is reachable: availability 1, MTTF infinite, and the
    # report still carries the stationary solve
    p = make_params(failure=NEVER, migration=Deterministic(0.01), c=(1.0, 0.0, 0.0))
    assert availability(p) == 1.0
    report = metrics_report(p)
    assert report.availability == 1.0
    assert report.mttf == math.inf and report.visits is None
    assert report.pi[10] == report.pi[11] == 0.0


# --- completion time -------------------------------------------------------


def test_transforms_equal_one_at_zero():
    p = make_params()
    w = WorkloadSpec(x=590.6201, r1=0.566316)
    assert completion_lst_primary(p, w, 0.0) == pytest.approx(1.0, abs=1e-9)
    assert completion_lst_backup(p, w, 0.0) == pytest.approx(1.0, abs=1e-9)


def test_no_failure_limit_is_exact():
    p = make_params(failure=NEVER)
    w = WorkloadSpec(x=200.0, r1=0.8)
    expected = p.a1 / 0.8 + (200.0 - p.a1) / 1.0
    assert completion_time(p, w, method="analytic") == pytest.approx(expected, abs=1e-10)
    assert completion_time(p, w, method="richardson") == pytest.approx(expected, abs=1e-8)
    # transform itself degenerates to a pure delay
    for s in (0.0, 1e-4, 1e-3):
        assert completion_lst_primary(p, w, s) == pytest.approx(math.exp(-s * expected), abs=1e-12)


def test_preemptive_repeat_renewal_oracle():
    # immediate trigger, full-rate execution, exponential failure: the mean
    # satisfies the classical renewal closed form (e^(lx)-1)(1/l + overhead)
    lam, x = 0.01, 100.0
    repair_mean, aging_mean = 2.0, 50.0
    p = make_params(
        trigger=0.0,
        failure=Exponential(lam),
        aging=Exponential(1.0 / aging_mean),
        fixing=Exponential(1.0 / repair_mean),
    )
    w = WorkloadSpec(x=x, r1=1.0)
    closed = (math.exp(lam * x) - 1.0) * (1.0 / lam + repair_mean + aging_mean)
    assert completion_time(p, w, method="analytic") == pytest.approx(closed, rel=1e-8)
    assert completion_time(p, w, method="richardson") == pytest.approx(closed, rel=1e-4)


def test_role_exchange_symmetry():
    p = make_params(trigger=20.0)
    w = WorkloadSpec(x=500.0, x1=0.0, r1=0.7, t1=20.0, b1=0.5, b2=0.5)
    for s in (0.0, 1e-4, 5e-4):
        phi1 = completion_lst_primary(p, w, s)
        phi2 = completion_lst_backup(p, w, s)
        assert phi1 == pytest.approx(phi2, abs=1e-10)


def test_no_remaining_backup_work_contributes_nothing():
    p = make_params(trigger=20.0)
    w = WorkloadSpec(x=300.0, x1=300.0, t1=0.0, b1=0.0, b2=1.0, r1=0.9)
    assert completion_time(p, w, method="analytic") == pytest.approx(0.0, abs=1e-12)
    for s in (0.0, 1e-3):
        assert completion_lst_backup(p, w, s) == pytest.approx(1.0, abs=1e-12)


def test_backup_restart_routing_flag():
    p = make_params(trigger=25.0)
    base = dict(x=400.0, x1=100.0, r1=0.8, t1=25.0, b1=0.0, b2=1.0)
    printed = completion_time(p, WorkloadSpec(**base), method="analytic")
    self_routed = completion_time(
        p, WorkloadSpec(**base, backup_restart_via_primary=False), method="analytic"
    )
    assert printed != pytest.approx(self_routed, rel=1e-6)
    # both conserve probability
    for flag in (True, False):
        w = WorkloadSpec(**base, backup_restart_via_primary=flag)
        assert completion_lst_backup(p, w, 0.0) == pytest.approx(1.0, abs=1e-9)


def test_richardson_agrees_with_analytic():
    from dataclasses import replace

    from rejuvkit.config import bundled_config_names, load_config

    setups = [
        (make_params(trigger=15.0, failure=Exponential(0.01), aging=Exponential(0.02)),
         WorkloadSpec(x=80.0, r1=0.9))
    ]
    for name in bundled_config_names():
        cfg = load_config(name)
        setups.append((cfg.params, cfg.workload))
        # the backup case weighted in, under either restart routing
        for via_primary in (True, False):
            w = replace(cfg.workload, b1=0.3, b2=0.7, backup_restart_via_primary=via_primary)
            setups.append((cfg.params, w))
    for p, w in setups:
        fd = completion_time(p, w, method="richardson")
        closed = completion_time(p, w, method="analytic")
        assert fd == pytest.approx(closed, rel=1e-10, abs=0.0), w


def test_richardson_step_stays_clear_of_the_restart_pole():
    # B(0) = 0.95: phi = A / (1 - B) has a pole where B(s) = 1, at
    # s = -3.1e-5, far nearer than the aging pole at -6.9e-4; a fixed 1e-4
    # step put the stencil past it (B(s=-1e-4) >= 1 raised)
    p = make_params(trigger=20.0, failure=Exponential(0.01))
    w = WorkloadSpec(x=300.0, r1=0.8)
    closed = completion_time(p, w, method="analytic")
    assert completion_time(p, w, method="richardson") == pytest.approx(closed, rel=1e-10, abs=0.0)


def test_completion_non_increasing_in_aging_rate():
    p = make_params(trigger=30.0)
    values = [
        completion_time(p, WorkloadSpec(x=500.0, r1=r1), method="analytic")
        for r1 in (0.2, 0.4, 0.6, 0.8, 1.0)
    ]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_divergent_restart_loop_raises():
    # deterministic failure strictly inside every attempt window: the
    # execution can never finish
    p = make_params(trigger=0.0, failure=Deterministic(1.0))
    with pytest.raises(CompletionDivergenceError):
        completion_time(p, WorkloadSpec(x=100.0, r1=1.0))


def test_deep_trigger_splits_the_survivors():
    # the reboot and fix laws have run out by the trigger epoch while the
    # failure law has not: the survivors split c2 : c3 : c1 after it
    p = make_params(trigger=2000.0, c=(0.2, 0.5, 0.3))
    mean = completion_time(p, WorkloadSpec(x=3000.0, r1=1.0, t1=0.0))
    assert math.isfinite(mean) and mean >= 3000.0


@pytest.mark.parametrize("x", [1000.0, 1600.0, 1700.0, 1800.0, 3000.0, 5000.0])
def test_conservation_holds_when_restarts_dominate(x):
    # 1 - B(0) is about 4e-8 at x = 1700; A(0) + B(0) = 1 still holds to
    # rounding.  Each attempt completes with q = e^{-lam x}, so
    # E[T] = (1 - q)(1/lam + E[overhead] + E[aging]) / q; at x = 5000,
    # 1 - B(0) = q = 1.9e-22 is lost to rounding, and A(0) is not
    lam = 0.01
    p = make_params(trigger=0.0, failure=Exponential(lam))
    mean = completion_time(p, WorkloadSpec(x=x))
    assert math.isfinite(mean) and mean >= x
    restart = 1.0 / lam + p.fixing_primary.mean() + p.aging_primary.mean()
    assert mean == pytest.approx(-math.expm1(-lam * x) * restart / math.exp(-lam * x), rel=1e-12)


def test_workload_validation():
    assert WorkloadSpec(x=100.0).validate() == []
    with pytest.raises(ValueError, match="r2"):
        WorkloadSpec(x=100.0, r2=0.9)
    with pytest.raises(ValueError, match="b1 \\+ b2"):
        WorkloadSpec(x=100.0, b1=0.6, b2=0.6)
    with pytest.raises(ValueError, match="x1"):
        WorkloadSpec(x=100.0, x1=150.0)
    with pytest.raises(ValueError, match="r1"):
        WorkloadSpec(x=100.0, r1=0.0)
    with pytest.raises(ValueError, match="t1"):
        completion_time(make_params(), WorkloadSpec(x=100.0, x1=80.0, t1=50.0))
    with pytest.raises(ValueError, match="exceeds the work"):
        completion_time(make_params(trigger=200.0), WorkloadSpec(x=100.0))


def test_completion_floor_guard():
    p = make_params()
    w = WorkloadSpec(x=590.0, r1=0.6)
    value = completion_time(p, w)
    floor = p.a1 / 0.6 + (590.0 - p.a1)
    assert value >= floor


# --- cross-metric invariants ------------------------------------------------


def test_metrics_report_carries_everything():
    r = metrics_report(make_params(), WorkloadSpec(x=590.6201, r1=0.566316))
    assert r.pi.shape == (12,)
    assert r.visits.shape == (10,)
    assert r.pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert r.visits[0] >= 1.0
    assert r.completion_time > 590.6201


def test_time_unit_invariance():
    p = make_params()
    w = WorkloadSpec(x=400.0, r1=0.7)
    a0, m0 = availability(p), mttf(p)
    e0 = completion_time(p, w, method="analytic")
    for k in (0.5, 2.0, 24.0):
        q = scale_time(p, k)
        wq = WorkloadSpec(
            x=400.0 / k,
            r1=0.7,
            restart_overhead_primary=Exponential(q.fixing_primary.rate),
            restart_overhead_backup=Exponential(q.fixing_backup.rate),
        )
        assert availability(q) == pytest.approx(a0, abs=1e-10)
        assert mttf(q) * k == pytest.approx(m0, rel=1e-8)
        assert completion_time(q, wq, method="analytic") * k == pytest.approx(e0, rel=1e-8)


# --- default route and the shared case resolver -----------------------------


def test_default_completion_hits_fitted_anchors():
    # the workload (x, r1) was fitted so that the exact mean is 1721 h at
    # trigger 0 and 1696 h at trigger 100 on the F_HYPO scenario
    from rejuvkit.config import load_config
    from rejuvkit.toolkit import apply_variable

    cfg = load_config("preset_f_hypo")
    for trigger, anchor in ((0.0, 1721.0), (100.0, 1696.0)):
        point = apply_variable(cfg, "trigger_interval", trigger)
        assert completion_time(point.params, point.workload) == pytest.approx(anchor, rel=1e-6)


def test_default_completion_is_the_analytic_route():
    from rejuvkit.config import bundled_config_names, load_config

    names = bundled_config_names()
    assert len(names) == 11
    for name in names:
        cfg = load_config(name)
        exact = completion_time(cfg.params, cfg.workload, method="analytic")
        assert completion_time(cfg.params, cfg.workload) == exact, name


def test_completion_cases_resolved_once_per_call(monkeypatch):
    import rejuvkit.analysis as analysis
    import rejuvkit.simulator as simulator
    from rejuvkit import SimConfig, simulate_completion

    calls = []
    real = analysis.completion_cases

    def counted(p, w):
        calls.append(1)
        return real(p, w)

    monkeypatch.setattr(analysis, "completion_cases", counted)
    monkeypatch.setattr(simulator, "completion_cases", counted)
    p = make_params()
    w = WorkloadSpec(x=590.6201, r1=0.566316)
    for method in ("analytic", "richardson"):
        calls.clear()
        completion_time(p, w, method=method)
        assert len(calls) == 1, method
    calls.clear()
    simulate_completion(p, w, SimConfig(replications=3, seed=1))
    assert len(calls) == 1

import math
from fractions import Fraction

import numpy as np
import pytest

from rejuvkit import (
    KERNEL_TARGETS,
    STATES,
    Deterministic,
    Erlang,
    Exponential,
    Hypoexponential,
    ModelConsistencyError,
    scale_time,
    sojourn_times,
    transition_matrix,
)
from rejuvkit.analysis import metrics_report
from rejuvkit.config import load_config
from tests.conftest import make_params


def test_state_table():
    assert len(STATES) == 12
    assert [s.available for s in STATES] == [True] * 10 + [False, False]
    assert STATES[0].label == "(H,I)"
    assert STATES[2].label == "(M,I)"
    assert STATES[4].label == "(S,A)"
    assert STATES[6].label == "(A,S)"
    assert STATES[10].label == "(F,I)"
    assert STATES[11].label == "(I,F)"


def test_structurally_certain_rows():
    P = transition_matrix(make_params())
    assert P[0, 8] == 1.0
    assert P[7, 1] == 1.0
    assert P[10, 0] == 1.0
    assert P[11, 7] == 1.0


def test_migration_row_exponential_race(rng):
    # all-exponential race in the migrating state: completion vs failure
    kappa, omega = 120.5, 0.0010432
    p = make_params(failure=Exponential(omega))
    P = transition_matrix(p)
    closed = kappa / (kappa + omega)
    assert P[2, 7] == pytest.approx(closed, abs=1e-10)
    assert P[2, 10] == pytest.approx(1.0 - closed, abs=1e-10)
    wins = Exponential(kappa).sample(rng, 1_000_000) < Exponential(omega).sample(rng, 1_000_000)
    assert P[2, 7] == pytest.approx(wins.mean(), abs=5e-4)


def test_small_entry_keeps_its_relative_precision():
    # P[9, 11] is the failure law's transform at the migration rate; as 1
    # minus its O(1) sibling it came out 5.4e-8 relative off
    p = load_config("preset_f_hypo").params
    a, b = Fraction(p.fail_migrating_backup.rate1), Fraction(p.fail_migrating_backup.rate2)
    s = Fraction(p.migration.rate)
    exact = float(a / (a + s) * b / (b + s))
    assert transition_matrix(p)[9, 11] == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_zero_trigger_wins_race_certainly():
    p = make_params(a3=0.0)
    P = transition_matrix(p)
    assert P[3, 10] == 0.0
    assert P[3, 2] == 1.0


def test_sparsity_pattern():
    P = transition_matrix(make_params())
    for i in range(12):
        for j in range(12):
            if j in KERNEL_TARGETS[i]:
                assert P[i, j] > 0.0, (i, j)
            else:
                assert P[i, j] == 0.0, (i, j)


def test_row_sums_close_exactly():
    P = transition_matrix(make_params())
    assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12


def test_sojourn_closed_forms():
    p = make_params()
    h = sojourn_times(p)
    assert h[10] == pytest.approx(1.0, abs=1e-12)  # failed-primary state: mean fixing
    assert h[11] == pytest.approx(1.0, abs=1e-12)
    assert h[0] == pytest.approx(1.0 / 0.0006857, rel=1e-12)

    p = make_params(migration=Deterministic(0.0))
    assert sojourn_times(p)[2] == 0.0

    # truncated-exponential mean: reboot-side wait cut off at the trigger
    omega, a3 = 0.002, 25.0
    p = make_params(a3=a3, fail_reboot_primary=Exponential(omega))
    closed = (1.0 - math.exp(-omega * a3)) / omega
    assert sojourn_times(p)[3] == pytest.approx(closed, rel=1e-9)


def test_trigger_limits_in_aging_state():
    base = dict(c=(0.6, 0.23, 0.17))
    # immediate trigger: the healthy-backup branch fires instantly with
    # mass c1, an entry computed directly and exact to rounding
    P = transition_matrix(make_params(trigger=0.0, **base))
    assert P[8, 2] == pytest.approx(0.6, abs=1e-15)
    # huge trigger: failure always preempts migration
    P = transition_matrix(make_params(trigger=5e6, **base))
    assert P[8, 2] <= 1e-12


@pytest.mark.parametrize("trigger", [5.0, 30.0, 200.0])
@pytest.mark.parametrize(
    "failure",
    [Exponential(0.0010432), Hypoexponential(0.0013674, 0.0043860)],
    ids=["exp", "hypoexp"],
)
@pytest.mark.parametrize(
    "c", [(0.6, 0.2, 0.2), (0.2, 0.5, 0.3), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
)
def test_trigger_entry_is_the_thinned_race_at_the_trigger(trigger, failure, c):
    # the trigger is the row's only point mass, so its entry is direct:
    # armed with c1, it fires at the trigger if the failure has not come
    # and neither the armed reboot (c2) nor the armed fixing (c3) is done
    p = make_params(
        trigger=trigger,
        c=c,
        failure=failure,
        fail_idle_backup=failure.scaled(1.5),
        reboot_primary=Exponential(0.5),
        reboot_backup=Exponential(0.2),
        fixing_primary=Exponential(0.02),
        fixing_backup=Exponential(0.04),
    )
    P = transition_matrix(p)
    c1, c2, c3 = c
    for got, fail, reboot, fixing in (
        (P[8, 2], p.fail_idle_primary, p.reboot_backup, p.fixing_backup),
        (P[1, 9], p.fail_idle_backup, p.reboot_primary, p.fixing_primary),
    ):
        want = (
            c1
            * fail.survival(trigger)
            * (1.0 - c2 * reboot.cdf(trigger))
            * (1.0 - c3 * fixing.cdf(trigger))
        )
        assert abs(got - want) <= 1e-12 * want


def test_failure_mass_monotone_in_trigger():
    last = -1.0
    for trigger in (0.0, 5.0, 15.0, 40.0, 80.0, 200.0):
        P = transition_matrix(make_params(trigger=trigger))
        assert P[8, 10] >= last - 1e-12
        last = P[8, 10]


def test_ctmc_embedding_closed_forms():
    # with exponential laws, exponential trigger stand-ins and degenerate
    # branching, every row is a plain race: p = rate/total, h = 1/total
    trig = Exponential(1.0 / 30.0)
    p = make_params(
        failure=Exponential(0.0010432),
        a1=trig, a2=trig, a3=trig, a4=trig, a5=trig, a6=trig,
        c=(1.0, 0.0, 0.0),
    )
    P = transition_matrix(p)
    h = sojourn_times(p)
    from rejuvkit.model import state_events

    for i, events in enumerate(state_events(p)):
        rates = {ev.target: ev.dist.rate for ev in events if ev.thin == 1.0}
        total = sum(rates.values())
        for j, rate in rates.items():
            assert P[i, j] == pytest.approx(rate / total, abs=1e-8)
        assert h[i] == pytest.approx(1.0 / total, rel=1e-8)


def test_row_battery_random_families(rng):
    # quick version of the acceptance structural battery
    def draw_dist():
        kind = rng.integers(0, 3)
        rate = 10.0 ** rng.uniform(-3.0, 1.0)
        if kind == 0:
            return Exponential(rate)
        if kind == 1:
            return Erlang(rate, int(rng.integers(1, 4)))
        return Hypoexponential(rate, rate * 10.0 ** rng.uniform(-0.8, 0.8))

    for _ in range(40):
        c1 = rng.uniform(0.1, 0.9)
        c2 = rng.uniform(0.0, 1.0 - c1)
        p = make_params(
            trigger=float(rng.uniform(0.0, 60.0)),
            c=(c1, c2, 1.0 - c1 - c2),
            aging=draw_dist(),
            failure=draw_dist(),
            fixing=draw_dist(),
            reboot=draw_dist(),
            migration=draw_dist(),
        )
        P = transition_matrix(p)
        assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12
        for i in range(12):
            for j in range(12):
                if j not in KERNEL_TARGETS[i]:
                    assert P[i, j] == 0.0
        h = sojourn_times(p)
        assert np.all(np.isfinite(h)) and np.all(h >= 0.0)


def test_large_erlang_race_is_exact():
    # two 200-phase laws race in the migrating state: 40,000 Kronecker
    # phases, solved without forming the sum; the chance that migration
    # finishes first is the regularised incomplete beta I_p(200, 200)
    from scipy.special import betainc

    mu, lam = 2000.0, 1800.0
    p = make_params(failure=Erlang(lam, 200), migration=Erlang(mu, 200))
    P = transition_matrix(p)
    assert P[2, 7] == pytest.approx(betainc(200, 200, mu / (mu + lam)), abs=1e-14)
    assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.all(np.isfinite(sojourn_times(p)))


def test_deterministic_tie_is_conserved():
    # two point masses at the same instant: earlier-listed event wins
    p = make_params(trigger=2.0, fixing=Deterministic(2.0), reboot=Deterministic(2.0))
    P = transition_matrix(p)
    assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12


def test_absorbing_blocks_structure():
    # the no-repair partition of the kernel: transient block M, absorption
    # columns cT, execution starting in state 0
    r = metrics_report(make_params())
    M, cT = r.kernel[:10, :10], r.kernel[:10, 10:]
    assert M.shape == (10, 10) and cT.shape == (10, 2)
    alpha = r.visits @ (np.eye(10) - M)
    assert alpha[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(alpha[1:]).sum() <= 1e-12
    combined = np.hstack([M, cT])
    assert np.abs(combined.sum(axis=1) - 1.0).max() <= 1e-12
    # spectral radius below 1: mass leaks to absorption
    assert max(abs(np.linalg.eigvals(M))) < 1.0


def test_validate_reports_all_violations():
    with pytest.raises(ValueError) as built:
        make_params(c=(0.5, 0.6, 0.1), a1=-5.0)
    text = str(built.value)
    assert "c1+c2+c3" in text and "1.2" in text
    assert "negative" in text and "a1" in text
    assert len(text.split("; ")) == 2


def test_invalid_params_raise_on_build():
    with pytest.raises(ValueError, match="c1\\+c2\\+c3"):
        transition_matrix(make_params(c=(0.5, 0.6, 0.1)))


def test_row_sum_guard_catches_corruption(monkeypatch):
    import rejuvkit.model as model

    real = model.phase_integral

    def deflated(*args):
        return 0.9 * real(*args)

    monkeypatch.setattr(model, "phase_integral", deflated)
    with pytest.raises(ModelConsistencyError, match="row"):
        transition_matrix(make_params())


def test_each_survival_product_is_integrated_once(monkeypatch):
    # one call per product of survivals: one in each of the ten rows whose
    # phase-type events are never thinned, and four in each of rows 1 and
    # 8, where the thinned reboot and fixing survivals split in two each
    import rejuvkit.model as model

    real = model.phase_integral
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(model, "phase_integral", counted)
    metrics_report(load_config("preset_f_hypo").params)
    assert len(calls) == 18


def test_time_scale_invariance_quick():
    p = make_params()
    P = transition_matrix(p)
    h = sojourn_times(p)
    for k in (0.5, 24.0):
        q = scale_time(p, k)
        assert np.abs(transition_matrix(q) - P).max() <= 1e-10
        assert np.abs(sojourn_times(q) * k - h).max() <= 1e-8 * np.abs(h).max()

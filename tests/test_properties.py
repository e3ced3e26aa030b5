"""Property-based invariants over random lifetime families and edge values."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rejuvkit import KERNEL_TARGETS, Deterministic, Erlang, Exponential, Hypoexponential
from rejuvkit import WorkloadSpec, completion_time, metrics_report, scale_time, transition_matrix
from rejuvkit.analysis import CompletionDivergenceError, completion_cases
from rejuvkit.ctmc import availability_ctmc, mttf_ctmc
from rejuvkit.distributions import from_json, to_json
from tests.conftest import make_params

# derandomized: the suite stays reproducible and needs no example database
FAST = settings(max_examples=60, derandomize=True, database=None, deadline=None)
KERNEL = settings(max_examples=40, derandomize=True, database=None, deadline=None)
METRICS = settings(max_examples=30, derandomize=True, database=None, deadline=None)
EPS = np.finfo(float).eps


def laws(log_mean_lo=-3.0, log_mean_hi=3.0, deterministic=True, max_shape=200):
    """One law per family with the given mean range; hypoexponential
    rates include (nearly) equal pairs, Erlang shapes reach ``max_shape``."""
    means = st.floats(log_mean_lo, log_mean_hi).map(lambda e: 10.0**e)
    exp = means.map(lambda m: Exponential(1.0 / m))
    shapes = st.integers(1, min(6, max_shape))
    if max_shape > 6:
        shapes = st.one_of(shapes, st.just(max_shape))
    erl = st.builds(lambda m, k: Erlang(k / m, k), means, shapes)
    split = st.one_of(st.just(0.5), st.floats(0.5 - 1e-9, 0.5 + 1e-9), st.floats(0.05, 0.95))
    hypo = st.builds(lambda m, f: Hypoexponential(1.0 / (m * f), 1.0 / (m * (1.0 - f))), means, split)
    families = [exp, erl, hypo]
    if deterministic:
        families.append(st.one_of(st.just(Deterministic(0.0)), means.map(Deterministic)))
    return st.one_of(*families)


@FAST
@given(laws())
def test_json_round_trip_property(d):
    assert from_json(to_json(d)) == d


@FAST
@given(laws(), st.floats(1e-3, 1e3))
def test_scaled_mean_property(d, k):
    assert d.scaled(k).mean() == pytest.approx(d.mean() / k, rel=1e-12, abs=0.0)


@FAST
@given(laws())
def test_survival_and_density_sane_property(d):
    m = d.mean()
    for t in (0.0, 0.1 * m, m, 3.0 * m):
        assert 0.0 <= d.survival(t) <= 1.0
        if not isinstance(d, Deterministic):
            assert math.isfinite(d.density(t)) and d.density(t) >= 0.0


def _closed_forms(d, s, k):
    """(mean, lst, lst_derivative, lst_pole, scaled(k)) as each family wrote them out."""
    if isinstance(d, Exponential):
        r = d.rate
        return 1.0 / r, r / (r + s), -r / (r + s) ** 2, r, Exponential(r * k)
    if isinstance(d, Erlang):
        r, n = d.rate, d.shape
        # the written-out -n r^n / (r + s)^(n + 1) overflowed at rate 200, shape 200
        lst = (r / (r + s)) ** n
        return n / r, lst, -n / (r + s) * lst, r, Erlang(r * k, n)
    a, b = d.rate1, d.rate2
    fa, fb = a / (a + s), b / (b + s)
    derivative = -fa / (a + s) * fb - fa * fb / (b + s)
    return 1.0 / a + 1.0 / b, fa * fb, derivative, min(a, b), Hypoexponential(a * k, b * k)


@FAST
@given(laws(deterministic=False, max_shape=200), st.floats(-0.9, 5.0), st.floats(1e-3, 1e3))
def test_derived_transforms_match_closed_forms_property(d, u, k):
    # s runs from 0.9 of the way to the pole to 5 pole-widths past 0
    s = u * d.lst_pole
    mean, lst, derivative, pole, scaled = _closed_forms(d, s, k)
    assert d.lst_pole == pole
    assert d.mean() == pytest.approx(mean, rel=1e-13, abs=0.0)
    assert d.lst(s) == pytest.approx(lst, rel=1e-13, abs=0.0)
    assert d.lst_derivative(s) == pytest.approx(derivative, rel=1e-13, abs=0.0)
    assert d.scaled(k) == scaled


# branch probabilities at the corners and edges of the simplex, plus interior
BRANCHES = st.one_of(
    st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0)]),
    st.tuples(st.floats(0.05, 0.9), st.floats(0.0, 1.0)).map(
        lambda t: (t[0], (1.0 - t[0]) * t[1], (1.0 - t[0]) * (1.0 - t[1]))
    ),
)


@KERNEL
@given(
    trigger=st.one_of(st.just(0.0), st.floats(0.0, 60.0)),
    c=BRANCHES,
    aging=laws(0.5, 3.2, deterministic=False),
    failure=laws(0.5, 3.2, deterministic=False),
    fixing=laws(-1.0, 1.0),
    reboot=laws(-1.5, 0.5),
    migration=laws(-2.5, -0.5),
)
# integrals of true size ~1e-35 rounded to -1.4e-17 in P[3, 10] and P[4, 11]
@example(
    trigger=30.0, c=(0.6, 0.2, 0.2), aging=Exponential(0.0006857),
    failure=Erlang(0.004692708204173488, 20), fixing=Exponential(1.0), reboot=Exponential(12.0),
    migration=Exponential(120.5),
)
def test_kernel_rows_property(trigger, c, aging, failure, fixing, reboot, migration):
    p = make_params(
        trigger=trigger, c=c, aging=aging, failure=failure, fixing=fixing, reboot=reboot,
        migration=migration,
    )
    P = transition_matrix(p)
    assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12
    assert (P >= 0.0).all()
    for i, allowed in KERNEL_TARGETS.items():
        assert all(P[i, j] == 0.0 for j in range(12) if j not in allowed), i


# --- metrics over random families and workloads ----------------------------


@st.composite
def completion_setups(draw):
    """(params, workload): random families and branches, a trigger inside the
    work, b1/b2 anywhere on [0, 1], either backup routing, and x1, t1 drawn
    across their ranges."""
    failure = draw(laws(1.0, 3.2, deterministic=False, max_shape=6))
    x = draw(st.floats(0.02, 3.0)) * failure.mean()
    p = make_params(
        trigger=draw(st.floats(0.0, 1.0)) * x,
        c=draw(BRANCHES),
        aging=draw(laws(0.5, 3.2, deterministic=False, max_shape=6)),
        failure=failure,
        fixing=draw(laws(-1.0, 1.0, max_shape=6)),
        reboot=draw(laws(-1.5, 0.5, max_shape=6)),
        migration=draw(laws(-2.5, -0.5, max_shape=6)),
    )
    b2 = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    x1 = draw(st.floats(0.0, 1.0)) * x
    w = WorkloadSpec(
        x=x,
        x1=x1,
        r1=draw(st.floats(0.5, 1.0)),
        b1=1.0 - b2,
        b2=b2,
        t1=draw(st.floats(0.0, 1.0)) * (x - x1),
        backup_restart_via_primary=draw(st.booleans()),
    )
    return p, w


def _completion_or_skip(p, w):
    """The mean completion time; a draw whose restart loop never completes
    (B(0) >= 1) is skipped."""
    try:
        return completion_time(p, w)
    except CompletionDivergenceError:
        assume(False)


@METRICS
@given(completion_setups())
def test_post_trigger_masses_split_the_survivors_property(setup):
    p, w = setup
    for case in completion_cases(p, w):
        masses = [m for m, _ in case.post]
        assert min(masses) >= 0.0
        survivors = case.pre_fail.survival(case.tau)
        assert math.fsum(masses) == pytest.approx(survivors, rel=4 * EPS, abs=0.0)


@METRICS
@given(completion_setups())
def test_completion_at_least_failure_free_floor_property(setup):
    p, w = setup
    mean = _completion_or_skip(p, w)
    floor = w.b1 * (p.a1 / w.r1 + w.x - p.a1) + w.b2 * (w.t1 / w.r1 + w.x - w.x1 - w.t1)
    assert mean >= floor * (1.0 - 1e-12)


@METRICS
@given(completion_setups())
def test_richardson_agrees_with_analytic_property(setup):
    p, w = setup
    closed = _completion_or_skip(p, w)
    # where the analytic route succeeds, the cross-check must not raise
    assert completion_time(p, w, method="richardson") == pytest.approx(closed, rel=1e-5, abs=0.0)


@METRICS
@given(completion_setups(), st.floats(1e-2, 1e2))
def test_time_unit_invariance_property(setup, k):
    p, w = setup
    e0 = _completion_or_skip(p, w)
    q = scale_time(p, k)
    # t1 = x - x1 must stay within the remaining work after division by k
    wq = replace(w, x=w.x / k, x1=w.x1 / k, t1=min(w.t1 / k, w.x / k - w.x1 / k))
    r0, rq = metrics_report(p), metrics_report(q)
    assert rq.availability == pytest.approx(r0.availability, abs=1e-10)
    assert rq.mttf * k == pytest.approx(r0.mttf, rel=1e-8)
    assert completion_time(q, wq) * k == pytest.approx(e0, rel=1e-8)


@METRICS
@given(
    c=st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]),
    trigger_mean=st.floats(0.1, 200.0),
    means=st.tuples(*(st.floats(lo, hi) for lo, hi in [(0.5, 3.2), (1.0, 3.2), (-1.0, 1.0),
                                                        (-1.5, 0.5), (-2.5, -0.5)])),
)
def test_ctmc_agrees_when_all_exponential_property(c, trigger_mean, means):
    aging, failure, fixing, reboot, migration = (Exponential(10.0**-e) for e in means)
    trig = Exponential(1.0 / trigger_mean)
    p = make_params(
        c=c, aging=aging, failure=failure, fixing=fixing, reboot=reboot, migration=migration,
        a1=trig, a2=trig, a3=trig, a4=trig, a5=trig, a6=trig,
    )
    report = metrics_report(p)
    assert report.availability == pytest.approx(availability_ctmc(p), abs=1e-10)
    assert report.mttf == pytest.approx(mttf_ctmc(p), rel=1e-9)

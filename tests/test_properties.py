"""Property-based invariants over random lifetime families and edge values."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rejuvkit import KERNEL_TARGETS, Deterministic, Erlang, Exponential, Hypoexponential
from rejuvkit import transition_matrix
from rejuvkit.distributions import from_json, to_json
from tests.conftest import make_params

# derandomized: the suite stays reproducible and needs no example database
FAST = settings(max_examples=60, derandomize=True, database=None, deadline=None)
KERNEL = settings(max_examples=40, derandomize=True, database=None, deadline=None)


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

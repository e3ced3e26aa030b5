"""Property-based invariants over random lifetime families and edge values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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
def test_kernel_rows_property(trigger, c, aging, failure, fixing, reboot, migration):
    p = make_params(
        trigger=trigger, c=c, aging=aging, failure=failure, fixing=fixing, reboot=reboot,
        migration=migration,
    )
    P = transition_matrix(p)
    assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12
    for i, allowed in KERNEL_TARGETS.items():
        assert all(P[i, j] == 0.0 for j in range(12) if j not in allowed), i

"""The exact phase-type engine against the adaptive-quadrature oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rejuvkit.analysis as analysis
from rejuvkit import (
    Hypoexponential,
    WorkloadSpec,
    completion_time,
    sojourn_times,
    transition_matrix,
)
from rejuvkit.config import bundled_config_names, load_config
from tests import quadrature
from tests.conftest import make_params
from tests.test_properties import laws

KERNEL_ABS = 1e-10
REL = 1e-9


def _completions(p, w):
    return [completion_time(p, w, method=m) for m in ("analytic", "richardson")]


def _assert_agree(p, w, monkeypatch):
    P = transition_matrix(p)
    assert np.abs(P - quadrature.transition_matrix(p)).max() <= KERNEL_ABS
    # the oracle's quadrature is accurate to 1e-10 absolute: below 0.1 h
    # that, not 1e-9 relative, bounds the comparison
    h, h_ref = sojourn_times(p), quadrature.sojourn_times(p)
    assert np.all(np.abs(h - h_ref) <= np.maximum(REL * h_ref, quadrature.DEFAULT_TOL))
    if w is None:
        return
    exact = _completions(p, w)
    with monkeypatch.context() as m:
        m.setattr(analysis, "_window", quadrature.window)
        # quadrature windows conserve the case masses to their own
        # tolerance, not to the exact windows' few ulp
        m.setattr(analysis, "_CONSERVATION_TOL", quadrature.DEFAULT_TOL)
        oracle = _completions(p, w)
    assert exact == pytest.approx(oracle, rel=REL, abs=0.0)


@pytest.mark.parametrize("name", bundled_config_names())
def test_engine_agrees_with_quadrature_on_bundled_configs(name, monkeypatch):
    cfg = load_config(name)
    _assert_agree(cfg.params, cfg.workload, monkeypatch)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(
    trigger_share=st.floats(0.0, 1.0),
    work_share=st.floats(0.02, 0.2),
    r1=st.floats(0.5, 1.0),
    c=st.tuples(st.floats(0.4, 0.9), st.floats(0.0, 1.0)).map(
        lambda t: (t[0], (1.0 - t[0]) * t[1], (1.0 - t[0]) * (1.0 - t[1]))
    ),
    aging=laws(0.5, 3.2, deterministic=False, max_shape=6),
    failure=laws(1.0, 3.2, deterministic=False, max_shape=6),
    fixing=laws(-1.0, 1.0, max_shape=6),
    reboot=laws(-1.5, 0.5, max_shape=6),
    migration=laws(-2.5, -0.5, max_shape=6),
)
def test_engine_agrees_with_quadrature_property(
    trigger_share, work_share, r1, c, aging, failure, fixing, reboot, migration
):
    # the work stays shallow in the failure law, so the restart loop is
    # well conditioned and both routes resolve the mean to 1e-9
    x = work_share * failure.mean()
    p = make_params(
        trigger=trigger_share * x / 2.0, c=c, aging=aging, failure=failure, fixing=fixing,
        reboot=reboot, migration=migration,
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_agree(p, WorkloadSpec(x=x, r1=r1), monkeypatch)


@pytest.mark.parametrize("gap", [1e-9, 1e-12, 1e-15])
def test_nearly_equal_failure_rates_build(gap):
    # a long trigger makes the segment exponentials square many times;
    # scipy's squaring lost the hypoexponential's off-diagonal entry there
    # and the kernel rows missed 1 by up to 1e-4
    p = make_params(trigger=1e4, failure=Hypoexponential(0.0013674, 0.0013674 * (1.0 + gap)))
    assert np.abs(transition_matrix(p) - quadrature.transition_matrix(p)).max() <= KERNEL_ABS

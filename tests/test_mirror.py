"""The mirror map: the model seen with the two hosts' roles swapped.

mirror(p) swaps every ``_primary`` law with its ``_backup`` twin and the
triggers a1 <-> a4, a2 <-> a5, a3 <-> a6, keeping c.  Each state pairs the
primary's condition with the backup's, and SIGMA sends a state to the one
with the pair swapped, so the kernel of mirror(p), permuted by SIGMA, is the
kernel of p.  Every law and trigger is drawn on its own, so a state that
reads a law, a trigger or a target of the wrong state breaks the map.
"""

import dataclasses

import numpy as np
import pytest

from rejuvkit import Erlang, Exponential, Hypoexponential, ModelParams, WorkloadSpec
from rejuvkit.analysis import _cases, metrics_report

SIGMA = [7, 8, 9, 5, 6, 3, 4, 0, 1, 2, 11, 10]
TWINS = [("a1", "a4"), ("a2", "a5"), ("a3", "a6")] + [
    (f.name, f.name.replace("_primary", "_backup"))
    for f in dataclasses.fields(ModelParams) if f.name.endswith("_primary")
]


def mirror(p):
    return dataclasses.replace(
        p, **{a: getattr(p, b) for a, b in TWINS}, **{b: getattr(p, a) for a, b in TWINS}
    )


def _law(rng):
    """An exponential, Erlang or hypoexponential law of mean 10 to 1e4 h."""
    mean = 10.0 ** rng.uniform(1.0, 4.0)
    family = rng.integers(3)
    if family == 0:
        return Exponential(1.0 / mean)
    if family == 1:
        shape = int(rng.integers(2, 5))
        return Erlang(shape / mean, shape)
    share = rng.uniform(0.1, 0.9)  # of the mean spent in the first phase
    return Hypoexponential(1.0 / (share * mean), 1.0 / ((1.0 - share) * mean))


def _params(rng, tied=False):
    laws = {
        f.name: _law(rng)
        for f in dataclasses.fields(ModelParams) if f.name not in ("c1", "c2", "c3")
    }
    triggers = np.full(6, rng.uniform(1.0, 100.0)) if tied else rng.uniform(1.0, 100.0, 6)
    laws.update(zip(("a1", "a2", "a3", "a4", "a5", "a6"), triggers.tolist()))
    c = rng.dirichlet(np.ones(3)).tolist()
    return ModelParams(**laws, c1=c[0], c2=c[1], c3=1.0 - c[0] - c[1])


CONFIGS = [_params(np.random.default_rng(seed), tied=seed == 0) for seed in range(6)]


def test_mirror_is_an_involution():
    p = CONFIGS[1]
    assert mirror(mirror(p)) == p
    assert mirror(p).a1 == p.a4 and mirror(p).fail_idle_primary == p.fail_idle_backup


@pytest.mark.parametrize("p", CONFIGS)
def test_mirror_permutes_kernel_and_sojourns(p):
    r, m = metrics_report(p), metrics_report(mirror(p))
    assert np.abs(m.kernel[SIGMA][:, SIGMA] - r.kernel).max() <= 4.4e-16
    np.testing.assert_allclose(m.sojourn[SIGMA], r.sojourn, rtol=4.4e-16, atol=0.0)
    assert m.availability == pytest.approx(r.availability, rel=0.0, abs=1e-15)


@pytest.mark.parametrize("p", CONFIGS)
def test_mirror_swaps_completion_cases(p):
    # x1 = 0 and t1 unset: the backup case runs all x from the trigger
    # epoch a4, which is mirror(p)'s a1, and restarts through fixing_backup
    w = WorkloadSpec(x=250.0, x1=0.0)
    assert _cases(mirror(p), w)[0] == _cases(p, w)[1]

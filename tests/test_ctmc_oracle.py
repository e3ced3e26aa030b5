"""The CTMC oracle on chains whose laws are all drawn on their own.

The engine is checked against the oracle on configs in which every law and
every trigger has its own mean, so a model that reads a law, a trigger or a
target in the wrong state disagrees with it.  The oracle itself is checked
against exact ``Fraction`` references of the same float rates, at rate
spans and failure rates far from the bundled configs.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from rejuvkit import Exponential, ModelParams
from rejuvkit.analysis import metrics_report
from rejuvkit.ctmc import availability_ctmc, generator, mttf_ctmc
from rejuvkit.model import TRIGGERS
from tests.conftest import make_params
from tests.test_chain_oracle import _exact_stationary

CORNERS = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
LAWS = [
    f.name for f in dataclasses.fields(ModelParams) if f.name not in (*TRIGGERS, "c1", "c2", "c3")
]


def _exponential_params(rng, c, lo, hi):
    """All-exponential parameters, every law and trigger with its own rate,
    drawn log-uniform in [10**lo, 10**hi] per hour."""
    rates = 10.0 ** rng.uniform(lo, hi, size=len(LAWS) + len(TRIGGERS))
    laws = {name: Exponential(float(r)) for name, r in zip((*LAWS, *TRIGGERS), rates)}
    return ModelParams(**laws, c1=c[0], c2=c[1], c3=c[2])


def test_engine_meets_the_oracle_when_every_law_differs():
    rng = np.random.default_rng(18)
    for n in range(12):
        # means log-uniform over [1e-2, 1e4] h
        p = _exponential_params(rng, CORNERS[n % 3], -4.0, 2.0)
        report = metrics_report(p)
        assert report.availability == pytest.approx(availability_ctmc(p), abs=1e-12)
        assert report.mttf == pytest.approx(mttf_ctmc(p), rel=1e-9)


def test_oracle_availability_meets_exact_reduction_at_wide_rate_spans():
    rng = np.random.default_rng(19)
    for n in range(60):
        p = _exponential_params(rng, CORNERS[n % 3], -8.0, 6.0)
        v = _exact_stationary(generator(p).tolist())
        assert availability_ctmc(p) == pytest.approx(float(1 - v[10] - v[11]), rel=0.0, abs=1e-15)


def _exact_mttf(Q):
    """Mean first passage from state 0 into states 10 and 11 of the generator
    ``Q``, exactly: -U tau = 1 over the up states, each diagonal the exact
    sum of its row's float rates, by Gauss-Jordan elimination."""
    n = 10
    A = [
        [sum(map(Fraction, row[:i] + row[i + 1 :])) if j == i else -Fraction(row[j])
         for j in range(n)] + [Fraction(1)]
        for i, row in enumerate(Q[:n])
    ]
    for c in range(n):
        for r in range(n):
            if r != c and A[r][c]:
                f = A[r][c] / A[c][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return A[0][n] / A[0][0]


@pytest.mark.parametrize("c", CORNERS)
def test_oracle_mttf_meets_exact_solve_when_failures_are_rare(c):
    # criterion 2's model with every failure law k times slower: a failure
    # rate below the rounding unit of its row's total must not be lost
    trig = Exponential(1.0 / 30.0)
    p = make_params(
        failure=Exponential(0.0010432), a1=trig, a2=trig, a3=trig, a4=trig, a5=trig, a6=trig, c=c
    )
    for k in (1e-3, 1e-6, 1e-9, 1e-12):
        slow = dataclasses.replace(p, **{name: getattr(p, name).scaled(k) for name in LAWS
                                         if name.startswith("fail_")})
        exact = _exact_mttf(generator(slow).tolist())
        assert mttf_ctmc(slow) == pytest.approx(float(exact), rel=1e-14, abs=0.0)

"""The chain solves against an exact rational state reduction.

The oracle reduces the engine's own float kernel, and its restart chain,
in exact ``Fraction`` arithmetic, so the comparison sees the chain solves
alone.  When failures are rare a solve that cancels loses the MTTF's
digits long before the kernel does: a failure per restart cycle is then
a small difference of probabilities near 1.
"""

import dataclasses
from fractions import Fraction

import pytest

from rejuvkit.analysis import metrics_report
from rejuvkit.config import bundled_config_names, load_config

REL = 1e-12


def _exact_stationary(P):
    """Stationary vector of the chain ``P`` (rows of floats) in rationals,
    by state reduction; every state must reach state 0."""
    A = [[Fraction(x) for x in row] for row in P]
    for k in range(len(A) - 1, 0, -1):
        pivot = sum(A[k][:k])
        for i in range(k):
            A[i][k] /= pivot
            if A[i][k]:
                for j in range(k):
                    A[i][j] += A[i][k] * A[k][j]
    v = [Fraction(1)]
    for k in range(1, len(A)):
        v.append(sum(v[i] * A[i][k] for i in range(k)))
    total = sum(v)
    return [x / total for x in v]


def _exact(report):
    """(pi10 + pi11, MTTF) of the report's kernel and sojourns, exactly."""
    P = report.kernel.tolist()
    h = [Fraction(x) for x in report.sojourn.tolist()]
    weighted = [x * t for x, t in zip(_exact_stationary(P), h)]
    # the restart chain: the failed states lead back to state 0
    w = _exact_stationary(P[:10] + [[1.0] + [0.0] * 11] * 2)
    mttf = sum(x * t for x, t in zip(w[:10], h)) / (w[10] + w[11])
    return (weighted[10] + weighted[11]) / sum(weighted), mttf


def _assert_exact(report):
    down, mttf = _exact(report)
    assert report.pi[10] + report.pi[11] == pytest.approx(float(down), rel=REL, abs=0.0)
    assert report.mttf == pytest.approx(float(mttf), rel=REL, abs=0.0)


@pytest.mark.parametrize("name", bundled_config_names())
def test_bundled_configs_meet_the_exact_reduction(name):
    _assert_exact(metrics_report(load_config(name).params))


@pytest.mark.parametrize("k", [1e-2, 1e-3, 1e-4, 1e-6, 1e-9])
@pytest.mark.parametrize("c", [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.6, 0.2, 0.2)])
@pytest.mark.parametrize("name", ["preset_f_hypo", "preset_a_hypo_f_hypo_erl"])
def test_rare_failures_meet_the_exact_reduction(name, c, k):
    # every failure law k times slower: with a branch probability of 1 a
    # restart cycle fails with a probability of order k
    p = load_config(name).params
    slow = {
        f.name: getattr(p, f.name).scaled(k)
        for f in dataclasses.fields(p) if f.name.startswith("fail_")
    }
    _assert_exact(metrics_report(dataclasses.replace(p, c1=c[0], c2=c[1], c3=c[2], **slow)))

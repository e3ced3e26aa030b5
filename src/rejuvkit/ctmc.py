"""Independent CTMC cross-check for all-exponential configurations.

When every lifetime law is exponential, the triggers are given as
exponential laws of equal mean, and the branch probabilities are
degenerate (0 or 1), the semi-Markov model collapses to a plain
12-state CTMC.  This module builds that chain's generator directly from
the rates -- deliberately *not* reusing the kernel-integral machinery --
so steady-state availability and first-passage MTTF can be compared
against the semi-Markov solution.

Interior branch probabilities thin the competing laws, which is not
representable as a 12-state CTMC; :class:`CtmcNotApplicable` is raised
in that case.
"""

from __future__ import annotations

import numpy as np

from .distributions import Exponential
from .model import ModelParams

__all__ = ["CtmcNotApplicable", "generator", "availability_ctmc", "mttf_ctmc"]


class CtmcNotApplicable(ValueError):
    """The configuration has no exactly equivalent 12-state CTMC."""


def _rate(d, name):
    if not isinstance(d, Exponential):
        raise CtmcNotApplicable(f"{name} must be exponential for the CTMC check, got {d!r}")
    return d.rate


def generator(p: ModelParams) -> np.ndarray:
    """12x12 generator matrix; raises CtmcNotApplicable when inexact."""
    for c, name in ((p.c1, "c1"), (p.c2, "c2"), (p.c3, "c3")):
        if c not in (0.0, 1.0):
            raise CtmcNotApplicable(
                f"branch probability {name}={c} thins a competing law; "
                "only degenerate (0 or 1) branches admit a 12-state CTMC"
            )
    Q = np.zeros((12, 12))

    def arc(i, j, rate):
        Q[i, j] += rate

    arc(0, 8, _rate(p.aging_primary, "aging_primary"))
    arc(1, 11, _rate(p.fail_idle_backup, "fail_idle_backup"))
    if p.c1:
        arc(1, 9, _rate(p.a4, "trigger a4"))
        arc(8, 2, _rate(p.a1, "trigger a1"))
    if p.c2:
        arc(1, 5, _rate(p.reboot_primary, "reboot_primary"))
        arc(8, 3, _rate(p.reboot_backup, "reboot_backup"))
    if p.c3:
        arc(1, 4, _rate(p.fixing_primary, "fixing_primary"))
        arc(8, 6, _rate(p.fixing_backup, "fixing_backup"))
    arc(2, 7, _rate(p.migration, "migration"))
    arc(2, 10, _rate(p.fail_migrating_primary, "fail_migrating_primary"))
    arc(3, 2, _rate(p.a3, "trigger a3"))
    arc(3, 10, _rate(p.fail_reboot_primary, "fail_reboot_primary"))
    arc(4, 9, _rate(p.a5, "trigger a5"))
    arc(4, 11, _rate(p.fail_fixing_backup, "fail_fixing_backup"))
    arc(5, 9, _rate(p.a6, "trigger a6"))
    arc(5, 11, _rate(p.fail_reboot_backup, "fail_reboot_backup"))
    arc(6, 2, _rate(p.a2, "trigger a2"))
    arc(6, 10, _rate(p.fail_fixing_primary, "fail_fixing_primary"))
    arc(7, 1, _rate(p.aging_backup, "aging_backup"))
    arc(8, 10, _rate(p.fail_idle_primary, "fail_idle_primary"))
    arc(9, 0, _rate(p.migration, "migration"))
    arc(9, 11, _rate(p.fail_migrating_backup, "fail_migrating_backup"))
    arc(10, 0, _rate(p.fixing_primary, "fixing_primary"))
    arc(11, 7, _rate(p.fixing_backup, "fixing_backup"))

    np.fill_diagonal(Q, Q.diagonal() - Q.sum(axis=1))
    return Q


def availability_ctmc(p: ModelParams) -> float:
    """Steady-state probability of the up states from the generator."""
    Q = generator(p)
    n = Q.shape[0]
    A = Q.T.copy()
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    return 1.0 - pi[10] - pi[11]


def mttf_ctmc(p: ModelParams) -> float:
    """Mean first-passage time from state 0 into the failed states."""
    Q = generator(p)
    # repair arcs removed: failed states become absorbing
    Q[10, :] = 0.0
    Q[11, :] = 0.0
    U = Q[:10, :10]
    tau = np.linalg.solve(-U, np.ones(10))
    return float(tau[0])

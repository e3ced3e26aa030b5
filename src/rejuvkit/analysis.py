"""Analytic metrics: steady-state availability, MTTF, mean completion time.

:func:`metrics_report` is the one assembly of the model: it builds the
kernel and sojourn times once, weights the embedded chain's stationary
vector (on the closed set of states that state 0 reaches) by the sojourn
times for availability, and solves the expected visit counts of the
absorbing (no-repair) variant for MTTF, which is infinite when no
failure state is reachable.  :func:`availability` and :func:`mttf` are
views of it; :func:`mttf` raises on an infinite MTTF.

Completion time solves the pair of Laplace-Stieltjes fixed-point
equations for the two failure-attribution cases and extracts the mean
as minus the derivative at zero.  :func:`completion_cases` resolves the
two cases once per call; the transforms, both derivative routes and the
simulator all read them.  One pass over a case gives its completion and
restart masses A(s), B(s) and their derivatives; the pair is lower
triangular and is back-substituted, so one solve gives both transforms
and both derivatives.  The windowed transforms and moments of the
failure laws are exact: a point mass counts when its offset lies in the
window, and a phase-type law takes one block matrix exponential
(:func:`numerics.phase_window`, which memoises them).  The default route
reads the derivative at zero from that solve; ``method="richardson"``
(finite differences with one Richardson step over the same pair solves)
is kept as a cross-check, its step halved until the stencil stays clear
of the pole where B(s) = 1.

Completion-time model, per case
-------------------------------
The execution runs at rate ``r1`` until the migration trigger (work
``a1``, wall time ``a1/r1``) and at rate ``r2`` afterwards, finishing at
``T0 = a1/r1 + (x - a1)/r2`` if no failure strikes first.  Failures
before the trigger follow the idle-phase failure law; at the trigger
epoch tau the survivors S_pre(tau) split, independently of that law, in
proportion c2 F_reboot(tau) : c3 F_fix(tau) : rest over three branches
(backup rebooted / fixed in time / everything else), each with its own
post-trigger failure law.  A failure at epoch ``h`` discards all
work: the clock accrues ``h`` plus a restart overhead plus a fresh
aging-onset wait, and the whole execution repeats.  This makes the LST
linear in itself, solved here in closed form per evaluation point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Deterministic, Distribution
from .model import ModelConsistencyError, ModelParams, _kernel
from .numerics import (
    AbsorptionUnreachable, _stationary, absorbing_visits, phase_window, reachability
)

__all__ = [
    "WorkloadSpec",
    "MetricsReport",
    "CompletionDivergenceError",
    "availability",
    "mttf",
    "completion_cases",
    "completion_lsts",
    "completion_lst_primary",
    "completion_lst_backup",
    "completion_time",
    "metrics_report",
]

_FD_STEP = 1e-4  # largest base step of the Richardson derivative at s = 0
# A(0) + B(0) = 1 holds to rounding; the bound is a few tens of ulp
_CONSERVATION_TOL = 32 * np.finfo(float).eps


class CompletionDivergenceError(ArithmeticError):
    """The restart loop does not terminate: B(s) >= 1."""


@dataclass(frozen=True)
class WorkloadSpec:
    """Inputs of the completion-time analysis.

    ``x`` is the total work in work units (one unit per hour at the
    healthy-state rate).  ``b1``/``b2`` weight the two failure-attribution
    cases; the backup case analyses the remaining ``x - x1`` units with
    its trigger at epoch ``t1``.  ``None`` fields resolve to defaults at
    evaluation time: ``x1 = x/2``, ``t1 = a4``, restart overheads = the
    fixing laws.  ``backup_restart_via_primary`` keeps the printed
    routing of the backup case's restart terms through the primary-case
    transform; set it False to make the backup case restart into itself.
    A spec is checked once, when it is built: construction raises
    ``ValueError`` naming every violation that :meth:`validate` lists.
    """

    x: float
    x1: float | None = None
    r1: float = 1.0
    r2: float = 1.0
    b1: float = 1.0
    b2: float = 0.0
    t1: float | None = None
    restart_overhead_primary: Distribution | None = None
    restart_overhead_backup: Distribution | None = None
    backup_restart_via_primary: bool = True

    def validate(self) -> list[str]:
        problems = []
        if not (self.x > 0.0 and math.isfinite(self.x)):
            problems.append(f"x must be positive, got {self.x}")
        if self.x1 is not None and not 0.0 <= self.x1 <= self.x:
            problems.append(f"x1 must lie in [0, x], got {self.x1}")
        if not 0.0 < self.r1 <= 1.0:
            problems.append(f"r1 must lie in (0, 1], got {self.r1}")
        if self.r2 != 1.0:
            problems.append(f"r2 is fixed at 1, got {self.r2}")
        if self.b1 < 0.0 or self.b2 < 0.0 or abs(self.b1 + self.b2 - 1.0) > 1e-12:
            problems.append(f"b1 + b2 must equal 1, got {self.b1} + {self.b2}")
        if self.t1 is not None and self.t1 < 0.0:
            problems.append(f"t1 must be >= 0, got {self.t1}")
        return problems

    def __post_init__(self):
        problems = self.validate()
        if problems:
            raise ValueError("invalid workload: " + "; ".join(problems))


@dataclass(frozen=True)
class MetricsReport:
    availability: float
    mttf: float
    completion_time: float | None
    pi: np.ndarray  # long-run fraction of time per state
    visits: np.ndarray | None  # expected visits before first failure, states 0-9
    kernel: np.ndarray  # embedded DTMC transition matrix
    sojourn: np.ndarray  # mean sojourn hours per state
    stationary: np.ndarray  # stationary vector of the kernel


def metrics_report(p: ModelParams, w: WorkloadSpec | None = None) -> MetricsReport:
    """All analytic metrics from one model build."""
    P, h = _kernel(p)
    # a transition too rare to represent (0.0) can split off a closed class
    # that state 0 never visits; the closed set that state 0 reaches gets all mass
    reach = reachability(P)
    live = np.ix_(reach[0], reach[0])
    v = np.zeros(len(P))
    v[reach[0]] = _stationary(P[live], reach[live])
    weighted = v * h
    pi = weighted / weighted.sum()
    avail = float(1.0 - pi[10] - pi[11])

    # no-repair variant: the failed states absorb, execution starts in 0
    alpha = np.zeros(10)
    alpha[0] = 1.0
    try:
        V = absorbing_visits(P[:10, :10], alpha)
    except AbsorptionUnreachable:  # no failure state is reachable
        V = None
    life = math.inf if V is None else float(V @ h[:10])

    completed = completion_time(p, w) if w is not None else None
    return MetricsReport(avail, life, completed, pi, V, P, h, v)


def availability(p: ModelParams) -> float:
    """Long-run fraction of time in the ten up states."""
    return metrics_report(p).availability


def mttf(p: ModelParams) -> float:
    """Mean time to first failure with repair disabled; finite or raises."""
    report = metrics_report(p)
    if report.visits is None:
        raise AbsorptionUnreachable("I - M is singular: the model has no path to absorption")
    return report.mttf


# --- completion time -------------------------------------------------------


@dataclass(frozen=True)
class _Case:
    """One failure-attribution case of the completion-time equations."""

    tau: float  # wall clock until the migration trigger
    delta: float  # wall clock of the post-trigger phase
    aging: Distribution  # fresh onset wait paid per restart
    pre_fail: Distribution
    post: tuple  # ((mass, law) for the three post-trigger branches)
    overhead: Distribution

    @property
    def t0(self):
        return self.tau + self.delta


def completion_cases(p: ModelParams, w: WorkloadSpec) -> tuple[_Case, _Case]:
    """The (primary, backup) cases of ``w`` under ``p``.

    The post-trigger masses are S_pre(tau) (c2 F_reboot(tau), c3 F_fix(tau),
    c1 + c2 S_reboot(tau) + c3 S_fix(tau)) / (c1 + c2 + c3), none of them a
    difference that could round below 0: whether the backup finished its
    reboot or fix by the trigger epoch is independent of the primary's
    pre-trigger failure.  Each case must conserve mass, A(0) + B(0) = 1.
    """
    x1 = w.x / 2.0 if w.x1 is None else w.x1
    if w.t1 is None:
        if isinstance(p.a4, Distribution):
            raise ValueError("t1 must be given explicitly when a4 is a distribution")
        t1 = float(p.a4)
    else:
        t1 = w.t1
    a1 = p.a1
    if isinstance(a1, Distribution):
        raise ValueError("completion analysis needs a plain trigger delay a1")
    if a1 > w.x:
        raise ValueError(f"trigger work a1={a1} exceeds the work requirement x={w.x}")
    if t1 > w.x - x1:
        raise ValueError(f"t1={t1} exceeds the remaining work x - x1 = {w.x - x1}")
    g1 = w.restart_overhead_primary or p.fixing_primary
    g2 = w.restart_overhead_backup or p.fixing_backup

    def build(trig_work, rem_work, aging, pre_fail, gate_reboot, gate_fix, laws, overhead):
        tau = trig_work / w.r1
        # c1 + c2 + c3 may miss 1 by validate's slack: the shares divide by it
        scale = pre_fail.survival(tau) / (p.c1 + p.c2 + p.c3)
        rest = p.c1 + p.c2 * gate_reboot.survival(tau) + p.c3 * gate_fix.survival(tau)
        shares = (p.c2 * gate_reboot.cdf(tau), p.c3 * gate_fix.cdf(tau), rest)
        post = tuple((scale * share, law) for share, law in zip(shares, laws))
        case = _Case(tau, rem_work / w.r2, aging, pre_fail, post, overhead)
        A, B, _, _ = _ab(case, 0.0)
        if abs(A + B - 1.0) > _CONSERVATION_TOL:
            raise ModelConsistencyError(
                f"completion masses A(0) + B(0) = {A + B!r} must equal 1 "
                f"(trigger epoch {tau:.6g} h)"
            )
        return case

    primary = build(
        a1,
        w.x - a1,
        p.aging_primary,
        p.fail_idle_primary,
        p.reboot_backup,
        p.fixing_backup,
        (p.fail_fixing_primary, p.fail_reboot_primary, p.fail_migrating_primary),
        g1,
    )
    backup = build(
        t1,
        (w.x - x1) - t1,
        p.aging_backup,
        p.fail_idle_backup,
        p.reboot_primary,
        p.fixing_primary,
        (p.fail_fixing_backup, p.fail_reboot_backup, p.fail_migrating_backup),
        g2,
    )
    return primary, backup


def _window(d: Distribution, s: float, hi: float) -> tuple[float, float]:
    """Integrals of exp(-s h) dF(h) and h exp(-s h) dF(h) over [0, hi].

    A point mass counts when its offset lies in (0, hi] or is 0."""
    if isinstance(d, Deterministic):
        lst = math.exp(-s * d.offset) if d.offset <= hi else 0.0
        return lst, d.offset * lst
    return phase_window(d, s, hi)


def _ab(case: _Case, s: float):
    """(A, B, A', B') of one case at s: completion and restart masses and
    their derivatives in s.

    A = e^{-s T0} sum m S(delta) and B = G(s) J(s), with G the overhead and
    aging transforms and J the windowed failure transforms; from a window's
    (transform W, moment M), J' = -M_pre - e^{-s tau} sum m (tau W + M).
    """
    surv = sum(m * law.survival(case.delta) for m, law in case.post)
    A = math.exp(-s * case.t0) * surv
    J, moment = _window(case.pre_fail, s, case.tau)
    post = [(m, *_window(law, s, case.delta)) for m, law in case.post]
    lag = math.exp(-s * case.tau)
    J += lag * sum(m * W for m, W, _ in post)
    dJ = -moment - lag * sum(m * (case.tau * W + M) for m, W, M in post)
    g1, g2 = case.overhead.lst(s), case.aging.lst(s)
    dG = case.overhead.lst_derivative(s) * g2 + g1 * case.aging.lst_derivative(s)
    return A, g1 * g2 * J, -case.t0 * A, dG * J + g1 * g2 * dJ


def _pair(cases, w: WorkloadSpec, s: float):
    """((phi1, phi2), (phi1', phi2')) of the two case transforms at s.

    The pair is lower triangular: phi1 = A1 / (1 - B1), and the backup
    case is A2 + B2 phi1 or, restarting into itself, A2 / (1 - B2).  At
    s = 0, A stands for 1 - B (conservation), which cancels as B(0) nears 1.
    """
    (A1, B1, dA1, dB1), (A2, B2, dA2, dB2) = (_ab(case, s) for case in cases)
    gap1, gap2 = (A1, A2) if s == 0.0 else (1.0 - B1, 1.0 - B2)
    if gap1 <= 0.0 or (not w.backup_restart_via_primary and gap2 <= 0.0):
        raise CompletionDivergenceError(
            f"restart mass B(s={s}) >= 1: the execution never completes under "
            "this workload/failure configuration"
        )
    phi1 = A1 / gap1
    d1 = (dA1 + phi1 * dB1) / gap1
    if w.backup_restart_via_primary:
        return (phi1, A2 + B2 * phi1), (d1, dA2 + dB2 * phi1 + B2 * d1)
    phi2 = A2 / gap2
    return (phi1, phi2), (d1, (dA2 + phi2 * dB2) / gap2)


def completion_lsts(p: ModelParams, w: WorkloadSpec, s: float) -> tuple[float, float]:
    """Transforms of the (primary, backup) completion times at s >= 0."""
    return _pair(completion_cases(p, w), w, s)[0]


def completion_lst_primary(p: ModelParams, w: WorkloadSpec, s: float) -> float:
    """Transform of the primary-case completion time at s >= 0."""
    return completion_lsts(p, w, s)[0]


def completion_lst_backup(p: ModelParams, w: WorkloadSpec, s: float) -> float:
    """Transform of the backup-case completion time at s >= 0."""
    return completion_lsts(p, w, s)[1]


def _mean_richardson(cases, w: WorkloadSpec):
    def phi(s):
        return np.array(_pair(cases, w, s)[0])

    def central(h):
        return (-phi(2 * h) + 8.0 * phi(h) - 8.0 * phi(-h) + phi(-2 * h)) / (12.0 * h)

    # the stencil reaches s = -2h: inside the aging and overhead poles, and,
    # for each case that restarts into itself, far from the pole of
    # phi = A / (1 - B) where B(s) = 1, which is often nearer
    pole = min(d.lst_pole for case in cases for d in (case.aging, case.overhead))
    h0 = min(_FD_STEP, 0.4 * pole)
    for case in cases if not w.backup_restart_via_primary else cases[:1]:
        B0 = _ab(case, 0.0)[1]
        while _ab(case, -2.0 * h0)[1] - B0 > 0.01 * (1.0 - B0):
            h0 /= 2.0
    return -(16.0 * central(h0 / 2.0) - central(h0)) / 15.0


def completion_time(p: ModelParams, w: WorkloadSpec, method: str = "analytic") -> float:
    """Mean completion time: minus the transform derivative at zero.

    ``method="analytic"`` (default) differentiates the assembled
    transform in closed form; ``method="richardson"`` uses fourth-order
    central differences with one Richardson extrapolation step (a
    numerical cross-check of the exact route).
    """
    if method not in ("analytic", "richardson"):
        raise ValueError(f"unknown method {method!r}")
    cases = completion_cases(p, w)
    _, (d1, d2) = _pair(cases, w, 0.0)
    e1, e2 = _mean_richardson(cases, w) if method == "richardson" else (-d1, -d2)
    mean = w.b1 * e1 + w.b2 * e2
    floor = w.b1 * cases[0].t0 + w.b2 * cases[1].t0
    if mean < floor - 1e-6 * max(1.0, floor):
        raise ModelConsistencyError(
            f"completion mean {mean} fell below the failure-free floor {floor}"
        )
    return float(mean)

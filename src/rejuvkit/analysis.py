"""Analytic metrics: steady-state availability, MTTF, mean completion time.

One batched assembly serves a sweep's whole grid: it builds the kernels
and sojourn times of all the points at once, and reduces each kernel and
its restart chain, in which a failure leads back to state 0, in one
stacked state reduction (:mod:`rejuvkit.numerics`).  Availability weights
the kernel's stationary vector (on the closed class that state 0
reaches) by the sojourn times.  A restart cycle holds one failure and
the visits before it, so the restart chain's vector w gives the
expected visits before the first failure (repair disabled) as
w[:10] / (w10 + w11); the MTTF is infinite when w10 + w11 is 0.
:func:`metrics_report` is its view of one point, and :func:`availability`
and :func:`mttf` are views of that; :func:`mttf` raises on an infinite
MTTF.  The report resolves completion only where it applies.

Completion time solves the pair of Laplace-Stieltjes fixed-point
equations for the two failure-attribution cases and extracts the mean
as minus the derivative at zero.  The cases are resolved once per call,
with the windows of all the points of a batch evaluated together; the
transforms, both derivative routes and the simulator all read them.
One pass over a case gives its completion and restart masses A(s),
B(s) and their derivatives; the pair is lower triangular and is
back-substituted, so one solve gives both transforms and both
derivatives.  The windowed transforms and moments of the
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
post-trigger failure law.  This reads the c's as shares, not as the
independent arming of the kernel (:mod:`rejuvkit.model`); which reading
completion should take is open (ROADMAP).  A failure at ``h`` discards
all work: the clock accrues ``h`` plus a restart overhead plus a fresh
aging-onset wait, and the whole execution repeats.  This makes the LST
linear in itself, solved here in closed form per evaluation point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Deterministic, Distribution
from .model import ModelConsistencyError, ModelParams, _kernel
from .numerics import AbsorptionUnreachable, _stationary, phase_window

__all__ = [
    "WorkloadSpec",
    "MetricsReport",
    "CompletionDivergenceError",
    "CompletionNotApplicable",
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


class CompletionNotApplicable(ValueError):
    """The model has no completion analysis: the trigger delay a1 is a law."""


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
    ``ValueError`` naming every violation.
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

    def __post_init__(self):
        problems = []
        if not (self.x > 0.0 and math.isfinite(self.x)):
            problems.append(f"x must be positive, got {self.x}")
        if self.x1 is not None and not 0.0 <= self.x1 <= self.x:
            problems.append(f"x1 must lie in [0, x], got {self.x1}")
        if not 0.0 < self.r1 <= 1.0:
            problems.append(f"r1 must lie in (0, 1], got {self.r1}")
        if self.r2 != 1.0:
            problems.append(f"r2 is fixed at 1, got {self.r2}")
        if not (self.b1 >= 0.0 and self.b2 >= 0.0 and abs(self.b1 + self.b2 - 1.0) <= 1e-12):
            problems.append(f"b1 + b2 must equal 1, got {self.b1} + {self.b2}")
        if self.t1 is not None and not self.t1 >= 0.0:
            problems.append(f"t1 must be >= 0, got {self.t1}")
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
    """All analytic metrics from one model build; the completion time is
    None without a workload, or when the trigger delay a1 is a law."""
    return _reports([p], [w])[0]


def _reports(ps, ws=None) -> list[MetricsReport]:
    """:func:`metrics_report` of each parameter set in ``ps`` (with the
    workloads ``ws``), from one batched model build and one stacked state
    reduction of the points' kernels and restart chains."""
    P, h = _kernel(ps)
    # the restart chain: P with the failed states sent back to state 0
    R = P.copy()
    R[:, 10:] = 0.0
    R[:, 10:, 0] = 1.0
    v, r = np.split(_stationary(np.moveaxis(np.concatenate((P, R)), 0, -1)).T, 2)
    weighted = v * h
    pi = weighted / weighted.sum(axis=-1, keepdims=True)
    avail = 1.0 - pi[:, 10] - pi[:, 11]

    # renewal-reward: visits per restart cycle over failures per cycle
    failures = r[:, 10] + r[:, 11]
    visits = [None if f == 0.0 else r[n, :10] / f for n, f in enumerate(failures.tolist())]

    # completion applies where there is a workload and a1 is a plain delay
    ws = ws or [None] * len(ps)
    applies = [
        n for n, (p, w) in enumerate(zip(ps, ws))
        if w is not None and not isinstance(p.a1, Distribution)
    ]
    completed = dict.fromkeys(range(len(ps)))
    if applies:
        means = _completion_times([ps[n] for n in applies], [ws[n] for n in applies])
        completed.update(zip(applies, means))
    return [
        MetricsReport(
            float(avail[n]), math.inf if V is None else float(V @ h[n, :10]), completed[n],
            pi[n], V, P[n], h[n], v[n],
        )
        for n, V in enumerate(visits)
    ]


def availability(p: ModelParams) -> float:
    """Long-run fraction of time in the ten up states."""
    return metrics_report(p).availability


def mttf(p: ModelParams) -> float:
    """Mean time to first failure with repair disabled; finite or raises."""
    report = metrics_report(p)
    if report.visits is None:
        raise AbsorptionUnreachable("failure is not certain: some path never reaches absorption")
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
    return _resolve([p], [w])[0][0]


def _resolve(ps, ws):
    """((primary, backup), their (A, B, A', B') at s = 0) for each (p, w)
    pair: :func:`completion_cases`, with the windows of every point's cases
    evaluated together."""
    cases = [_cases(p, w) for p, w in zip(ps, ws)]
    flat = [case for pair in cases for case in pair]
    ab = _ab(flat, 0.0)
    for case, (A, B, _, _) in zip(flat, ab):
        if abs(A + B - 1.0) > _CONSERVATION_TOL:
            raise ModelConsistencyError(
                f"completion masses A(0) + B(0) = {A + B!r} must equal 1 "
                f"(trigger epoch {case.tau:.6g} h)"
            )
    return list(zip(cases, zip(ab[::2], ab[1::2])))


def _cases(p: ModelParams, w: WorkloadSpec) -> tuple[_Case, _Case]:
    """The (primary, backup) cases of ``w`` under ``p``, unchecked."""
    x1 = w.x / 2.0 if w.x1 is None else w.x1
    if w.t1 is None:
        if isinstance(p.a4, Distribution):
            raise ValueError("t1 must be given explicitly when a4 is a distribution")
        t1 = float(p.a4)
    else:
        t1 = w.t1
    a1 = p.a1
    if isinstance(a1, Distribution):
        raise CompletionNotApplicable("completion analysis needs a plain trigger delay a1")
    if a1 > w.x:
        raise ValueError(f"trigger work a1={a1} exceeds the work requirement x={w.x}")
    if t1 > w.x - x1:
        raise ValueError(f"t1={t1} exceeds the remaining work x - x1 = {w.x - x1}")
    g1 = w.restart_overhead_primary or p.fixing_primary
    g2 = w.restart_overhead_backup or p.fixing_backup

    def build(trig_work, rem_work, aging, pre_fail, gate_reboot, gate_fix, laws, overhead):
        tau = trig_work / w.r1
        # c1 + c2 + c3 may miss 1 by ModelParams' 1e-12 slack: the shares divide by it
        scale = pre_fail.survival(tau) / (p.c1 + p.c2 + p.c3)
        rest = p.c1 + p.c2 * gate_reboot.survival(tau) + p.c3 * gate_fix.survival(tau)
        shares = (p.c2 * gate_reboot.cdf(tau), p.c3 * gate_fix.cdf(tau), rest)
        post = tuple((scale * share, law) for share, law in zip(shares, laws))
        return _Case(tau, rem_work / w.r2, aging, pre_fail, post, overhead)

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


def _windows(requests, s: float) -> list:
    """Integrals of exp(-s h) dF(h) and h exp(-s h) dF(h) over [0, hi], for
    each ``(law, hi)`` request.

    A point mass counts when its offset lies in (0, hi] or is 0.  Each
    phase-type law takes one :func:`numerics.phase_window` call, stacked
    over its distinct window lengths."""
    asked = {}
    for i, (d, hi) in enumerate(requests):
        asked.setdefault(d, {}).setdefault(hi, []).append(i)
    out = [None] * len(requests)
    for d, lengths in asked.items():
        if isinstance(d, Deterministic):
            lsts = [math.exp(-s * d.offset) if d.offset <= hi else 0.0 for hi in lengths]
            found = [(lst, d.offset * lst) for lst in lsts]
        else:
            found = phase_window(d, s, tuple(lengths))
        for where, value in zip(lengths.values(), found):
            for i in where:
                out[i] = value
    return out


def _ab(cases, s: float) -> list:
    """(A, B, A', B') of each case at s: completion and restart masses and
    their derivatives in s; the windows of all the cases are evaluated
    together.

    A = e^{-s T0} sum m S(delta) and B = G(s) J(s), with G the overhead and
    aging transforms and J the windowed failure transforms; from a window's
    (transform W, moment M), J' = -M_pre - e^{-s tau} sum m (tau W + M).
    """
    requests = []
    for case in cases:
        requests.append((case.pre_fail, case.tau))
        requests.extend((law, case.delta) for _, law in case.post)
    found = iter(_windows(requests, s))
    out = []
    for case in cases:
        surv = sum(m * law.survival(case.delta) for m, law in case.post)
        A = math.exp(-s * case.t0) * surv
        J, moment = next(found)
        post = [(m, *next(found)) for m, _ in case.post]
        lag = math.exp(-s * case.tau)
        J += lag * sum(m * W for m, W, _ in post)
        dJ = -moment - lag * sum(m * (case.tau * W + M) for m, W, M in post)
        g1, g2 = case.overhead.lst(s), case.aging.lst(s)
        dG = case.overhead.lst_derivative(s) * g2 + g1 * case.aging.lst_derivative(s)
        out.append((A, g1 * g2 * J, -case.t0 * A, dG * J + g1 * g2 * dJ))
    return out


def _pair(ab, w: WorkloadSpec, s: float):
    """((phi1, phi2), (phi1', phi2')) of the two case transforms at s, from
    the cases' (A, B, A', B') ``ab`` at s.

    The pair is lower triangular: phi1 = A1 / (1 - B1), and the backup
    case is A2 + B2 phi1 or, restarting into itself, A2 / (1 - B2).  At
    s = 0, A stands for 1 - B (conservation), which cancels as B(0) nears 1.
    """
    (A1, B1, dA1, dB1), (A2, B2, dA2, dB2) = ab
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
    cases, ab = _resolve([p], [w])[0]
    return _pair(ab if s == 0.0 else _ab(cases, s), w, s)[0]


def completion_lst_primary(p: ModelParams, w: WorkloadSpec, s: float) -> float:
    """Transform of the primary-case completion time at s >= 0."""
    return completion_lsts(p, w, s)[0]


def completion_lst_backup(p: ModelParams, w: WorkloadSpec, s: float) -> float:
    """Transform of the backup-case completion time at s >= 0."""
    return completion_lsts(p, w, s)[1]


def _mean_richardson(cases, w: WorkloadSpec):
    def phi(s):
        return np.array(_pair(_ab(cases, s), w, s)[0])

    def central(h):
        return (-phi(2 * h) + 8.0 * phi(h) - 8.0 * phi(-h) + phi(-2 * h)) / (12.0 * h)

    # the stencil reaches s = -2h: inside the aging and overhead poles, and,
    # for each case that restarts into itself, far from the pole of
    # phi = A / (1 - B) where B(s) = 1, which is often nearer
    pole = min(d.lst_pole for case in cases for d in (case.aging, case.overhead))
    h0 = min(_FD_STEP, 0.4 * pole)
    for case in cases if not w.backup_restart_via_primary else cases[:1]:
        B0 = _ab([case], 0.0)[0][1]
        while _ab([case], -2.0 * h0)[0][1] - B0 > 0.01 * (1.0 - B0):
            h0 /= 2.0
    return -(16.0 * central(h0 / 2.0) - central(h0)) / 15.0


def completion_time(p: ModelParams, w: WorkloadSpec, method: str = "analytic") -> float:
    """Mean completion time: minus the transform derivative at zero.

    ``method="analytic"`` (default) differentiates the assembled
    transform in closed form; ``method="richardson"`` uses fourth-order
    central differences with one Richardson extrapolation step (a
    numerical cross-check of the exact route).
    """
    return _completion_times([p], [w], method)[0]


def _completion_times(ps, ws, method: str = "analytic") -> list[float]:
    """:func:`completion_time` of each (p, w) pair, the windows of all the
    points evaluated together."""
    if method not in ("analytic", "richardson"):
        raise ValueError(f"unknown method {method!r}")
    means = []
    for (cases, ab), w in zip(_resolve(ps, ws), ws):
        _, (d1, d2) = _pair(ab, w, 0.0)
        e1, e2 = _mean_richardson(cases, w) if method == "richardson" else (-d1, -d2)
        mean = w.b1 * e1 + w.b2 * e2
        floor = w.b1 * cases[0].t0 + w.b2 * cases[1].t0
        if mean < floor - 1e-6 * max(1.0, floor):
            raise ModelConsistencyError(
                f"completion mean {mean} fell below the failure-free floor {floor}"
            )
        means.append(float(mean))
    return means

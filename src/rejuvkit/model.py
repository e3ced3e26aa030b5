"""The 12-state container-aging semi-Markov model.

State space
-----------
Each state pairs the primary and backup host OS condition; the container
service runs on whichever side is not idle.  States 10 and 11 (an OS has
failed while hosting the service) are the only unavailable ones.

Dynamics: the service runs on the healthy primary (state 0) until aging
is detected (state 8).  Detection arms three events on independent
draws: the trigger ``a1`` with probability ``c1`` (state 2 follows), the
backup's reboot with ``c2`` (state 3) and its fixing with ``c3`` (state
6).  The first armed event to fire wins; with probability
(1 - c1)(1 - c2)(1 - c3) none is armed.  Failure of the aging primary
preempts them all (state 10).  After a migration the roles swap, and
the mirrored states 7, 1, 5, 4, 9, 11 apply with triggers ``a4``..``a6``.

Each state is a race of independent competing events; branch-conditioned
events are "thinned": with probability ``c`` they fire after their law's
duration, otherwise never.  One-step transition probabilities are
integrals of the winner's density against the survival product of the
other events, and mean sojourn times integrate the full survival
product.  Every timed law is phase-type or a point mass: the trigger
steps cut each integral into segments, and the thinned survivals expand
once per state into a few products of phase-type survivals.  One call
of :func:`numerics.phase_integral` per product gives, exactly, its share
of every entry of the row and of the sojourn time.  A kernel row is the
plain sum of its events' integrals, divided by that sum once it is
checked to be 1; no entry is derived from its siblings.  The kernel
is built for a batch of parameter sets at once, as a sweep's grid: the
points that share a row's laws and thinning evaluate it together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .distributions import Deterministic, Distribution
from .numerics import phase_integral

__all__ = [
    "SystemState",
    "STATES",
    "KERNEL_TARGETS",
    "TRIGGER_SIDES",
    "TRIGGERS",
    "ModelParams",
    "ModelConsistencyError",
    "transition_matrix",
    "sojourn_times",
    "state_events",
    "scale_time",
]

N_STATES = 12


_CONDITION_LETTER = {
    "healthy": "H",
    "idle": "I",
    "aging": "A",
    "migrating": "M",
    "fixing": "S",
    "rebooting": "R",
    "failed": "F",
}


@dataclass(frozen=True)
class SystemState:
    index: int
    primary: str
    backup: str
    available: bool

    @property
    def label(self) -> str:
        return f"({_CONDITION_LETTER[self.primary]},{_CONDITION_LETTER[self.backup]})"


STATES = (
    SystemState(0, "healthy", "idle", True),
    SystemState(1, "idle", "aging", True),
    SystemState(2, "migrating", "idle", True),
    SystemState(3, "aging", "rebooting", True),
    SystemState(4, "fixing", "aging", True),
    SystemState(5, "rebooting", "aging", True),
    SystemState(6, "aging", "fixing", True),
    SystemState(7, "idle", "healthy", True),
    SystemState(8, "aging", "idle", True),
    SystemState(9, "idle", "migrating", True),
    SystemState(10, "failed", "idle", False),
    SystemState(11, "idle", "failed", False),
)

# Reachable one-step targets per state (the kernel's sparsity pattern).
KERNEL_TARGETS = {
    0: frozenset({8}),
    1: frozenset({4, 5, 9, 11}),
    2: frozenset({7, 10}),
    3: frozenset({2, 10}),
    4: frozenset({9, 11}),
    5: frozenset({9, 11}),
    6: frozenset({2, 10}),
    7: frozenset({1}),
    8: frozenset({2, 3, 6, 10}),
    9: frozenset({0, 11}),
    10: frozenset({0}),
    11: frozenset({7}),
}

# Trigger delays by the host whose aging they answer: a1..a3 follow aging
# of the primary, a4..a6 aging of the backup.
TRIGGER_SIDES = {"primary": ("a1", "a2", "a3"), "backup": ("a4", "a5", "a6")}
TRIGGERS = TRIGGER_SIDES["primary"] + TRIGGER_SIDES["backup"]

_ROW_SUM_TOL = 1e-8


class ModelConsistencyError(ArithmeticError):
    """A structural invariant of the kernel failed (names the row)."""


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set: 15 lifetime laws, 6 trigger delays, 3 branch odds.

    Failure laws are split by what the opposite host is doing at the
    time (idle / migrating / fixing / rebooting); by default a config
    ties all four to one law, but they are independently overridable.
    A set is checked once, when it is built: construction raises
    ``ValueError`` naming every violation.
    """

    aging_primary: Distribution
    aging_backup: Distribution
    fail_idle_primary: Distribution
    fail_idle_backup: Distribution
    fail_migrating_primary: Distribution
    fail_migrating_backup: Distribution
    fail_fixing_primary: Distribution
    fail_fixing_backup: Distribution
    fail_reboot_primary: Distribution
    fail_reboot_backup: Distribution
    fixing_primary: Distribution
    fixing_backup: Distribution
    reboot_primary: Distribution
    reboot_backup: Distribution
    migration: Distribution
    # trigger delays: plain hours (the usual unit-step delay) or a full
    # distribution (used e.g. when cross-checking against a CTMC with
    # exponential stand-ins for the steps)
    a1: float | Distribution
    a2: float | Distribution
    a3: float | Distribution
    a4: float | Distribution
    a5: float | Distribution
    a6: float | Distribution
    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        problems = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in TRIGGERS:
                if isinstance(value, Distribution):
                    continue
                if not (isinstance(value, (int, float)) and math.isfinite(value)):
                    problems.append(f"trigger offset {f.name} is not finite: {value!r}")
                elif value < 0:
                    problems.append(f"trigger offset {f.name} negative: {value}")
            elif f.name.startswith("c"):
                if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
                    problems.append(f"branch probability {f.name} outside [0,1]: {value!r}")
            elif not isinstance(value, Distribution):
                problems.append(f"{f.name} is not a distribution: {value!r}")
        csum = self.c1 + self.c2 + self.c3
        if abs(csum - 1.0) > 1e-12:
            problems.append(f"c1+c2+c3 = {csum} != 1")
        if problems:
            raise ValueError("invalid model parameters: " + "; ".join(problems))


@dataclass(slots=True)  # built 24 times per parameter set: a frozen __init__ costs 3x
class _Event:
    dist: Distribution
    thin: float  # probability the event is armed at all (1 = always)
    target: int


def _trigger(a) -> Distribution:
    return a if isinstance(a, Distribution) else Deterministic(float(a))


def state_events(p: ModelParams) -> list[list[_Event]]:
    """Competing events per state, in tie-break priority order."""
    return [
        [_Event(p.aging_primary, 1.0, 8)],
        [
            _Event(p.fail_idle_backup, 1.0, 11),
            _Event(_trigger(p.a4), p.c1, 9),
            _Event(p.reboot_primary, p.c2, 5),
            _Event(p.fixing_primary, p.c3, 4),
        ],
        [_Event(p.migration, 1.0, 7), _Event(p.fail_migrating_primary, 1.0, 10)],
        [_Event(_trigger(p.a3), 1.0, 2), _Event(p.fail_reboot_primary, 1.0, 10)],
        [_Event(_trigger(p.a5), 1.0, 9), _Event(p.fail_fixing_backup, 1.0, 11)],
        [_Event(_trigger(p.a6), 1.0, 9), _Event(p.fail_reboot_backup, 1.0, 11)],
        [_Event(_trigger(p.a2), 1.0, 2), _Event(p.fail_fixing_primary, 1.0, 10)],
        [_Event(p.aging_backup, 1.0, 1)],
        [
            _Event(p.fail_idle_primary, 1.0, 10),
            _Event(_trigger(p.a1), p.c1, 2),
            _Event(p.reboot_backup, p.c2, 3),
            _Event(p.fixing_backup, p.c3, 6),
        ],
        [_Event(p.migration, 1.0, 0), _Event(p.fail_migrating_backup, 1.0, 11)],
        [_Event(p.fixing_primary, 1.0, 0)],
        [_Event(p.fixing_backup, 1.0, 7)],
    ]


def _row(group):
    """(P(event k fires first) for each k, mean time until one fires), per point.

    ``group`` lists one state's events at each of n points that share
    every phase-type law and thinning; they differ only in point-mass
    offsets.  A point mass is evaluated at its offset, and is a step for
    the integrals: its factor 1 - c applies from the offset on.  Each
    thinned phase-type survival 1 - cF = (1 - c) + cS is expanded once;
    each product of survivals, with its coefficient (which holds each
    event's own c), adds its integrals, at all n points at once, into its
    events' entries and the sojourn.  Returns (n, k) entries and (n,)
    sojourns.
    """
    events = group[0]
    totals = np.zeros((len(group), len(events) + 1))  # each event's entry, then the sojourn
    steps = [() for _ in group]
    products = [(1.0, ())]
    for j, ev in enumerate(events):
        if ev.thin == 0.0:
            continue
        if not isinstance(ev.dist, Deterministic):
            split = [(ev.thin, (j,))] + ([(1.0 - ev.thin, ())] if ev.thin < 1.0 else [])
            products = [(c * cs, ks + extra) for c, ks in products for cs, extra in split]
            continue
        # simultaneous deterministic firings are awarded to the
        # earlier-listed event so that rows still sum to 1: a point mass
        # at t listed from j on (j itself included) has not fired
        for n, point_events in enumerate(group):
            t = point_events[j].dist.offset
            steps[n] += ((t, 1.0 - ev.thin),)
            acc = ev.thin
            for k, other in enumerate(point_events):
                tied = isinstance(other.dist, Deterministic) and other.dist.offset == t
                if not (tied and k >= j):
                    acc *= 1.0 - other.thin * other.dist.cdf(t)
            totals[n, j] = acc
    steps = tuple(steps)
    for c, ks in products:
        integrals = c * phase_integral(tuple(events[k].dist for k in ks), steps)
        np.add.at(totals, (slice(None), [*ks, -1]), integrals)
    # an integral of true size ~1e-35 can round to a few -1e-17
    return np.maximum(totals[:, :-1], 0.0), totals[:, -1]


def _kernel(ps) -> tuple[np.ndarray, np.ndarray]:
    """(P, h) of each parameter set in ``ps``: the embedded DTMC's (n, 12, 12)
    transition matrices and the (n, 12) mean sojourns.

    Each entry is the exact competing-risks integral of its event, so a
    row is the plain sum of its events' entries.  The points whose row
    has the same phase-type laws and thinning share one evaluation of it.
    A row whose sum strays from 1 by more than 1e-8 raises
    :class:`ModelConsistencyError`; the row is then divided by its sum,
    which removes the rounding.
    """
    events = [state_events(p) for p in ps]
    P = np.zeros((len(ps), N_STATES, N_STATES))
    h = np.zeros((len(ps), N_STATES))
    for i in range(N_STATES):
        groups = {}
        for n, point_events in enumerate(events):
            shared = None if len(ps) == 1 else tuple(
                (ev.thin, None if isinstance(ev.dist, Deterministic) else ev.dist)
                for ev in point_events[i]
            )
            groups.setdefault(shared, []).append(n)
        for points in groups.values():
            group = [events[n][i] for n in points]
            at = points if len(groups) > 1 else slice(None)
            entries, h[at, i] = _row(group)
            for ev, e in zip(group[0], entries.T):
                P[at, i, ev.target] += e
    total = P.sum(axis=-1)
    for n, i in np.argwhere(np.abs(total - 1.0) > _ROW_SUM_TOL)[:1]:
        raise ModelConsistencyError(
            f"kernel row {i} ({STATES[i].label}) sums to {total[n, i]:.12f} "
            f"before normalisation (off by {abs(total[n, i] - 1.0):.3e})"
        )
    P /= total[..., None]
    return P, h


def transition_matrix(p: ModelParams) -> np.ndarray:
    """One-step transition probability matrix of the embedded DTMC."""
    return _kernel([p])[0][0]


def sojourn_times(p: ModelParams) -> np.ndarray:
    """Mean sojourn time per state: integral of the survival product."""
    return _kernel([p])[1][0]


def scale_time(p: ModelParams, k: float) -> ModelParams:
    """Rescale the time unit: rates multiplied by k, durations divided by k."""
    changes = {}
    for f in fields(ModelParams):
        v = getattr(p, f.name)
        if isinstance(v, Distribution):
            changes[f.name] = v.scaled(k)
        elif f.name in TRIGGERS:
            changes[f.name] = v / k
    return replace(p, **changes)

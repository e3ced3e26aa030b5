"""The 12-state container-aging semi-Markov model.

State space
-----------
Each state pairs the primary and backup host OS condition; the container
service runs on whichever side is not idle.  States 10 and 11 (an OS has
failed while hosting the service) are the only unavailable ones.

Dynamics: the service runs on the healthy primary (state 0) until aging
is detected (state 8).  At detection the backup is healthy with
probability ``c1`` (migration is then scheduled after the trigger delay
``a1``), aging with ``c2`` (its reboot must complete first; state 3
follows), or failed with ``c3`` (its fixing must complete first; state 6
follows).  Failure of the aging primary preempts all of that (state 10).
After a successful migration (state 2) the roles swap and the mirrored
states 7, 1, 5, 4, 9, 11 apply with triggers ``a4``..``a6``.

Each state is a race of independent competing events; branch-conditioned
events are "thinned": with probability ``c`` they fire after their law's
duration, otherwise never.  One-step transition probabilities are
integrals of the winner's density against the survival product of the
other events, and mean sojourn times integrate the full survival
product.  Every timed law is phase-type or a point mass, so each
integral is evaluated exactly by :func:`numerics.phase_integral`: the
trigger steps cut it into segments, and the thinned survivals expand
into a few products of phase-type survivals.  A kernel row is the plain
sum of its events' integrals, divided by that sum once it is checked to
be 1; no entry is derived from its siblings.
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
    "validate",
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

    def require_valid(self):
        problems = validate(self)
        if problems:
            raise ValueError("invalid model parameters: " + "; ".join(problems))


@dataclass(frozen=True)
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


def _race(events, skip=None):
    """(terms, steps) of the survival product of ``events`` less ``skip``.

    A point mass is a step: its factor 1 - c applies from its offset on.
    A thinned phase-type survival 1 - cF = (1 - c) + cS expands the
    product into terms ``(coefficient, laws)`` of proper survivals.
    """
    terms = [(1.0, ())]
    steps = []
    for k, ev in enumerate(events):
        if k == skip or ev.thin == 0.0:
            continue
        if isinstance(ev.dist, Deterministic):
            steps.append((ev.dist.offset, 1.0 - ev.thin))
            continue
        split = [(ev.thin, (ev.dist,))] + ([(1.0 - ev.thin, ())] if ev.thin < 1.0 else [])
        terms = [(c * cs, laws + extra) for c, laws in terms for cs, extra in split]
    return terms, steps


def _entry(events, j):
    """P(event j fires first among the independent competing events)."""
    ev = events[j]
    if ev.thin == 0.0:
        return 0.0
    if isinstance(ev.dist, Deterministic):
        # exact point evaluation; simultaneous deterministic firings are
        # awarded to the earlier-listed event so that rows still sum to 1
        t = ev.dist.offset
        acc = ev.thin
        for k, other in enumerate(events):
            if k == j:
                continue
            if isinstance(other.dist, Deterministic):
                fired = other.dist.offset < t or (other.dist.offset == t and k < j)
                acc *= 1.0 - other.thin if fired else 1.0
            else:
                acc *= 1.0 - other.thin * other.dist.cdf(t)
        return acc
    # an integral of true size ~1e-35 can round to a few -1e-17
    return max(0.0, ev.thin * phase_integral(ev.dist, *_race(events, skip=j)))


def transition_matrix(p: ModelParams) -> np.ndarray:
    """One-step transition probability matrix of the embedded DTMC.

    Each entry is the exact competing-risks integral of its event, so a
    row is the plain sum of its events' entries.  A row whose sum strays
    from 1 by more than 1e-8 raises :class:`ModelConsistencyError`; the
    row is then divided by its sum, which removes the rounding.
    """
    p.require_valid()
    P = np.zeros((N_STATES, N_STATES))
    for i, evs in enumerate(state_events(p)):
        for j, ev in enumerate(evs):
            P[i, ev.target] += _entry(evs, j)
        total = P[i].sum()
        if abs(total - 1.0) > _ROW_SUM_TOL:
            raise ModelConsistencyError(
                f"kernel row {i} ({STATES[i].label}) sums to {total:.12f} "
                f"before normalisation (off by {abs(total - 1.0):.3e})"
            )
        P[i] /= total
    return P


def sojourn_times(p: ModelParams) -> np.ndarray:
    """Mean sojourn time per state: integral of the survival product."""
    p.require_valid()
    return np.array([phase_integral(None, *_race(evs)) for evs in state_events(p)])


def validate(p: ModelParams) -> list[str]:
    """All invariant violations (empty list = valid); never aborts early."""
    problems = []
    for f in fields(ModelParams):
        value = getattr(p, f.name)
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
        else:
            if not isinstance(value, Distribution):
                problems.append(f"{f.name} is not a distribution: {value!r}")
    csum = p.c1 + p.c2 + p.c3
    if abs(csum - 1.0) > 1e-12:
        problems.append(f"c1+c2+c3 = {csum} != 1")
    return problems


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

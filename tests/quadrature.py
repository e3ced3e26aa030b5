"""Adaptive-Simpson quadrature: an independent oracle for the exact engine.

The kernel, the sojourn times and the completion windows are computed in
the package by closed matrix forms (``numerics.phase_integral`` and
``numerics.phase_window``).  This module keeps the earlier numerical
route: Stieltjes integrals of competing-event survival products by
adaptive Simpson quadrature, with the improper tails truncated at
survival mass ``TAIL_MASS``.  The tests compare the two routes.
"""

from __future__ import annotations

import math

import numpy as np

from rejuvkit.distributions import Deterministic, Distribution, Exponential
from rejuvkit.model import N_STATES, ModelConsistencyError, ModelParams, state_events

DEFAULT_TOL = 1e-10  # absolute quadrature tolerance
TAIL_MASS = 1e-12  # survival mass discarded when truncating improper integrals
_MAX_DEPTH = 60

# Quadrature leaves about 1e-10 in each kernel entry, so the oracle closes
# its rows: rows whose single entry is structurally 1, and per multi-event
# row the residual target whose entry is 1 minus its siblings' sum.
_CERTAIN_ROWS = {0: 8, 7: 1, 10: 0, 11: 7}
_RESIDUAL_TARGET = {1: 9, 3: 2, 4: 9, 5: 9, 6: 2, 8: 2, 9: 11}


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to converge; carries the partial estimate."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


# --- truncation ------------------------------------------------------------


def truncation_point(d: Distribution, eps: float) -> float:
    """Smallest t with survival(t) <= eps."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    if isinstance(d, Deterministic):
        return d.offset
    if isinstance(d, Exponential):
        return -math.log(eps) / d.rate
    # bisection against survival()
    hi = max(d.mean(), 1e-12)
    while d.survival(hi) > eps:
        hi *= 2.0
        if hi > 1e300:  # pragma: no cover - defensive
            raise ArithmeticError("truncation bracket overflow")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if d.survival(mid) <= eps:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return hi


# --- adaptive Simpson ------------------------------------------------------


def _adapt(f, a, fa, b, fb, m, fm, whole, tol, depth, force):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    # the |S2-S1| indicator is only asymptotic: never accept within the
    # first forced levels, where a curvature sign change can cancel it
    if force <= 0 and abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"adaptive Simpson did not converge on [{a}, {b}] after {_MAX_DEPTH} levels",
            partial=left + right,
        )
    half = 0.5 * tol
    return _adapt(f, a, fa, m, fm, lm, flm, left, half, depth - 1, force - 1) + _adapt(
        f, m, fm, b, fb, rm, frm, right, half, depth - 1, force - 1
    )


def integrate(f, a: float, b: float, tol: float = DEFAULT_TOL) -> float:
    """Adaptive-Simpson integral of ``f`` over the finite interval [a, b]."""
    if not (a <= b and math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"need finite a <= b, got [{a}, {b}]")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adapt(f, a, fa, b, fb, m, fm, whole, tol, _MAX_DEPTH, 3)


def integrate_piecewise(f, a, b, knots=(), tol=DEFAULT_TOL):
    """Integrate over [a, b] split at interior ``knots``."""
    cuts = sorted({float(k) for k in knots if a < k < b})
    points = [a, *cuts, b]
    n = len(points) - 1
    per = tol / n
    return sum(integrate(f, points[i], points[i + 1], per) for i in range(n))


def stieltjes(g, d, tol=DEFAULT_TOL, lower=0.0, upper=None, knots=()) -> float:
    """Stieltjes integral of ``g`` against the law of ``d`` over [lower, upper].

    ``upper=None`` means the full support, truncated at ``TAIL_MASS``.  A
    point mass counts when its offset lies in (lower, upper], or when it
    equals a zero lower bound.
    """
    if lower < 0.0:
        raise ValueError(f"lower must be >= 0, got {lower}")
    if isinstance(d, Deterministic):
        t = d.offset
        inside = (lower < t or (lower == 0.0 and t == 0.0)) and (upper is None or t <= upper)
        return g(t) if inside else 0.0
    hi = truncation_point(d, TAIL_MASS) if upper is None else upper
    if hi <= lower:
        return 0.0
    mean = d.mean()
    cuts = set(knots)
    cuts.update((mean, 2.0 * mean))
    return integrate_piecewise(lambda t: g(t) * d.density(t), lower, hi, cuts, tol)


# --- survival-product kernel and sojourn times -----------------------------


def _knots(events, skip=None):
    pts = set()
    for k, ev in enumerate(events):
        if k == skip:
            continue
        if isinstance(ev.dist, Deterministic):
            pts.add(ev.dist.offset)
        else:
            pts.add(ev.dist.mean())
            pts.add(truncation_point(ev.dist, TAIL_MASS))
    return pts


def _survival_product(events, t, skip=None):
    acc = 1.0
    for k, ev in enumerate(events):
        if k == skip:
            continue
        acc *= 1.0 - ev.thin * ev.dist.cdf(t)
        if acc == 0.0:
            return 0.0
    return acc


def _entry(events, j, tol):
    ev = events[j]
    if ev.thin == 0.0:
        return 0.0
    if isinstance(ev.dist, Deterministic):
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
    g = lambda t: _survival_product(events, t, skip=j)
    return ev.thin * stieltjes(g, ev.dist, tol, knots=_knots(events, skip=j))


def transition_matrix(p: ModelParams, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The kernel by quadrature, with the same row guard and residual closure."""
    P = np.zeros((N_STATES, N_STATES))
    for i, evs in enumerate(state_events(p)):
        if i in _CERTAIN_ROWS:
            P[i, _CERTAIN_ROWS[i]] = 1.0
            continue
        for j, ev in enumerate(evs):
            P[i, ev.target] += _entry(evs, j, tol)
        if abs(P[i].sum() - 1.0) > 1e-8:
            raise ModelConsistencyError(f"kernel row {i} sums to {P[i].sum():.12f}")
        if i in _RESIDUAL_TARGET:
            r = _RESIDUAL_TARGET[i]
            P[i, r] = min(1.0, max(0.0, 1.0 - (P[i].sum() - P[i, r])))
        P[i] /= P[i].sum()
    return P


def sojourn_times(p: ModelParams, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Mean sojourn times by quadrature of the survival product."""
    hours = np.zeros(N_STATES)
    for i, evs in enumerate(state_events(p)):
        if len(evs) == 1:
            hours[i] = evs[0].dist.mean()
            continue
        # any always-armed event bounds the survival product
        upper = min(truncation_point(ev.dist, TAIL_MASS) for ev in evs if ev.thin == 1.0)
        if upper == 0.0:
            continue
        f = lambda t: _survival_product(evs, t)
        knots = {k for k in _knots(evs) if k < upper}
        hours[i] = integrate_piecewise(f, 0.0, upper, knots, tol)
    return hours


# --- completion windows ----------------------------------------------------


def window(d: Distribution, s: float, hi: float) -> tuple[float, float]:
    """Quadrature stand-in for ``analysis._window``: the windowed transform
    and moment of ``d`` over [0, hi]."""
    lst = stieltjes(lambda h: math.exp(-s * h), d, lower=0.0, upper=hi)
    moment = stieltjes(lambda h: h * math.exp(-s * h), d, lower=0.0, upper=hi)
    return lst, moment

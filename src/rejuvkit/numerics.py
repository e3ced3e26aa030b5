"""Shared numerical machinery: quadrature, Stieltjes integrals, chain solves.

Everything here is a pure function over immutable inputs.  The model is
12 states, so all linear algebra is dense with partial pivoting; no
sparse or iterative machinery is warranted at this scale.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import Deterministic, Distribution

__all__ = [
    "QuadratureError",
    "ReducibleChainError",
    "AbsorptionUnreachable",
    "integrate",
    "integrate_piecewise",
    "stieltjes",
    "dtmc_stationary",
    "absorbing_visits",
]

DEFAULT_TOL = 1e-10  # absolute quadrature tolerance
TAIL_MASS = 1e-12  # survival mass discarded when truncating improper integrals
_MAX_DEPTH = 60


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to converge; carries the partial estimate."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


class ReducibleChainError(ValueError):
    """The chain has no unique stationary vector; names the offending states."""

    def __init__(self, message, states=()):
        super().__init__(message)
        self.states = tuple(states)


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
    """Adaptive-Simpson integral of ``f`` over the finite interval [a, b].

    The estimate meets ``tol`` (absolute) on smooth integrands; improper
    integrals are the caller's problem (truncate via ``truncation_point``).
    """
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
    """Integrate over [a, b] split at interior ``knots``.

    Knots mark discontinuities (trigger steps) and scale changes (event
    means, truncation points of short-lived competitors) so the adaptive
    pass cannot step over a narrow feature.
    """
    cuts = sorted({float(k) for k in knots if a < k < b})
    points = [a, *cuts, b]
    n = len(points) - 1
    per = tol / n
    return sum(integrate(f, points[i], points[i + 1], per) for i in range(n))


def stieltjes(
    g,
    d: Distribution,
    tol: float = DEFAULT_TOL,
    lower: float = 0.0,
    upper: float | None = None,
    knots=(),
) -> float:
    """Stieltjes integral of ``g`` against the law of ``d`` over [lower, upper].

    ``upper=None`` means the full support; the tail past survival mass
    ``TAIL_MASS`` is dropped.  For a point mass the integral collapses to
    a single evaluation of ``g`` at the offset (exact).  Jump boundary
    semantics for point masses: the offset counts when it lies in
    (lower, upper], or when it equals a zero lower bound.
    """
    if lower < 0.0:
        raise ValueError(f"lower must be >= 0, got {lower}")
    if isinstance(d, Deterministic):
        t = d.offset
        inside = (lower < t or (lower == 0.0 and t == 0.0)) and (upper is None or t <= upper)
        return g(t) if inside else 0.0
    hi = d.truncation_point(TAIL_MASS) if upper is None else upper
    if hi <= lower:
        return 0.0
    mean = d.mean()
    cuts = set(knots)
    cuts.update((mean, 2.0 * mean))
    return integrate_piecewise(lambda t: g(t) * d.density(t), lower, hi, cuts, tol)


def _closed_classes(P: np.ndarray):
    """Recurrent classes of the adjacency pattern of ``P`` (Tarjan SCC)."""
    n = P.shape[0]
    adj = [np.nonzero(P[i] > 0.0)[0].tolist() for i in range(n)]
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    sccs = []
    counter = [0]

    def strongconnect(v):
        # iterative Tarjan to keep recursion shallow
        work = [(v, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            recurse = False
            for i in range(pi, len(adj[node])):
                w = adj[node][i]
                if index[w] is None:
                    work[-1] = (node, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[node] = min(low[node], index[w])
            if recurse:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(sorted(comp))

    for v in range(n):
        if index[v] is None:
            strongconnect(v)

    closed = []
    for comp in sccs:
        members = set(comp)
        if all(all(w in members for w in adj[v]) for v in comp):
            closed.append(comp)
    return closed


def dtmc_stationary(P: np.ndarray, tol_row: float = 1e-9) -> np.ndarray:
    """Stationary vector of a row-stochastic matrix: v = vP, sum(v) = 1.

    Solved densely by replacing one balance equation with the
    normalisation row.  Raises :class:`ReducibleChainError` when the
    chain has more than one recurrent class (singular beyond the
    normalisation), naming the states outside the main class.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    if P.shape != (n, n):
        raise ValueError(f"square matrix required, got {P.shape}")
    rows = P.sum(axis=1)
    bad = np.nonzero(np.abs(rows - 1.0) > tol_row)[0]
    if bad.size:
        raise ValueError(f"matrix is not row-stochastic in rows {bad.tolist()} (sums {rows[bad]})")

    closed = _closed_classes(P)
    if len(closed) != 1:
        outside = sorted(set(range(n)) - set(closed[0])) if closed else list(range(n))
        raise ReducibleChainError(
            f"chain has {len(closed)} recurrent classes; no unique stationary vector "
            f"(states outside the first class: {outside})",
            states=outside,
        )

    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        v = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by class check
        raise ReducibleChainError(f"stationary system singular: {exc}") from exc
    v[np.abs(v) < 1e-15] = 0.0
    if (v < -1e-10).any():
        raise ArithmeticError(f"stationary solve produced negative mass: {v}")
    v = np.clip(v, 0.0, None)
    return v / v.sum()


class AbsorptionUnreachable(ArithmeticError):
    """I - M is singular: no absorbing state can be reached."""


def absorbing_visits(M: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Expected visit counts V = alpha (I - M)^-1 for a sub-stochastic M."""
    M = np.asarray(M, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n) or alpha.shape != (n,):
        raise ValueError(f"shape mismatch: M {M.shape}, alpha {alpha.shape}")
    A = np.eye(n) - M
    try:
        V = np.linalg.solve(A.T, alpha)
    except np.linalg.LinAlgError as exc:
        raise AbsorptionUnreachable(
            "I - M is singular: the model has no path to absorption"
        ) from exc
    if not np.all(np.isfinite(V)):
        raise ArithmeticError("visit counts are not finite")
    if (V < -1e-9).any():
        raise ArithmeticError(f"negative expected visits: {V}")
    return np.clip(V, 0.0, None)

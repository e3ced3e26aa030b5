"""Shared numerical machinery: exact phase-type integrals, chain solves.

Every law in the model is phase-type (alpha, T) or a point mass, so the
integrals of competing-risks survival products, and the windowed
transforms of the completion analysis, have closed matrix forms; they
are evaluated here exactly, with no quadrature: one solve per product
of survivals gives all of its integrals at once.  The model is 12
states, so the chain solves are dense with partial pivoting.

The memos of exact work all live here, as bounded LRU caches keyed by
value, and the arrays they hold are read-only: ``_term_solution`` (256
entries; it depends on the laws only, so a trigger sweep shares it),
``_track`` (32: a law's row vectors at one state's trigger edges, shared
by the products of the row) and ``phase_window`` (32: what one
completion evaluation meets).
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "ReducibleChainError",
    "AbsorptionUnreachable",
    "kron_sum_solve",
    "phase_integral",
    "phase_window",
    "reachability",
    "dtmc_stationary",
    "absorbing_visits",
]

_TINY = np.finfo(float).tiny
# 1/k! for k = 0..24, row j holding the coefficients of M^(5j), ..., M^(5j + 4)
_TAYLOR = np.array([1.0 / math.factorial(k) for k in range(25)]).reshape(5, 5)
_STOCHASTIC_TOL = 1e-9  # largest row-sum gap dtmc_stationary accepts


class ReducibleChainError(ValueError):
    """The chain has no unique stationary vector; names the offending states."""

    def __init__(self, message, states=()):
        super().__init__(message)
        self.states = tuple(states)


def kron_sum_solve(generators, V):
    """X with -(T_1 (+) ... (+) T_m) X = V, for upper-triangular T_k.

    ``V`` and ``X`` are tensors with one axis per generator, and an
    optional trailing axis that stacks right-hand sides.  Each
    off-diagonal entry of the Kronecker sum couples an unknown to one of a
    higher C-order index, so the unknowns are back-substituted one at a
    time in reverse index order, all right-hand sides at once.  The sum is
    never formed: memory and work stay proportional to the number of
    unknowns.
    """
    shape = tuple(T.shape[0] for T in generators)
    size = int(np.prod(shape))
    strides = [int(np.prod(shape[k + 1 :])) for k in range(len(shape))]
    diag = np.zeros(shape)
    couplings = []
    for k, T in enumerate(generators):
        axis = (slice(None),) + (None,) * (len(shape) - k - 1)
        diag = diag - np.diag(T)[axis]
        for d in range(1, shape[k]):
            upper = np.append(np.diag(T, d), np.zeros(d))
            if upper.any():
                coeff = np.broadcast_to(upper[axis], shape).reshape(size, 1)
                couplings.append((d * strides[k], coeff))
    diag = diag.ravel()[:, None]
    rhs = np.reshape(V, (size, -1))
    # trailing zeros absorb the couplings that run past an axis end (their
    # coefficient is 0)
    X = np.zeros((size + max((step for step, _ in couplings), default=0), rhs.shape[1]))
    for i in range(size - 1, -1, -1):
        acc = rhs[i]
        for step, coeff in couplings:
            acc = acc + coeff[i] * X[i + step]
        X[i] = acc / diag[i]
    return X[:size].reshape(np.shape(V))


def _contract(rows, x):
    """(row_1 (x) ... (x) row_m) . x over the leading axes of ``x``, per trailing index."""
    for r in rows:
        x = r @ x.reshape(r.size, -1)
    return x.reshape(-1)


def _taylor_step(M):
    """e^M for a 1-norm of at most 2: the Taylor polynomial of degree 24.

    Paterson-Stockmeyer: one product of the coefficient table with
    I, M, ..., M^4 gives the five block polynomials, and four Horner
    steps in M^5 join them, so eight n x n products in all.  The
    truncation term is 2^25/25! < 3e-18 at norm 2, and nothing is
    squared.
    """
    n = M.shape[0]
    powers = np.empty((5, n, n))
    powers[0] = np.eye(n)
    powers[1] = M
    for k in range(2, 5):
        np.matmul(powers[k - 1], M, out=powers[k])
    M5 = powers[4] @ M
    blocks = (_TAYLOR @ powers.reshape(5, n * n)).reshape(5, n, n)
    E = blocks[4]
    for j in (3, 2, 1, 0):
        E = M5 @ E
        E += blocks[j]
    return E


def _expm_triangular(M):
    """e^M of an upper-triangular M, exact to rounding at nearly equal diagonals.

    The Taylor step is taken on M/2^s, with 1-norm at most 2, and the
    result is squared s times.  Squaring a triangular exponential lets
    the rounding of its diagonal and superdiagonal grow with every
    product; at nearly equal rates the superdiagonal, m times the
    divided difference of e^x, would come from entries that cancel.
    So after each squaring the diagonal is reset to e^x and the
    superdiagonal to m e^{max(x, y)} (1 - e^{-|y - x|})/|y - x|, which
    has no cancellation (Al-Mohy & Higham 2009, SIAM J. Matrix Anal.
    Appl. 31:970, Code Fragment 2.1).
    """
    norm = np.abs(M).sum(axis=0).max()
    if norm <= 2.0:  # the Taylor step alone: nothing to square
        return _taylor_step(M)
    squarings = math.ceil(math.log2(norm / 2.0))
    scale = 0.5 ** np.arange(squarings, -1, -1.0)[:, None]
    x = scale * M.diagonal()
    lo, hi = x[:, :-1], x[:, 1:]
    # a zero gap reads as the smallest normal one: the quotient is then 1
    gap = np.maximum(np.abs(hi - lo), _TINY)
    upper = scale * M.diagonal(1) * np.exp(np.maximum(lo, hi)) * (-np.expm1(-gap) / gap)
    diagonal = np.exp(x)
    E = _taylor_step(M * scale[0, 0])
    n = M.shape[0]
    for k in range(squarings + 1):
        if k:
            E = E @ E
        flat = E.reshape(-1)
        flat[:: n + 1] = diagonal[k]
        flat[1 :: n + 1] = upper[k]
    return E


def _segment(d, length):
    """(e^{TL}, I - e^{TL}) of a phase-type law over a segment of length L.

    Both come from one block exponential: e^N with N = [[TL, I], [0, 0]]
    holds e^{TL} and Phi/L, Phi the integral of e^{Tu} over [0, L], and
    I - e^{TL} = -T Phi carries no cancellation when L is short.
    """
    _, T = d.phase_type
    n = T.shape[0]
    N = np.zeros((2 * n, 2 * n))
    N[:n, :n] = T * length
    N[:n, n:] = np.eye(n)
    E = _expm_triangular(N)
    return E[:n, :n], -N[:n, :n] @ E[:n, n:]


# depends on the laws, not the trigger offsets: a trigger sweep shares it
@functools.lru_cache(maxsize=256)
def _term_solution(laws):
    """x = (-K)^{-1} V of one product of ``laws``, V stacking one exit vector
    on each axis in turn (unit vectors on the rest), then unit vectors only."""
    generators = [d.phase_type[1] for d in laws]
    V = np.ones(tuple(T.shape[0] for T in generators) + (len(laws) + 1,))
    for k, T in enumerate(generators):
        V[..., k] *= -T.sum(axis=1).reshape((-1,) + (1,) * (len(laws) - k - 1))
    x = kron_sum_solve(generators, V)
    x.setflags(write=False)
    return x


# one model build meets each (law, trigger edges) pair in several rows
@functools.lru_cache(maxsize=32)
def _track(d, edges):
    """r(a) = alpha e^{Ta} at each edge a, and r(a) - r(b) over each finite
    segment [a, b) between the sorted ``edges``; read-only."""
    rows, drops = [d.phase_type[0]], []
    for a, b in zip(edges, edges[1:]):
        E, D = _segment(d, b - a)
        drops.append(rows[-1] @ D)
        rows.append(rows[-1] @ E)
    for r in rows + drops:
        r.setflags(write=False)
    return tuple(rows), tuple(drops)


def phase_integral(laws, steps=()) -> np.ndarray:
    """Exact integrals over [0, inf) of m(t) against the race of ``laws``.

    Returns, for each phase-type law k, the integral of m(t) f_k(t)
    prod_{j != k} S_j(t), then that of m(t) prod_j S_j(t); m(t) is the
    product of the factors of the ``steps`` ``(offset, factor)`` with
    offset <= t, so the offsets cut [0, inf) into segments.

    Each integrand is (alpha_1 (x) ... (x) alpha_m) e^{Kt} v, with K the
    Kronecker sum of the T_k and v unit vectors, but for an exit vector
    on axis k in the density of law k.  With x = (-K)^{-1} v, all m + 1
    solved at once, the integral over [a, b) is R(a) - R(b), with
    R(t) = (r_1(t) (x) ... (x) r_m(t)) . x, r_k(t) = alpha_k e^{T_k t},
    and R(inf) = 0.  The difference is telescoped one factor
    r_k(a) (I - e^{T_k (b - a)}) at a time, so short segments keep their
    relative precision.  Without laws, m alone is integrated.
    """
    edges = tuple(sorted({0.0, *(off for off, _ in steps if off > 0.0)}))
    weights = [math.prod(f for off, f in steps if off <= a) for a in edges]
    if not laws:
        if weights[-1] != 0.0:
            raise ArithmeticError("survival product does not decay: infinite integral")
        return np.array([sum(w * (b - a) for w, a, b in zip(weights, edges, edges[1:]))])

    x = _term_solution(laws)
    rows, drops = zip(*(_track(d, edges) for d in laws))
    acc = np.zeros(len(laws) + 1)
    for i, w in enumerate(weights):
        if w == 0.0:
            continue
        start = [r[i] for r in rows]
        if i + 1 == len(edges):
            acc += w * _contract(start, x)
            continue
        end = [r[i + 1] for r in rows]
        for k in range(len(laws)):
            acc += w * _contract([*end[:k], drops[k][i], *start[k + 1 :]], x)
    return acc


# one completion evaluation meets each (law, s, window) several times
@functools.lru_cache(maxsize=32)
def phase_window(d, s: float, h: float) -> tuple[float, float]:
    """Windowed transform and moment of a phase-type law over [0, h].

    Returns (integral of e^{-su} dF(u), integral of u e^{-su} dF(u)), both
    over [0, h], from one block exponential (Van Loan 1978): with
    A = T - sI and t the exit vector, e^N with
    N = [[Ah, I, 0], [0, Ah, th], [0, 0, 0]] holds the integral of
    e^{Au} t in its (2, 3) block and that of u e^{Au} t, divided by h,
    in its (1, 3) block.
    """
    alpha, T = d.phase_type
    n = T.shape[0]
    Ah = (T - s * np.eye(n)) * h
    N = np.zeros((2 * n + 1, 2 * n + 1))
    N[:n, :n] = Ah
    N[:n, n : 2 * n] = np.eye(n)
    N[n : 2 * n, n : 2 * n] = Ah
    N[n : 2 * n, 2 * n] = -T.sum(axis=1) * h
    E = _expm_triangular(N)
    return float(alpha @ E[n : 2 * n, 2 * n]), h * float(alpha @ E[:n, 2 * n])


def reachability(P: np.ndarray) -> np.ndarray:
    """Boolean matrix whose [i, j] says that j can be reached from i (or j == i)."""
    n = P.shape[0]
    reach = (P > 0.0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):  # squaring doubles the path length covered
        reach = (reach.astype(float) @ reach) > 0.0
    return reach


def _closed_classes(reach: np.ndarray):
    """Recurrent classes of the reachability matrix ``reach``, by lowest state.

    A state is recurrent when every state it reaches reaches it back; its
    class is then the set of states it reaches, and the class's lowest
    state, which reaches no lower one, stands for it.
    """
    recurrent = ~(reach & ~reach.T).any(axis=1)
    lowest = reach.argmax(axis=1) == np.arange(len(reach))
    return [np.flatnonzero(reach[i]).tolist() for i in np.flatnonzero(recurrent & lowest)]


def dtmc_stationary(P: np.ndarray) -> np.ndarray:
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
    return _stationary(P, reachability(P))


def _stationary(P: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """:func:`dtmc_stationary` of a square ``P`` with reachability ``reach``."""
    n = P.shape[0]
    rows = P.sum(axis=1)
    bad = np.nonzero(np.abs(rows - 1.0) > _STOCHASTIC_TOL)[0]
    if bad.size:
        raise ValueError(f"matrix is not row-stochastic in rows {bad.tolist()} (sums {rows[bad]})")

    closed = _closed_classes(reach)
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

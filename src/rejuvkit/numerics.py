"""Shared numerical machinery: exact phase-type integrals, chain solves.

Every law in the model is phase-type (alpha, T) or a point mass, so the
integrals of competing-risks survival products, and the windowed
transforms of the completion analysis, have closed matrix forms; they
are evaluated here exactly, with no quadrature: one solve per product
of survivals gives all of its integrals at once.  The chain solves are
one state reduction, which never subtracts, of a stack of chains; its
steps act elementwise along the stack.

Everything but the Kronecker solve works on a batch of points at once:
a sweep's grid points differ in their trigger offsets and window
lengths, so their matrix exponentials are stacked into one
``(n, k, k)`` array, each keeping its own squaring count, and their row
vectors into ``(n, ...)`` arrays.  Every per-point product is the same
BLAS call, on the same shapes, that a single point makes, so a point's
value does not depend on the batch it is solved in.

The memos of exact work all live here, as bounded LRU caches keyed by
value, and the arrays they hold are read-only: ``_term_solution`` and
``_whole`` (256 entries each; they depend on the laws only, so a trigger
sweep shares them), ``_segments`` (32: the segment edges and weights of
one row's steps at each point of a batch, shared by the products of the
row), ``_track`` (32: a law's row vectors at those edges, shared by the
products of a row and by a repeated build) and ``phase_window`` (32: a
law's windows at one transform argument, for each window length of a
batch; a repeated completion evaluation meets them again).
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
    """(row_1 (x) ... (x) row_m) . x over the leading axes of ``x``, per
    trailing index, for each point: ``rows`` hold one (n, 1, k) stack per
    law, and ``x`` is shared by the n points."""
    x = rows[0] @ x.reshape(rows[0].shape[-1], -1)
    for r in rows[1:]:
        x = r @ x.reshape(len(x), r.shape[-1], -1)
    return x.reshape(len(x), -1)


def _taylor_step(M):
    """e^M of each matrix in the stack ``M``, of 1-norm at most 2: the
    Taylor polynomial of degree 24.

    Paterson-Stockmeyer: one product of the coefficient table with
    I, M, ..., M^4 gives the five block polynomials, and four Horner
    steps in M^5 join them, so eight n x n products per matrix.  The
    truncation term is 2^25/25! < 3e-18 at norm 2, and nothing is
    squared.
    """
    b, n = M.shape[0], M.shape[-1]
    powers = np.empty((b, 5, n, n))
    powers[:, 0] = np.eye(n)
    powers[:, 1] = M
    for k in range(2, 5):
        powers[:, k] = powers[:, k - 1] @ M
    M5 = powers[:, 4] @ M
    blocks = (_TAYLOR @ powers.reshape(b, 5, n * n)).reshape(b, 5, n, n)
    E = blocks[:, 4]
    for j in (3, 2, 1, 0):
        E = M5 @ E
        E += blocks[:, j]
    return E


def _expm_triangular(M):
    """e^M of each upper-triangular matrix in the stack ``M``, exact to
    rounding at nearly equal diagonals.

    The Taylor step is taken on M/2^s, with 1-norm at most 2, and the
    result is squared s times; s is each matrix's own.  Squaring a
    triangular exponential lets the rounding of its diagonal and
    superdiagonal grow with every product; at nearly equal rates the
    superdiagonal, m times the divided difference of e^x, would come from
    entries that cancel.  So after each squaring the diagonal is reset to
    e^x and the superdiagonal to m e^{max(x, y)} (1 - e^{-|y - x|})/|y - x|,
    which has no cancellation (Al-Mohy & Higham 2009, SIAM J. Matrix Anal.
    Appl. 31:970, Code Fragment 2.1).  A matrix of norm at most 2 takes
    the Taylor step alone, with no reset.

    The squarings are aligned at their end: the stack is ordered by
    count, most first, so at each pass the matrices still squaring, all
    at the same power of 2, are a leading slice, which those whose count
    is reached join.
    """
    norm = np.abs(M).sum(axis=-2).max(axis=-1)
    counts = [math.ceil(math.log2(v / 2.0)) if v > 2.0 else -1 for v in norm.tolist()]
    if any(a < b for a, b in zip(counts, counts[1:])):
        order = sorted(range(len(counts)), key=counts.__getitem__, reverse=True)
        return _squared(M[order], sorted(counts, reverse=True))[np.argsort(order)]
    return _squared(M, counts)


def _squared(M, counts):
    """:func:`_expm_triangular` of a stack ordered by squaring ``counts``
    (-1 for none), most first."""
    if counts[0] == counts[-1]:  # one count: a scalar scale, none at all below 1
        E = _taylor_step(M if counts[0] <= 0 else M * 0.5 ** counts[0])
    else:
        E = _taylor_step(M * np.array([0.5 ** max(c, 0) for c in counts])[:, None, None])
    if counts[0] < 0:
        return E
    scale = 0.5 ** np.arange(counts[0], -1, -1.0)[:, None, None]
    x = scale * M.diagonal(0, -2, -1)
    lo, hi = x[..., :-1], x[..., 1:]
    # a zero gap reads as the smallest normal one: the quotient is then 1
    gap = np.maximum(np.abs(hi - lo), _TINY)
    upper = scale * M.diagonal(1, -2, -1) * np.exp(np.maximum(lo, hi)) * (-np.expm1(-gap) / gap)
    diagonal = np.exp(x)
    n = M.shape[-1]
    on = 0
    for t in range(counts[0] + 1):
        squared = on  # the matrices that joined at an earlier pass
        while on < len(counts) and counts[on] >= counts[0] - t:
            on += 1
        if squared == len(E):
            E = E @ E
        elif squared:
            E[:squared] = E[:squared] @ E[:squared]
        flat = E.reshape(len(E), -1)[:on]
        flat[:, :: n + 1] = diagonal[t, :on]
        flat[:, 1 :: n + 1] = upper[t, :on]
    return E


def _segment(d, lengths):
    """(e^{TL}, I - e^{TL}) of a phase-type law over segments of each length L
    in ``lengths``, stacked.

    Both come from one block exponential: e^N with N = [[TL, I], [0, 0]]
    holds e^{TL} and Phi/L, Phi the integral of e^{Tu} over [0, L], and
    I - e^{TL} = -T Phi carries no cancellation when L is short.
    """
    _, T = d.phase_type
    n = T.shape[0]
    N = np.zeros((len(lengths), 2 * n, 2 * n))
    N[:, :n, :n] = T * lengths[:, None, None]
    N[:, :n, n:] = np.eye(n)
    E = _expm_triangular(N)
    return E[:, :n, :n], -N[:, :n, :n] @ E[:, :n, n:]


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


# half the rows of a kernel have no step: their integrals depend on the laws only
@functools.lru_cache(maxsize=256)
def _whole(laws):
    """R(0) = (alpha_1 (x) ... (x) alpha_m) . x of one product of ``laws``: its
    integrals over [0, inf) with no step, as a read-only (1, m + 1) row."""
    r = _contract([d.phase_type[0].reshape(1, 1, -1) for d in laws], _term_solution(laws))
    r.setflags(write=False)
    return r


# the products of a row, and a repeated build, meet each (law, edges) pair again
@functools.lru_cache(maxsize=32)
def _track(d, edges):
    """r(a) = alpha e^{Ta} at each edge a, and r(a) - r(b) over each segment
    [a, b), of each point's sorted ``edges`` (one tuple per point, all of
    one length): one (n, 1, k) stack per edge and per segment, but the
    first edge, 0 at every point, holds alpha once, (1, 1, k); read-only."""
    alpha = d.phase_type[0]
    m = len(edges[0])
    rows, drops = [alpha.reshape(1, 1, -1)], []
    if m > 1:
        E, D = _segment(d, np.array([b - a for cut in edges for a, b in zip(cut, cut[1:])]))
        for i in range(m - 1):  # point-major: segment i of each point
            drops.append(rows[-1] @ D[i :: m - 1])
            rows.append(rows[-1] @ E[i :: m - 1])
    for r in rows + drops:
        r.setflags(write=False)
    return tuple(rows), tuple(drops)


# the products of a row share their points' steps
@functools.lru_cache(maxsize=32)
def _segments(steps):
    """(edges, weights) of each point's ``steps``: 0 and the sorted offsets,
    as a tuple per point, and for each segment from an edge on, the product
    of the factors in force there: a number where it is the same at every
    point (None where that is 0), else an (n, 1) array."""
    edges = tuple(tuple(sorted((0.0, *(off for off, _ in point)))) for point in steps)
    weights = [
        [math.prod(f for off, f in point if off <= a) for a in cut]
        for point, cut in zip(steps, edges)
    ]
    columns = []
    for w in zip(*weights):
        if w.count(w[0]) < len(w):
            columns.append(np.array(w, dtype=float)[:, None])
            columns[-1].setflags(write=False)
        else:
            columns.append(float(w[0]) or None)
    return edges, tuple(columns)


def phase_integral(laws, steps) -> np.ndarray:
    """Exact integrals over [0, inf) of m(t) against the race of ``laws``, at
    each of n points.

    Returns (n, len(laws) + 1): for each phase-type law k, the integral of
    m(t) f_k(t) prod_{j != k} S_j(t), then that of m(t) prod_j S_j(t).  At
    a point, m(t) is the product of the factors of its ``steps``
    ``(offset, factor)`` with offset <= t, so the offsets cut [0, inf) into
    segments; ``steps`` is a tuple that holds one tuple of steps per point,
    each of the same length.  A zero or repeated offset is a segment of
    length 0, which adds exactly 0.

    Each integrand is (alpha_1 (x) ... (x) alpha_m) e^{Kt} v, with K the
    Kronecker sum of the T_k and v unit vectors, but for an exit vector
    on axis k in the density of law k.  With x = (-K)^{-1} v, all m + 1
    solved at once, the integral over [a, b) is R(a) - R(b), with
    R(t) = (r_1(t) (x) ... (x) r_m(t)) . x, r_k(t) = alpha_k e^{T_k t},
    and R(inf) = 0.  The difference is telescoped one factor
    r_k(a) (I - e^{T_k (b - a)}) at a time, so short segments keep their
    relative precision.  Without laws, m alone is integrated.
    """
    edges, weights = _segments(steps)
    if not laws:
        if weights[-1] is not None:
            raise ArithmeticError("survival product does not decay: infinite integral")
        cut = np.array(edges)
        acc = np.zeros((len(cut), 1))
        for i, w in enumerate(weights[:-1]):
            if w is not None:
                acc = acc + w * (cut[:, i + 1, None] - cut[:, i, None])
        return acc

    acc = np.zeros((len(edges), len(laws) + 1))
    if len(weights) == 1:  # no step at any point: R(0), the same at each
        acc += weights[0] * _whole(laws)
        return acc
    x = _term_solution(laws)
    rows, drops = zip(*(_track(d, edges) for d in laws))
    for i, w in enumerate(weights):
        if w is None:
            continue
        start = [r[i] for r in rows]
        if i + 1 == len(weights):
            acc += w * _contract(start, x)
            continue
        end = [r[i + 1] for r in rows]
        for k in range(len(laws)):
            acc += w * _contract([*end[:k], drops[k][i], *start[k + 1 :]], x)
    return acc


# one completion evaluation meets each (law, s, windows) several times
@functools.lru_cache(maxsize=32)
def phase_window(d, s: float, lengths: tuple) -> tuple:
    """Windowed transform and moment of a phase-type law over [0, h], for
    each window length h in ``lengths``.

    Returns one pair (integral of e^{-su} dF(u), integral of
    u e^{-su} dF(u)), both over [0, h], per length, from one block
    exponential each, stacked (Van Loan 1978): with A = T - sI and t the
    exit vector, e^N with N = [[Ah, I, 0], [0, Ah, th], [0, 0, 0]] holds
    the integral of e^{Au} t in its (2, 3) block and that of u e^{Au} t,
    divided by h, in its (1, 3) block.
    """
    alpha, T = d.phase_type
    n = T.shape[0]
    h = np.array(lengths)
    Ah = (T - s * np.eye(n)) * h[:, None, None]
    N = np.zeros((len(h), 2 * n + 1, 2 * n + 1))
    N[:, :n, :n] = Ah
    N[:, :n, n : 2 * n] = np.eye(n)
    N[:, n : 2 * n, n : 2 * n] = Ah
    N[:, n : 2 * n, 2 * n] = -T.sum(axis=1) * h[:, None]
    E = _expm_triangular(N)
    lst = (alpha @ E[:, n : 2 * n, 2 * n :])[:, 0]
    moment = h * (alpha @ E[:, :n, 2 * n :])[:, 0]
    return tuple(zip(lst.tolist(), moment.tolist()))


def reachability(P: np.ndarray) -> np.ndarray:
    """Boolean matrix whose [i, j] says that j can be reached from i (or j == i);
    a stack of matrices gives a stack."""
    n = P.shape[-1]
    reach = (P > 0.0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):  # squaring doubles the path length covered
        reach = (reach.astype(float) @ reach) > 0.0
    return reach


def _reduce(A: np.ndarray) -> np.ndarray:
    """Stationary vectors, (n, b), of the chains stacked on the last axis of
    ``A``, (n, n, b), by state reduction, which overwrites ``A``.

    States are eliminated from the last one down, and each pivot is a
    state's outflow to the states that remain, so nothing is subtracted
    and each entry is accurate to a few ulp of itself (Grassmann, Taksar
    & Heyman 1985; O'Cinneide 1993).  A pivot is positive when every
    state reaches state 0; a vector with a zero pivot is not finite.
    """
    n = A.shape[0]
    v = np.zeros(A.shape[1:])
    v[0] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n - 1, 0, -1):
            col, row = A[:k, k, None], A[k, :k]
            col /= np.add.reduce(row)
            A[:k, :k] += col * row
        for k in range(n - 1):  # v[k] is complete: pass it on
            v[k + 1 :] += v[k] * A[k, k + 1 :]
        return v / np.add.reduce(v)


def _stationary(P: np.ndarray, starts=slice(1)) -> np.ndarray:
    """:func:`_reduce` of the stack ``P`` on the closed class that the slice
    ``starts`` of states (state 0 by default) reaches.

    Only a chain with a zero pivot, where some state never reaches state
    0, has its reachability taken; its closed class is then reduced alone.
    Raises :class:`ReducibleChainError` when ``starts`` reach more than one.
    """
    v = _reduce(P.copy())
    n = len(P)
    for j in np.flatnonzero(~np.isfinite(v).all(axis=0)):
        reach = reachability(P[..., j])
        # a recurrent state reaches only states that reach it back; its
        # class is what it reaches, and the lowest state stands for it
        recurrent = ~(reach & ~reach.T).any(axis=-1)
        heads = recurrent & (reach.argmax(axis=-1) == np.arange(n)) & reach[starts].any(axis=0)
        closed = [np.flatnonzero(reach[i]) for i in np.flatnonzero(heads)]
        if len(closed) > 1:
            outside = sorted(set(range(n)) - set(closed[0].tolist()))
            raise ReducibleChainError(
                f"chain has {len(closed)} recurrent classes; no unique stationary vector "
                f"(states outside the first class: {outside})",
                states=outside,
            )
        v[:, j] = 0.0
        v[closed[0], j] = _reduce(P[closed[0][:, None], closed[0], j, None])[:, 0]
    return v


def dtmc_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary vector of a row-stochastic matrix: v = vP, sum(v) = 1.

    Raises :class:`ReducibleChainError` when the chain has more than one
    recurrent class, naming the states outside the first.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    if P.shape != (n, n):
        raise ValueError(f"square matrix required, got {P.shape}")
    rows = P.sum(axis=-1)
    bad = np.flatnonzero(np.abs(rows - 1.0) > _STOCHASTIC_TOL)
    if bad.size:
        raise ValueError(f"matrix is not row-stochastic in rows {bad.tolist()} (sums {rows[bad]})")
    return _stationary(P[..., None], slice(None))[:, 0]


class AbsorptionUnreachable(ArithmeticError):
    """Absorption is not certain: some path never reaches it."""


def absorbing_visits(M: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Expected visit counts V = alpha (I - M)^-1 for a sub-stochastic M.

    In the restart chain absorption leads to a new state 0, which alpha
    leaves, and by renewal-reward its stationary vector w gives
    V = w[1:] / w[0].
    """
    M = np.asarray(M, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    n = M.shape[-1]
    if M.shape != (n, n) or alpha.shape != (n,):
        raise ValueError(f"shape mismatch: M {M.shape}, alpha {alpha.shape}")
    A = np.zeros((n + 1, n + 1, 1))
    A[0, 1:, 0] = alpha
    A[1:, 0, 0] = 1.0 - M.sum(axis=-1)
    A[1:, 1:, 0] = M
    try:
        w = _stationary(A)[:, 0]
        if w[0] > 0.0:
            return w[1:] / w[0]
    except ReducibleChainError:  # state 0 reaches two closed classes, neither with it
        pass
    raise AbsorptionUnreachable("absorption is not certain: some path never reaches it")

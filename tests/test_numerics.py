import decimal
import math
from decimal import Decimal

import numpy as np
import pytest

from rejuvkit import Deterministic, Erlang, Exponential, Hypoexponential
from rejuvkit.numerics import (
    ReducibleChainError,
    _segment,
    _track,
    absorbing_visits,
    dtmc_stationary,
    kron_sum_solve,
    phase_integral,
    phase_window,
)
from tests.quadrature import QuadratureError, integrate, integrate_piecewise, stieltjes


# --- integrate -------------------------------------------------------------


def test_integrate_constant():
    assert integrate(lambda t: 1.0, 0.0, 5.0) == pytest.approx(5.0, abs=1e-12)


def test_integrate_exponential_decay():
    value = integrate(math.exp, -50.0, 0.0, 1e-10)  # same as exp(-t) on [0, 50]
    assert value == pytest.approx(1.0 - math.exp(-50.0), abs=1e-10)
    value = integrate(lambda t: math.exp(-t), 0.0, 50.0, 1e-10)
    assert value == pytest.approx(1.0 - math.exp(-50.0), abs=1e-10)


def test_integrate_gamma_two():
    value = integrate(lambda t: t * math.exp(-t), 0.0, 60.0, 1e-10)
    closed = 1.0 - 61.0 * math.exp(-60.0)
    assert value == pytest.approx(closed, abs=1e-10)


def test_integrate_rejects_bad_interval():
    with pytest.raises(ValueError):
        integrate(lambda t: t, 5.0, 1.0)
    with pytest.raises(ValueError):
        integrate(lambda t: t, 0.0, math.inf)
    with pytest.raises(ValueError):
        integrate(lambda t: t, 0.0, 1.0, tol=0.0)


def test_integrate_nonconvergence_carries_partial():
    # an unreachable tolerance exhausts the depth budget quickly
    with pytest.raises(QuadratureError) as err:
        integrate(lambda t: math.exp(-t), 0.0, 50.0, tol=1e-280)
    assert math.isfinite(err.value.partial)


def test_integrate_piecewise_splits_at_knots():
    step = lambda t: 1.0 if t < 2.0 else 0.25
    value = integrate_piecewise(step, 0.0, 4.0, knots={2.0}, tol=1e-10)
    assert value == pytest.approx(2.0 + 0.5, abs=1e-9)


# --- stieltjes -------------------------------------------------------------


@pytest.mark.parametrize(
    "d", [Exponential(0.0010432), Erlang(2.0, 3), Deterministic(7.0)], ids=["exp", "erlang", "det"]
)
def test_stieltjes_total_probability(d):
    assert stieltjes(lambda t: 1.0, d) == pytest.approx(1.0, abs=1e-9)


def test_stieltjes_two_exponential_race(rng):
    # P(T_d fires before an independent exp(omega) clock) = kappa/(kappa+omega)
    kappa, omega = 120.5, 0.0010432
    d = Exponential(kappa)
    other = Exponential(omega)
    value = stieltjes(lambda t: other.survival(t), d)
    closed = kappa / (kappa + omega)
    assert value == pytest.approx(closed, abs=1e-10)
    wins = d.sample(rng, size=1_000_000) < other.sample(rng, size=1_000_000)
    assert value == pytest.approx(wins.mean(), abs=5e-4)


def test_stieltjes_mean_identity():
    d = Erlang(0.25, 3)
    assert stieltjes(lambda t: t, d) == pytest.approx(3 / 0.25, rel=1e-9)


def test_stieltjes_point_mass_is_exact():
    calls = []

    def g(t):
        calls.append(t)
        return math.sin(t) ** 2 + 3.0

    d = Deterministic(4.2)
    assert stieltjes(g, d) == g(4.2)
    assert calls == [4.2, 4.2]


def test_stieltjes_point_mass_window_semantics():
    d = Deterministic(5.0)
    g = lambda t: 1.0
    assert stieltjes(g, d, lower=0.0, upper=10.0) == 1.0
    assert stieltjes(g, d, lower=0.0, upper=4.0) == 0.0
    assert stieltjes(g, d, lower=5.0, upper=10.0) == 0.0  # jump at the open lower edge
    assert stieltjes(g, d, lower=0.0, upper=5.0) == 1.0  # closed upper edge
    assert stieltjes(Deterministic(0.0).cdf, Deterministic(0.0), lower=0.0, upper=3.0) == 1.0


def test_stieltjes_window_continuous():
    d = Exponential(0.5)
    value = stieltjes(lambda t: 1.0, d, lower=0.0, upper=2.0)
    assert value == pytest.approx(d.cdf(2.0), abs=1e-10)


# --- dtmc_stationary -------------------------------------------------------


def test_stationary_identity():
    assert dtmc_stationary(np.array([[1.0]])) == pytest.approx([1.0])


def test_stationary_two_cycle():
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert dtmc_stationary(P) == pytest.approx([0.5, 0.5], abs=1e-14)


def _random_stochastic(rng, n):
    P = rng.uniform(0.01, 1.0, size=(n, n))
    return P / P.sum(axis=1, keepdims=True)


def test_stationary_matches_power_iteration(rng):
    P = _random_stochastic(rng, 12)
    v = dtmc_stationary(P)
    assert np.abs(v - v @ P).max() <= 1e-10
    w = np.full(12, 1.0 / 12.0)
    for _ in range(20000):
        nxt = w @ P
        if np.abs(nxt - w).max() < 1e-15:
            w = nxt
            break
        w = nxt
    assert np.abs(v - w).max() <= 1e-12


def test_stationary_permutation_invariance(rng):
    P = _random_stochastic(rng, 9)
    v = dtmc_stationary(P)
    perm = rng.permutation(9)
    Q = P[np.ix_(perm, perm)]
    w = dtmc_stationary(Q)
    assert np.abs(w - v[perm]).max() <= 1e-12


def test_stationary_rejects_non_stochastic():
    with pytest.raises(ValueError, match="row-stochastic"):
        dtmc_stationary(np.array([[0.5, 0.4], [0.5, 0.5]]))


def test_stationary_reducible_names_states():
    # two closed classes: {0,1} and {2,3}
    P = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.6, 0.4, 0.0, 0.0],
            [0.0, 0.0, 0.1, 0.9],
            [0.0, 0.0, 0.7, 0.3],
        ]
    )
    with pytest.raises(ReducibleChainError) as err:
        dtmc_stationary(P)
    assert err.value.states in ((2, 3), (0, 1))


def test_stationary_unichain_with_transients_is_fine():
    # state 2 is transient; unique stationary vector has mass on {0,1} only
    P = np.array([[0.2, 0.8, 0.0], [0.9, 0.1, 0.0], [0.3, 0.3, 0.4]])
    v = dtmc_stationary(P)
    assert v[2] == 0.0
    assert np.abs(v - v @ P).max() <= 1e-12


# --- absorbing_visits ------------------------------------------------------


def test_visits_immediate_absorption():
    M = np.zeros((3, 3))
    alpha = np.array([1.0, 0.0, 0.0])
    assert absorbing_visits(M, alpha) == pytest.approx([1.0, 0.0, 0.0])


def test_visits_geometric():
    assert absorbing_visits(np.array([[0.5]]), np.array([1.0])) == pytest.approx([2.0])


def test_visits_random_substochastic(rng):
    for _ in range(100):
        n = int(rng.integers(2, 9))
        M = rng.uniform(0.0, 1.0, size=(n, n))
        M /= M.sum(axis=1, keepdims=True) / rng.uniform(0.3, 0.95, size=(n, 1))
        alpha = np.zeros(n)
        alpha[0] = 1.0
        V = absorbing_visits(M, alpha)
        assert np.abs(V - alpha - V @ M).max() <= 1e-9
        assert np.all(V >= 0.0)


def test_visits_singular_when_no_absorption():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])  # row sums 1: no leak to absorption
    with pytest.raises(ArithmeticError, match="absorption"):
        absorbing_visits(M, np.array([1.0, 0.0]))


# --- exact phase-type engine -----------------------------------------------


def _sub_generator(rng, n):
    T = np.triu(rng.uniform(0.0, 2.0, size=(n, n)), 1)
    return T - np.diag(T.sum(axis=1) + rng.uniform(0.1, 3.0, size=n))


def test_kron_sum_solve_matches_dense(rng):
    for shape in [(1,), (3,), (2, 1), (1, 3), (3, 2), (2, 3, 2), (4, 1, 3, 2)]:
        Ts = [_sub_generator(rng, n) for n in shape]
        K = Ts[0]
        for T in Ts[1:]:
            K = np.kron(K, np.eye(T.shape[0])) + np.kron(np.eye(K.shape[0]), T)
        # one right-hand side, then three stacked on a trailing axis
        for V in (rng.uniform(0.0, 1.0, size=shape), rng.uniform(0.0, 1.0, size=shape + (3,))):
            dense = np.linalg.solve(-K, V.reshape(K.shape[0], -1))
            X = kron_sum_solve(Ts, V)
            assert X.shape == V.shape
            assert np.abs(X.reshape(dense.shape) - dense).max() <= 1e-12 * np.abs(dense).max()


def test_phase_integral_two_exponential_race():
    # each law's chance to fire first, then the mean time to the first firing
    kappa, omega = 120.5, 0.0010432
    values = phase_integral((Exponential(kappa), Exponential(omega)))
    closed = [kappa / (kappa + omega), omega / (kappa + omega), 1.0 / (kappa + omega)]
    assert np.abs(values - closed).max() <= 1e-15


def test_phase_integral_steps_cut_segments():
    # survival e^{-lt} weighted 1 before tau and w after: a truncated mean
    # plus a weighted tail
    lam, tau, w = 0.3, 2.5, 0.25
    value = phase_integral((Exponential(lam),), [(tau, w)])[-1]
    closed = (1.0 - math.exp(-lam * tau)) / lam + w * math.exp(-lam * tau) / lam
    assert value == pytest.approx(closed, rel=1e-14)
    # a thinned survival splits into its constant and survival parts
    steps = [(tau, 0.0)]
    constant, survival = phase_integral((), steps), phase_integral((Exponential(lam),), steps)
    value = 0.4 * constant[-1] + 0.6 * survival[-1]
    closed = 0.4 * tau + 0.6 * (1.0 - math.exp(-lam * tau)) / lam
    assert value == pytest.approx(closed, rel=1e-14)


def test_phase_integral_point_masses_only():
    assert phase_integral((), [(2.0, 0.5), (5.0, 0.0)]).tolist() == [2.0 + 0.5 * 3.0]
    with pytest.raises(ArithmeticError, match="infinite"):
        phase_integral((), [(2.0, 0.5)])


def test_phase_window_closed_forms():
    lam, h = 0.8, 1.7
    for s in (0.0, 0.3, -0.2):
        lst, moment = phase_window(Exponential(lam), s, h)
        r = lam + s
        assert lst == pytest.approx(lam / r * -math.expm1(-r * h), rel=1e-13)
        closed = lam * (1.0 - math.exp(-r * h) * (1.0 + r * h)) / r**2
        assert moment == pytest.approx(closed, rel=1e-13)
    d = Erlang(2.0, 3)
    lst, moment = phase_window(d, 0.0, 4.0)
    assert lst == pytest.approx(d.cdf(4.0), abs=1e-15)
    assert phase_window(d, 0.0, 0.0) == (0.0, 0.0)


def test_tracks_are_memoised_and_read_only():
    lam, edges = 0.3, (0.0, 1.5, 4.0)
    rows, drops = _track(Exponential(lam), edges)
    assert _track(Exponential(lam), edges) == (rows, drops)
    assert _track(Exponential(lam), edges)[0][1] is rows[1]
    for r in rows + drops:
        assert not r.flags.writeable
    with pytest.raises(ValueError):
        rows[1][0] = 1.0
    assert [float(r[0]) for r in rows] == pytest.approx([math.exp(-lam * a) for a in edges])
    assert float(drops[1][0]) == pytest.approx(math.exp(-lam * 1.5) - math.exp(-lam * 4.0))


# --- nearly equal rates: references at 60 digits ---------------------------

A_RATE = 0.0013674
NEAR_EQUAL = [
    Hypoexponential(A_RATE, A_RATE * (1.0 + g)) for g in (1e-15, 1e-12, 1e-9, 1e-6, 3.0)
] + [Hypoexponential(A_RATE * (1.0 + 1e-12), A_RATE)]


def _poisson(x, j):
    return (-x).exp() * x**j / math.factorial(j)


def _segment_reference(d, length):
    """e^{TL} entries by closed form: the Poisson weights for an Erlang law,
    and for two phases (e^{-aL} - e^{-bL}) a/(b - a) off the diagonal."""
    L = Decimal(length)
    if isinstance(d, Erlang):
        x = Decimal(d.rate) * L
        n = d.shape
        return [[_poisson(x, j - i) if j >= i else 0 for j in range(n)] for i in range(n)]
    a, b = Decimal(d.rate1), Decimal(d.rate2)
    ea, eb = (-a * L).exp(), (-b * L).exp()
    return [[ea, a * (ea - eb) / (b - a)], [0, eb]]


def _window_reference(d, s, h):
    """(transform, moment) over [0, h] by closed form."""
    s, h = Decimal(s), Decimal(h)
    if isinstance(d, Erlang):
        r, k = Decimal(d.rate), d.shape
        c = r + s
        tail = lambda m: 1 - sum(_poisson(c * h, j) for j in range(m))
        return (r / c) ** k * tail(k), k / r * (r / c) ** (k + 1) * tail(k + 1)
    a, b = Decimal(d.rate1), Decimal(d.rate2)
    g0 = lambda c: (1 - (-c * h).exp()) / c
    g1 = lambda c: (1 - (-c * h).exp() * (1 + c * h)) / c**2
    w = a * b / (b - a)
    return w * (g0(a + s) - g0(b + s)), w * (g1(a + s) - g1(b + s))


@pytest.mark.parametrize("d", NEAR_EQUAL + [Erlang(0.004, 5), Erlang(0.004, 20)])
@pytest.mark.parametrize("length", [1e-3, 30.0, 1000.0, 9996.9])
def test_segment_exact_at_nearly_equal_rates(d, length):
    # scipy's expm squares triangular input with a superdiagonal quotient
    # that cancels as the rates meet: 8e-6 off at a relative gap of 1e-12
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ref = np.array([[float(v) for v in row] for row in _segment_reference(d, length)])
    E, D = _segment(d, length)
    assert np.abs(E - ref).max() <= 1e-15
    assert np.abs(D - (np.eye(len(ref)) - ref)).max() <= 1e-15


@pytest.mark.parametrize("d", NEAR_EQUAL + [Erlang(0.004, 5), Erlang(0.004, 20)])
@pytest.mark.parametrize("s, h", [(0.0, 300.0), (0.0, 1e4), (0.01, 1e4), (1e-3, 2000.0)])
def test_phase_window_exact_at_nearly_equal_rates(d, s, h):
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        lst_ref, moment_ref = (float(v) for v in _window_reference(d, s, h))
    lst, moment = phase_window(d, s, h)
    assert abs(lst - lst_ref) <= 1e-15
    assert abs(moment - moment_ref) <= 1e-15 * max(1.0, abs(moment_ref))

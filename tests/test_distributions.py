import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from scipy import stats

from rejuvkit import Deterministic, Erlang, Exponential, Hypoexponential
from rejuvkit.distributions import from_json, to_json
from tests.quadrature import integrate, integrate_piecewise, truncation_point

FAMILIES = [
    Exponential(0.0010432),
    Exponential(12.0),
    Erlang(0.0013717, 2),
    Erlang(24.0, 2),
    Erlang(720.0, 6),
    Hypoexponential(0.0013674, 0.0043860),
    Hypoexponential(2.0, 5.0),
    Deterministic(30.0),
    Deterministic(0.0),
]


def random_dist(rng):
    kind = rng.integers(0, 4)
    rate = 10.0 ** rng.uniform(-3.2, 1.2)
    if kind == 0:
        return Exponential(rate)
    if kind == 1:
        return Erlang(rate, int(rng.integers(1, 5)))
    if kind == 2:
        return Hypoexponential(rate, rate * 10.0 ** rng.uniform(-1.0, 1.0))
    return Deterministic(rng.uniform(0.0, 100.0))


# --- cdf -------------------------------------------------------------------


def test_cdf_exponential_closed_form():
    d = Exponential(0.0010432)
    t = 958.58
    expected = 1.0 - math.exp(-0.0010432 * t)
    assert d.cdf(t) == pytest.approx(expected, abs=1e-15)
    assert d.cdf(t) == pytest.approx(0.63212, abs=5e-5)


@pytest.mark.parametrize("d", FAMILIES)
def test_cdf_zero_below_support(d):
    assert d.cdf(-1.0) == 0.0


def test_cdf_unit_step():
    d = Deterministic(30.0)
    assert d.cdf(30.0) == 1.0
    assert d.cdf(29.999999) == 0.0
    assert d.survival(30.0) == 0.0


# --- density ---------------------------------------------------------------


def test_density_at_origin():
    lam = 3.7
    assert Exponential(lam).density(0.0) == lam
    assert Erlang(lam, 2).density(0.0) == 0.0


def test_hypoexponential_density_closed_form_and_numeric():
    a, b = 0.8, 2.1
    d = Hypoexponential(a, b)
    for t in (0.1, 0.5, 1.3, 4.0):
        closed = a * b / (b - a) * (math.exp(-a * t) - math.exp(-b * t))
        assert d.density(t) == pytest.approx(closed, rel=1e-12)
        eps = 1e-6
        numeric = (d.cdf(t + eps) - d.cdf(t - eps)) / (2 * eps)
        assert d.density(t) == pytest.approx(numeric, rel=1e-5)


def _hypo_reference(a, b, t):
    """Survival and density of Hypoexponential(a, b) at t, to 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a, b, t = Decimal(a), Decimal(b), Decimal(t)
        ea, eb = (-a * t).exp(), (-b * t).exp()
        return float((b * ea - a * eb) / (b - a)), float(a * b * (ea - eb) / (b - a))


@pytest.mark.parametrize("a", [1.0, 0.0013674, 120.5])
@pytest.mark.parametrize("gap", [2e-9, 1e-12, 1e-6])
def test_hypoexponential_near_equal_rates(a, gap):
    # the two-phase closed form cancels catastrophically as the rates meet
    for d in (Hypoexponential(a, a * (1.0 + gap)), Hypoexponential(a * (1.0 + gap), a)):
        for t in (1e-3 / a, 0.3 / a, 1.0 / a, 7.0 / a):
            survival, density = _hypo_reference(d.rate1, d.rate2, t)
            assert abs(d.survival(t) - survival) <= 1e-15
            assert d.density(t) == pytest.approx(density, rel=1e-14)


def test_erlang_large_shape():
    # x**(k-1) / (k-1)! overflows a float long before the density does, and
    # the survival's partial sums overflow long before the survival does
    d = Erlang(1.0, 200)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        exact = Decimal(500) ** 199 / math.factorial(199) * Decimal(-500).exp()
        # at x = 800, e^{-x} underflows while the partial sum is still small
        term, tail = Decimal(1), Decimal(1)
        for n in range(1, 200):
            term = term * 800 / n
            tail += term
        tail *= Decimal(-800).exp()
    assert d.density(500.0) == pytest.approx(float(exact), rel=1e-12)
    assert d.survival(800.0) == pytest.approx(float(tail), rel=1e-12)
    assert d.density(200.0) > d.density(500.0) > 0.0
    assert d.survival(2637.0) == 0.0
    assert Erlang(200.0, 200).survival(0.1) <= 1.0
    # regularised upper incomplete gamma Q(1000, 1000), from mpmath at 50 digits
    assert Erlang(1.0, 1000).survival(1000.0) == pytest.approx(0.4957947558197845, rel=1e-12)


def test_hypoexponential_equal_rates_degenerates_to_erlang():
    d = Hypoexponential(2.0, 2.0)
    e = Erlang(2.0, 2)
    for t in (0.0, 0.3, 1.0, 5.0):
        assert d.cdf(t) == pytest.approx(e.cdf(t), abs=1e-14)
        assert d.density(t) == pytest.approx(e.density(t), abs=1e-14)


# --- mean ------------------------------------------------------------------


def test_means_match_closed_forms():
    assert Erlang(0.0013717, 2).mean() == pytest.approx(2 / 0.0013717, rel=1e-15)
    assert Erlang(0.0013717, 2).mean() == pytest.approx(1458.0, abs=0.1)
    hypo = Hypoexponential(0.0013674, 0.0043860)
    assert hypo.mean() == pytest.approx(1 / 0.0013674 + 1 / 0.0043860, rel=1e-15)
    assert hypo.mean() == pytest.approx(959.3, abs=0.05)
    assert Deterministic(17.25).mean() == 17.25


# --- LST -------------------------------------------------------------------


@pytest.mark.parametrize("d", FAMILIES)
def test_lst_at_zero_is_one(d):
    assert d.lst(0.0) == pytest.approx(1.0, abs=1e-15)


def test_lst_closed_forms():
    assert Exponential(12.0).lst(12.0) == pytest.approx(0.5, abs=1e-15)
    assert Deterministic(30.0 / 3600.0).lst(120.0) == pytest.approx(math.exp(-1.0), rel=1e-14)


@pytest.mark.parametrize("d", FAMILIES)
def test_lst_derivative_gives_mean_at_zero(d):
    assert -d.lst_derivative(0.0) == pytest.approx(d.mean(), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "d, s",
    [
        (Exponential(0.8), 0.5),
        (Exponential(0.0010432), 0.01),
        (Erlang(2.0, 3), 1.0),
        (Hypoexponential(0.7, 1.9), 0.4),
        (Deterministic(3.0), 0.6),
    ],
)
def test_lst_derivative_matches_finite_difference(d, s):
    # central finite difference, step 1e-6 in relative terms
    h = 1e-6 * max(s, 1.0)
    numeric = (d.lst(s + h) - d.lst(s - h)) / (2 * h)
    assert d.lst_derivative(s) == pytest.approx(numeric, rel=1e-6)


# --- phase-type form -------------------------------------------------------


@pytest.mark.parametrize("d", [d for d in FAMILIES if not isinstance(d, Deterministic)])
def test_phase_type_reproduces_the_law(d):
    from scipy.linalg import expm

    alpha, T = d.phase_type
    assert np.allclose(T, np.triu(T)) and alpha.sum() == 1.0
    assert np.all(np.diag(T) < 0.0) and np.all(T.sum(axis=1) <= 0.0)
    for t in (0.1 * d.mean(), d.mean(), 4.0 * d.mean()):
        row = alpha @ expm(T * t)
        assert row.sum() == pytest.approx(d.survival(t), rel=1e-12)
        assert row @ -T.sum(axis=1) == pytest.approx(d.density(t), rel=1e-12)


@pytest.mark.parametrize("d", [Exponential(0.8), Erlang(2.0, 3), Hypoexponential(0.7, 1.9)])
def test_phase_type_is_built_once_and_read_only(d):
    alpha, T = d.phase_type
    again = d.phase_type
    assert again[0] is alpha and again[1] is T
    assert not alpha.flags.writeable and not T.flags.writeable


# --- sampling --------------------------------------------------------------


def test_deterministic_sampling(rng):
    d = Deterministic(5.0)
    assert d.sample(rng) == 5.0
    assert np.all(d.sample(rng, size=100) == 5.0)


def test_exponential_sample_mean(rng):
    d = Exponential(0.0006857)
    draws = d.sample(rng, size=1_000_000)
    assert abs(draws.mean() - d.mean()) / d.mean() < 0.01


def test_erlang_sample_variance(rng):
    d = Erlang(24.0, 2)
    draws = d.sample(rng, size=1_000_000)
    expected_var = 2 / 24.0**2
    assert abs(draws.var() - expected_var) / expected_var < 0.03


@pytest.mark.parametrize(
    "d",
    [Exponential(0.5), Erlang(1.5, 3), Hypoexponential(0.9, 2.7)],
    ids=["exp", "erlang", "hypoexp"],
)
def test_kolmogorov_smirnov(d, rng):
    samples = d.sample(rng, size=100_000)
    statistic = stats.kstest(samples, np.vectorize(d.cdf)).statistic
    critical_1pct = 1.6276 / math.sqrt(len(samples))
    assert statistic < critical_1pct


# --- truncation ------------------------------------------------------------


def test_truncation_closed_form_exponential():
    lam = 0.37
    eps = math.exp(-20.0)
    assert truncation_point(Exponential(lam), eps) == pytest.approx(20.0 / lam, rel=1e-12)


def test_truncation_deterministic():
    assert truncation_point(Deterministic(42.0), 0.5) == 42.0
    assert truncation_point(Deterministic(42.0), 1e-15) == 42.0


def test_truncation_bisection_hypoexponential():
    d = Hypoexponential(0.9, 4.0)
    t = truncation_point(d, 1e-12)
    assert d.survival(t) <= 1e-12
    assert d.survival(t * 0.98) > 1e-12


def test_truncation_rejects_bad_eps():
    with pytest.raises(ValueError):
        truncation_point(Exponential(1.0), 0.0)
    with pytest.raises(ValueError):
        truncation_point(Exponential(1.0), 1.5)


# --- invariants battery ----------------------------------------------------


def test_cdf_monotone_and_density_consistent(rng):
    for _ in range(1000):
        d = random_dist(rng)
        hi = truncation_point(d, 1e-12)
        grid = np.linspace(0.0, max(hi, 1e-9), 1000)
        values = np.array([d.cdf(t) for t in grid])
        assert np.all(np.diff(values) >= -1e-15)
        assert values[0] >= 0.0 and values[-1] <= 1.0
        if isinstance(d, Deterministic):
            continue
        t = rng.uniform(0.1 * hi, 0.9 * hi)
        mass = integrate(d.density, 0.0, t, 1e-11)
        assert abs(d.cdf(t) - mass) <= 1e-8


def test_survival_integrates_to_mean(rng):
    for _ in range(60):
        d = random_dist(rng)
        if isinstance(d, Deterministic):
            continue
        hi = truncation_point(d, 1e-14)
        total = integrate(d.survival, 0.0, hi, 1e-9 * d.mean())
        assert total == pytest.approx(d.mean(), rel=1e-6)


def test_lst_matches_numerical_stieltjes(rng):
    for _ in range(25):
        d = random_dist(rng)
        if isinstance(d, Deterministic):
            continue
        for s in (0.0, 0.1, 1.0, 10.0):
            # window capped by the exp(-s t) tail so the quadrature sees
            # the integrand's true scale; discarded tails are < 1e-12
            hi = truncation_point(d, 1e-14)
            if s > 0.0:
                hi = min(hi, 30.0 / s)
            knots = {hi / 1000.0, hi / 10.0, d.mean()}
            numeric = integrate_piecewise(
                lambda t: math.exp(-s * t) * d.density(t), 0.0, hi, knots, 1e-10
            )
            assert abs(numeric - d.lst(s)) <= 1e-8


# --- JSON ------------------------------------------------------------------


def test_json_round_trip():
    for d in FAMILIES:
        assert from_json(to_json(d)) == d


def test_json_units():
    d = from_json({"kind": "exp", "rate": 2.0, "unit": "min"})
    assert d.rate == pytest.approx(120.0)  # 2 per minute = 120 per hour
    d = from_json({"kind": "det", "offset": 30.0, "unit": "s"})
    assert d.offset == pytest.approx(30.0 / 3600.0)
    d = from_json({"kind": "erlang", "rate": 24.0, "shape": 2, "unit": "d"})
    assert d.rate == pytest.approx(1.0)
    assert d.mean() == pytest.approx(2.0)


def test_json_rejects_unknowns():
    with pytest.raises(ValueError, match="kind"):
        from_json({"kind": "weibull", "rate": 1.0})
    with pytest.raises(ValueError, match="unit"):
        from_json({"kind": "exp", "rate": 1.0, "unit": "fortnight"})
    with pytest.raises(ValueError, match="unknown fields"):
        from_json({"kind": "exp", "rate": 1.0, "scale": 2.0})
    with pytest.raises(ValueError, match="requires"):
        from_json({"kind": "erlang", "rate": 1.0})


def test_construction_validates_parameters():
    with pytest.raises(ValueError, match="shape"):
        Erlang(1.0, 0)
    with pytest.raises(ValueError, match="offset"):
        Deterministic(-0.5)
    Deterministic(0.0)  # a zero offset is a legal point mass


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize(
    "family, field, valid",
    [
        (Exponential, "rate", {"rate": 1.0}),
        (Erlang, "rate", {"rate": 1.0, "shape": 2}),
        (Hypoexponential, "rate1", {"rate1": 1.0, "rate2": 2.0}),
        (Hypoexponential, "rate2", {"rate1": 1.0, "rate2": 2.0}),
    ],
)
def test_construction_rejects_bad_rates_by_field(family, field, valid, value):
    with pytest.raises(ValueError, match=rf"^{family.__name__.lower()} {field} must be"):
        family(**{**valid, field: value})

"""Lifetime distributions used by the aging/rejuvenation model.

Four families cover every timed event in the model: exponential, Erlang,
two-phase hypoexponential and a deterministic point mass (unit step CDF).
All rates are per hour and all durations are hours; the config layer is
responsible for unit normalisation.

Instances are immutable and safe to share between concurrent analyses.
Samplers draw from an externally owned ``numpy.random.Generator``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "Distribution",
    "Exponential",
    "Erlang",
    "Hypoexponential",
    "Deterministic",
    "from_json",
    "to_json",
]

# Duration units accepted in JSON fragments, as units per hour.
_UNITS_PER_HOUR = {"s": 3600.0, "min": 60.0, "h": 1.0, "d": 1.0 / 24.0}


@functools.cache
def _rate_names(family) -> tuple:
    """The float fields of a phase-type family: each is a phase rate."""
    return tuple(f.name for f in fields(family) if f.type in ("float", float))


class Distribution:
    """Common interface: cdf/survival/density/mean/lst/sample/phase_type.

    Each family is a frozen dataclass whose fields are its parameters,
    with a class-level ``kind`` naming it in JSON fragments.  A phase-type
    family declares only its ``phases``, the rates of the exponential
    phases it runs through in series, and every float field is one of
    those rates; construction checks that each is positive and finite,
    and the mean, the transform, its pole, the time scaling and the
    (alpha, T) representation follow from them here.  Each family keeps
    its own closed-form ``survival``, ``density`` and ``sample``; the
    ``cdf`` is one minus the survival.
    """

    kind: str

    def __post_init__(self):
        for name in _rate_names(type(self)):
            rate = getattr(self, name)
            if not (rate > 0.0 and math.isfinite(rate)):
                family = type(self).__name__.lower()
                raise ValueError(f"{family} {name} must be positive and finite, got {rate}")

    @property
    def phases(self) -> tuple:
        """Rates of the exponential phases run through in series."""
        raise NotImplementedError

    def cdf(self, t: float) -> float:
        return 1.0 - self.survival(t)

    def survival(self, t: float) -> float:
        raise NotImplementedError

    def density(self, t: float):
        raise NotImplementedError

    def mean(self) -> float:
        return math.fsum(1.0 / r for r in self.phases)

    @property
    def lst_pole(self) -> float:
        """lst(s) has its nearest pole at s = -lst_pole (inf: lst is entire)."""
        return min(self.phases)

    def lst(self, s: float) -> float:
        """Laplace-Stieltjes transform E[exp(-s T)]."""
        if s <= -self.lst_pole:
            raise ValueError(f"LST diverges for s <= {-self.lst_pole} (got {s})")
        return math.prod(r / (r + s) for r in self.phases)

    def lst_derivative(self, s: float) -> float:
        """d/ds E[exp(-s T)]; equals -mean at s = 0."""
        return -self.lst(s) * math.fsum(1.0 / (r + s) for r in self.phases)

    def scaled(self, k: float) -> Distribution:
        """The law in a time unit k times longer: rates x k, durations / k."""
        return replace(self, **{name: getattr(self, name) * k for name in _rate_names(type(self))})

    def with_mean(self, mean: float) -> Distribution:
        """Same family stretched in time to the given mean."""
        return self.scaled(self.mean() / mean)

    def sample(self, rng, size=None):
        raise NotImplementedError

    @property
    def phase_type(self):
        """(alpha, T) with T upper bidiagonal: survival alpha e^{Tt} 1 and
        density alpha e^{Tt} (-T 1).  Built once per law, read-only.
        Point masses have no such form."""
        if not hasattr(self, "_phase_type"):
            r = np.array(self.phases, dtype=float)
            alpha = np.zeros(r.size)
            alpha[0] = 1.0
            T = np.diag(-r) + np.diag(r[:-1], 1)
            alpha.setflags(write=False)
            T.setflags(write=False)
            # set as an attribute, not in __dict__ as cached_property does:
            # a materialised instance dict makes every later attribute load
            # about 3x slower, and sample() reads the rates on each draw
            object.__setattr__(self, "_phase_type", (alpha, T))
        return self._phase_type


@dataclass(frozen=True)
class Exponential(Distribution):
    kind = "exp"
    rate: float  # per hour

    @property
    def phases(self):
        return (self.rate,)

    def cdf(self, t):
        if t <= 0.0:
            return 0.0
        return -math.expm1(-self.rate * t)

    def survival(self, t):
        if t <= 0.0:
            return 1.0
        return math.exp(-self.rate * t)

    def density(self, t):
        if t < 0.0:
            return 0.0
        return self.rate * math.exp(-self.rate * t)

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size=size)


@dataclass(frozen=True)
class Erlang(Distribution):
    kind = "erlang"
    rate: float  # per hour, each phase
    shape: int

    def __post_init__(self):
        if not (isinstance(self.shape, int) and self.shape >= 1):
            raise ValueError(f"erlang shape must be a positive integer, got {self.shape}")
        super().__post_init__()

    @property
    def phases(self):
        return (self.rate,) * self.shape

    def survival(self, t):
        if t <= 0.0:
            return 1.0
        # sum_{n<k} (rate t)^n/n! * exp(-rate t); for large shapes the
        # partial sums are divided down before they overflow, with the
        # logarithm of the divisor kept in `shift`; past x = 700, e^{-x}
        # nears underflow, so the exit is taken in log space
        x = self.rate * t
        term = 1.0
        acc = 1.0
        shift = 0.0
        for n in range(1, self.shape):
            term *= x / n
            acc += term
            if acc > 1e250:
                shift += math.log(acc)
                term /= acc
                acc = 1.0
        if shift or x > 700.0:
            return min(1.0, math.exp(math.log(acc) + shift - x))
        return min(1.0, acc * math.exp(-x))

    def density(self, t):
        if t < 0.0:
            return 0.0
        x = self.rate * t
        k = self.shape
        if t == 0.0:
            return self.rate if k == 1 else 0.0
        # in log space: x**(k-1) and (k-1)! overflow for large shapes
        return self.rate * math.exp((k - 1) * math.log(x) - x - math.lgamma(k))

    def sample(self, rng, size=None):
        # sum of `shape` exponential phases
        if size is None:
            return rng.exponential(1.0 / self.rate, size=self.shape).sum()
        draws = rng.exponential(1.0 / self.rate, size=(size, self.shape))
        return draws.sum(axis=1)


@dataclass(frozen=True)
class Hypoexponential(Distribution):
    """Two sequential exponential phases; the rates may be equal.

    With a <= b the rates in ascending order and
    g = expm1(-(b - a) t) / (b - a) (g = -t when a == b), the survival is
    e^{-at} (1 - a g) and the density -a b e^{-at} g.  These forms have no
    cancellation, so nearly equal rates lose no precision and equal rates
    give the Erlang-2 law.
    """

    kind = "hypoexp"
    rate1: float
    rate2: float

    @property
    def phases(self):
        return (self.rate1, self.rate2)

    def _decay(self, t):
        """(a, b, e^{-at}, g) for t > 0."""
        a, b = sorted((self.rate1, self.rate2))
        g = math.expm1(-(b - a) * t) / (b - a) if b > a else -t
        return a, b, math.exp(-a * t), g

    def survival(self, t):
        if t <= 0.0:
            return 1.0
        a, _, ea, g = self._decay(t)
        return ea * (1.0 - a * g)

    def density(self, t):
        if t <= 0.0:
            return 0.0
        a, b, ea, g = self._decay(t)
        return -a * b * ea * g

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate1, size) + rng.exponential(1.0 / self.rate2, size)


@dataclass(frozen=True)
class Deterministic(Distribution):
    """Point mass at ``offset``: CDF is the unit step u(t - offset), no density."""

    kind = "det"
    lst_pole = math.inf
    offset: float  # hours

    def __post_init__(self):
        if not (self.offset >= 0.0 and math.isfinite(self.offset)):
            raise ValueError(f"deterministic offset must be >= 0, got {self.offset}")

    def survival(self, t):
        return 0.0 if t >= self.offset else 1.0

    def mean(self):
        return self.offset

    def lst(self, s):
        return math.exp(-self.offset * s)

    def lst_derivative(self, s):
        return -self.offset * math.exp(-self.offset * s)

    def sample(self, rng, size=None):
        if size is None:
            return self.offset
        return np.full(size, self.offset)

    def scaled(self, k):
        return Deterministic(self.offset / k)

    def with_mean(self, mean):
        # exact, and defined for a zero offset, which has no time scale
        return Deterministic(mean)


_KINDS = {cls.kind: cls for cls in (Exponential, Erlang, Hypoexponential, Deterministic)}


def from_json(fragment: dict) -> Distribution:
    """Build a distribution from its JSON fragment.

    Fragment shape: ``{"kind": "exp"|"erlang"|"hypoexp"|"det", ...params,
    "unit": "s"|"min"|"h"|"d"}``.  Rates are per ``unit`` and offsets are
    in ``unit``; both are normalised to hours here.  Every parameter must
    be a number (not a boolean, null or string), and an integer parameter
    such as the Erlang shape an integral one (2.0 is read as 2); anything
    else raises ``ValueError`` naming the field.
    """
    if not isinstance(fragment, dict):
        raise ValueError(f"distribution fragment must be an object, got {fragment!r}")
    frag = dict(fragment)
    kind = frag.pop("kind", None)
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown distribution kind {kind!r} (expected one of {sorted(_KINDS)})")
    unit = frag.pop("unit", "h")
    if not isinstance(unit, str) or unit not in _UNITS_PER_HOUR:
        raise ValueError(f"unknown unit {unit!r} (expected one of {sorted(_UNITS_PER_HOUR)})")
    params = {}
    for f in fields(_KINDS[kind]):
        if f.name not in frag:
            raise ValueError(f"distribution kind {kind!r} requires field {f.name!r}")
        value = frag.pop(f.name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"field {f.name!r} must be a number, got {value!r}")
        integral = f.type in ("int", int)
        if integral and not float(value).is_integer():
            raise ValueError(f"field {f.name!r} must be an integer, got {value!r}")
        params[f.name] = int(value) if integral else float(value)
    if frag:
        raise ValueError(f"unknown fields {sorted(frag)} in distribution fragment")
    # parameters given per unit: normalising to hours is a change of time unit
    return _KINDS[kind](**params).scaled(_UNITS_PER_HOUR[unit])


def to_json(dist: Distribution) -> dict:
    """Inverse of :func:`from_json`, always emitting hours."""
    if _KINDS.get(getattr(dist, "kind", None)) is not type(dist):
        raise TypeError(f"not a known distribution: {dist!r}")
    return {"kind": dist.kind, **{f.name: getattr(dist, f.name) for f in fields(dist)}, "unit": "h"}

"""Reference-price distributions on a compact interval.

Everything downstream (equilibrium solving, Monte Carlo validation) consumes
the small surface defined here: CDF, PDF, mean, upper partial expectation
``∫_t^hi x f(x) dx``, and seeded sampling.  Uniform and Beta laws use closed
forms; any other law can be wrapped as a :class:`QuadratureDistribution`,
which falls back to adaptive Simpson integration of a user-supplied density.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import special

from ._bisect import find_crossing
from .errors import ConvergenceError, InvalidParamsError

__all__ = [
    "SupportInterval",
    "Distribution",
    "Uniform",
    "Beta",
    "QuadratureDistribution",
    "DistributionSpec",
    "adaptive_simpson",
    "regularized_incomplete_beta",
]


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

_MAX_EVALS = 1_000_000  # integrand evaluations allowed in one adaptive_simpson call


def check_tol(tol: float) -> None:
    """Raise :class:`InvalidParamsError` unless the tolerance ``tol`` is positive and finite."""
    if tol <= 0.0 or not math.isfinite(tol):
        raise InvalidParamsError(f"tol must be positive, got {tol}")


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float = 1e-12) -> float:
    """Integrate ``f`` over ``[a, b]`` by adaptive Simpson subdivision.

    Subintervals are split until the local Richardson error estimate drops
    below its share of ``tol``; the estimate is then folded back in, so the
    returned value is the extrapolated (higher-order) one.  Suited to smooth
    integrands on compact intervals.  A NaN integrand value gives a NaN result.
    Subintervals narrower than 2**-60 of ``[a, b]`` are not split further;
    a bounded ``f`` adds less than rounding there.

    Raises:
        InvalidParamsError: ``tol`` is not positive and finite.
        ConvergenceError: ``tol`` is not met within 10**6 evaluations of ``f``.
    """
    check_tol(tol)
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, tol)
    # the floor keeps the recursion within 60 levels (a jump at 0 would take it
    # 1,074 deep); the evaluation budget bounds the total work
    floor = (b - a) * 2.0**-60
    evals = 3

    def recurse(x0, x2, x4, f0, f2, f4, whole, share):
        nonlocal evals
        if evals >= _MAX_EVALS:
            raise ConvergenceError(f"adaptive Simpson did not reach tol {tol} in {evals} evaluations")
        x1 = 0.5 * (x0 + x2)
        x3 = 0.5 * (x2 + x4)
        f1 = f(x1)
        f3 = f(x3)
        evals += 2
        left = (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)
        right = (x4 - x2) / 6.0 * (f2 + 4.0 * f3 + f4)
        err = (left + right - whole) / 15.0
        # NaN also stops: a NaN sample stays an end of every subinterval holding it
        if not abs(err) > share or x4 - x0 <= floor:
            return left + right + err
        return recurse(x0, x1, x2, f0, f1, f2, left, 0.5 * share) + recurse(
            x2, x3, x4, f2, f3, f4, right, 0.5 * share
        )

    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, mid, b, fa, fm, fb, whole, tol)


# ---------------------------------------------------------------------------
# Regularized incomplete beta function
# ---------------------------------------------------------------------------

def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), the CDF of ``Beta(a, b)`` at ``x``.

    Raises :class:`InvalidParamsError` for shapes ``Beta`` rejects and for
    ``x`` outside [0, 1], where scipy would return NaN.
    """
    law = Beta(a, b)
    if not 0.0 <= x <= 1.0:
        raise InvalidParamsError(f"x must lie in [0, 1], got {x}")
    return law.cdf(x)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportInterval:
    """Closed, bounded interval carrying the mass of a reference-price law."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidParamsError(f"support must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise InvalidParamsError(f"support requires lo < hi, got [{self.lo}, {self.hi}]")


class Distribution(ABC):
    """A price law with compact support.

    Evaluation methods are pure and thread-safe.  ``sample`` mutates only the
    generator passed by the caller; use one generator per thread.
    """

    @property
    @abstractmethod
    def support(self) -> SupportInterval:
        ...

    @abstractmethod
    def cdf(self, x: float) -> float:
        """P(S <= x); clamps to 0 below the support and 1 above it."""

    @abstractmethod
    def pdf(self, x: float) -> float:
        """Density at x (0 outside the support)."""

    @abstractmethod
    def mean(self) -> float:
        ...

    @abstractmethod
    def partial_expectation(self, t: float) -> float:
        """Upper partial expectation ``∫_max(t, lo)^hi x f(x) dx``.

        Equals ``mean()`` at or below the support's lower end and 0 at or
        above its upper end; nonincreasing in ``t``.
        """

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw from the law; a float when ``size`` is None, else an ndarray."""


class Uniform(Distribution):
    """Uniform law on [lo, hi]."""

    def __init__(self, lo: float, hi: float):
        self._support = SupportInterval(float(lo), float(hi))

    def __repr__(self):
        return f"Uniform({self._support.lo}, {self._support.hi})"

    @property
    def support(self) -> SupportInterval:
        return self._support

    def cdf(self, x: float) -> float:
        lo, hi = self._support.lo, self._support.hi
        if x <= lo:
            return 0.0
        if x >= hi:
            return 1.0
        return (x - lo) / (hi - lo)

    def pdf(self, x: float) -> float:
        lo, hi = self._support.lo, self._support.hi
        if lo <= x <= hi:
            return 1.0 / (hi - lo)
        return 0.0

    def mean(self) -> float:
        return 0.5 * (self._support.lo + self._support.hi)

    def partial_expectation(self, t: float) -> float:
        lo, hi = self._support.lo, self._support.hi
        t = min(max(t, lo), hi)
        return (hi * hi - t * t) / (2.0 * (hi - lo))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        lo, hi = self._support.lo, self._support.hi
        return lo + (hi - lo) * rng.random(size)


class Beta(Distribution):
    """Beta(a, b) law on [0, 1].

    The CDF is the regularized incomplete beta function
    (``scipy.special.betainc``), above 1/2 by the reflection
    ``I_x(a, b) = 1 - I_{1-x}(b, a)``; the upper partial expectation uses
    ``a/(a+b) * (1 - I_t(a+1, b))``.  Sampling is numpy's ``Generator.beta``.
    """

    def __init__(self, a: float, b: float):
        if not (a > 0.0 and b > 0.0) or not (math.isfinite(a) and math.isfinite(b)):
            raise InvalidParamsError(f"Beta requires a > 0 and b > 0, got a={a}, b={b}")
        self.a = float(a)
        self.b = float(b)
        self._ln_beta = float(special.betaln(self.a, self.b))
        self._support = SupportInterval(0.0, 1.0)

    def __repr__(self):
        return f"Beta({self.a}, {self.b})"

    @property
    def support(self) -> SupportInterval:
        return self._support

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        if x > 0.5:
            # 1 - x is exact here; betainc(0.5, 0.5, 1 - 2**-53) itself is 2.8e-9 low
            return 1.0 - float(special.betainc(self.b, self.a, 1.0 - x))
        return float(special.betainc(self.a, self.b, x))

    def pdf(self, x: float) -> float:
        if x < 0.0 or x > 1.0:
            return 0.0
        if x == 0.0:
            if self.a < 1.0:
                return math.inf
            return math.exp(-self._ln_beta) if self.a == 1.0 else 0.0
        if x == 1.0:
            if self.b < 1.0:
                return math.inf
            return math.exp(-self._ln_beta) if self.b == 1.0 else 0.0
        return math.exp(
            (self.a - 1.0) * math.log(x) + (self.b - 1.0) * math.log1p(-x) - self._ln_beta
        )

    def mean(self) -> float:
        return self.a / (self.a + self.b)

    def partial_expectation(self, t: float) -> float:
        if t <= 0.0:
            return self.mean()
        if t >= 1.0:
            return 0.0
        return self.mean() * (1.0 - float(special.betainc(self.a + 1.0, self.b, t)))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.beta(self.a, self.b, size)


class QuadratureDistribution(Distribution):
    """Wraps an arbitrary density on a compact interval.

    The density need not be normalized: the normalization constant is
    computed once by quadrature.  CDF and partial expectation are evaluated
    by adaptive Simpson integration (absolute tolerance ``tol``), sampling by
    bisection of the CDF to adjacent floats.  Intended for experimentation,
    not for large simulation runs; all evaluations cost a quadrature.
    """

    def __init__(
        self,
        pdf: Callable[[float], float],
        support: SupportInterval,
        tol: float = 1e-12,
    ):
        self._raw_pdf = pdf
        self._support = support
        self._tol = tol
        self._norm = adaptive_simpson(pdf, support.lo, support.hi, tol)
        if not math.isfinite(self._norm) or self._norm <= 0.0:
            raise InvalidParamsError(f"density integrates to {self._norm}, expected a positive value")
        self._mean: float | None = None

    @property
    def support(self) -> SupportInterval:
        return self._support

    def cdf(self, x: float) -> float:
        lo, hi = self._support.lo, self._support.hi
        if x <= lo:
            return 0.0
        if x >= hi:
            return 1.0
        mass = adaptive_simpson(self._raw_pdf, lo, x, self._tol) / self._norm
        return min(max(mass, 0.0), 1.0)

    def pdf(self, x: float) -> float:
        lo, hi = self._support.lo, self._support.hi
        if lo <= x <= hi:
            return self._raw_pdf(x) / self._norm
        return 0.0

    def mean(self) -> float:
        if self._mean is None:
            self._mean = self.partial_expectation(self._support.lo)
        return self._mean

    def partial_expectation(self, t: float) -> float:
        lo, hi = self._support.lo, self._support.hi
        t = min(max(t, lo), hi)
        return adaptive_simpson(lambda x: x * self._raw_pdf(x), t, hi, self._tol) / self._norm

    def _invert_cdf(self, u: float) -> float:
        return find_crossing(lambda x: u - self.cdf(x), self._support.lo, self._support.hi)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            return self._invert_cdf(rng.random())
        return np.array([self._invert_cdf(u) for u in rng.random(size)])


# ---------------------------------------------------------------------------
# Spec strings:  uniform:<lo>,<hi>  |  beta:<a>,<b>
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionSpec:
    """Parsed form of a distribution string like ``uniform:0,1`` or ``beta:2,5``."""

    kind: str
    params: tuple[float, ...]

    @classmethod
    def parse(cls, text: str) -> "DistributionSpec":
        if any(ch.isspace() for ch in text):
            raise InvalidParamsError(f"distribution spec must not contain whitespace: {text!r}")
        kind, sep, rest = text.partition(":")
        if not sep or kind not in ("uniform", "beta"):
            raise InvalidParamsError(
                f"unknown distribution spec {text!r} (expected uniform:<lo>,<hi> or beta:<a>,<b>)"
            )
        parts = rest.split(",")
        if len(parts) != 2:
            raise InvalidParamsError(f"distribution spec {text!r} needs exactly two parameters")
        try:
            params = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise InvalidParamsError(f"bad numeric literal in distribution spec {text!r}") from exc
        if not all(math.isfinite(p) for p in params):
            raise InvalidParamsError(f"distribution parameters must be finite: {text!r}")
        spec = cls(kind, params)
        spec.build()  # validates parameter ranges eagerly
        return spec

    def build(self) -> Distribution:
        if self.kind == "uniform":
            lo, hi = self.params
            return Uniform(lo, hi)
        if self.kind == "beta":
            a, b = self.params
            return Beta(a, b)
        raise InvalidParamsError(f"unknown distribution kind {self.kind!r}")

    def __str__(self):
        return f"{self.kind}:" + ",".join(format(p, ".12g") for p in self.params)

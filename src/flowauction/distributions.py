"""Reference-price distributions on a compact interval.

Everything downstream (equilibrium solving, Monte Carlo validation) consumes
the small surface defined here: CDF, PDF, mean, upper partial expectation
``∫_t^hi x f(x) dx``, and seeded sampling.  Uniform and Beta laws use closed
forms, Beta's through ``scipy.special``, which is imported on first use; any
other law can be wrapped as a :class:`QuadratureDistribution`, which
integrates a user-supplied density once, on adaptively split Gauss–Legendre
panels.
"""

from __future__ import annotations

import heapq
import math
import sys
from abc import ABC, abstractmethod
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate, pairwise

import numpy as np

from ._bisect import find_crossings
from .errors import ConvergenceError, InvalidParamsError

__all__ = [
    "SupportInterval",
    "Distribution",
    "Uniform",
    "Beta",
    "QuadratureDistribution",
    "DistributionSpec",
    "regularized_incomplete_beta",
]


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def check_tol(tol: float) -> None:
    """Raise :class:`InvalidParamsError` unless the tolerance ``tol`` is positive and finite."""
    if tol <= 0.0 or not math.isfinite(tol):
        raise InvalidParamsError(f"tol must be positive, got {tol}")


@cache
def _special():
    """``scipy.special``, imported on first use: only ``Beta`` needs it."""
    from scipy import special

    return special


@cache
def _gauss_legendre() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """``1 + node`` and weight of the 16-point Gauss–Legendre rule on [-1, 1].

    Newton's method on the Legendre recurrence, from Tricomi's estimate of
    each root; ``numpy.polynomial.legendre.leggauss`` agrees to 3e-16, but its
    LAPACK call costs about 1 MB of resident memory.
    """
    n, offsets, weights = 16, [], []
    for i in range(n):
        x = -math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(10):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            slope = n * (x * p1 - p0) / (x * x - 1.0)
            x -= p1 / slope
        offsets.append(1.0 + x)
        weights.append(2.0 / ((1.0 - x * x) * slope * slope))
    return tuple(offsets), tuple(weights)


def _gauss(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, list[float]]:
    """The 16-point rule's ``∫ f`` and ``∫ x f`` over ``[a, b]``, and ``f`` at its nodes.
    A node that rounds onto an end, where a density may vanish or be infinite, moves to
    the nearest float inside; a span with none inside adds nothing where its ends make
    the rule inf or NaN.  Rounding is monotone: the lowest node reaches ``a`` first."""
    offsets, weights = _gauss_legendre()
    half = 0.5 * (b - a)
    xs = [a + half * offset for offset in offsets]
    inside = math.nextafter(a, b) < b
    if (xs[0] == a or xs[-1] == b) and inside:
        xs = [math.nextafter(a, b) if x == a else math.nextafter(b, a) if x == b else x for x in xs]
    mass = moment = 0.0
    fs = []
    for x, weight in zip(xs, weights):
        fs.append(f(x))
        y = weight * fs[-1]
        mass += y
        moment += x * y
    if inside or math.isfinite(half * mass) and math.isfinite(half * moment):
        return half * mass, half * moment, fs
    return 0.0, 0.0, []


_EPS = sys.float_info.epsilon
# the gap between the rules on a panel and on its halves is the error of the
# former; at an inverse-square-root endpoint singularity the latter's error is
# 1/(sqrt(2) - 1) times the gap
_HALVES = 1.0 / (math.sqrt(2.0) - 1.0)
_MIN_WIDTH = 2.0**-44  # of the support's width; narrower panels are not split
_MAX_PANELS = 4096


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

def _elementwise(x, fn: Callable[[np.ndarray], np.ndarray]):
    """``fn``, which maps a 1-d float64 array elementwise, applied to ``x`` of any
    shape; a float in gives a float out."""
    x = np.asarray(x, dtype=float)
    y = fn(x.reshape(-1))
    return float(y[0]) if x.ndim == 0 else y.reshape(x.shape)


def _each(fn: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """``fn`` applied to each element of a 1-d array, on Python floats."""
    return lambda x: np.array([fn(v) for v in x.tolist()], dtype=float)


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
        if not math.isfinite(self.hi - self.lo):
            raise InvalidParamsError(f"support width must be finite, got [{self.lo}, {self.hi}]")


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
    def cdf(self, x):
        """P(S <= x), elementwise over a float or an ndarray; clamps to 0 below
        the support and 1 above it.  A float in gives a float out."""

    @abstractmethod
    def pdf(self, x: float) -> float:
        """Density at x (0 outside the support)."""

    @abstractmethod
    def mean(self) -> float:
        ...

    @abstractmethod
    def partial_expectation(self, t):
        """Upper partial expectation ``∫_max(t, lo)^hi x f(x) dx``, elementwise
        like :meth:`cdf`.

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

    def cdf(self, x):
        lo, hi = self._support.lo, self._support.hi
        return _elementwise(
            x, lambda x: np.where(x <= lo, 0.0, np.where(x >= hi, 1.0, (x - lo) / (hi - lo))))

    def pdf(self, x: float) -> float:
        lo, hi = self._support.lo, self._support.hi
        if lo <= x <= hi:
            return 1.0 / (hi - lo)
        return 0.0

    def mean(self) -> float:
        return 0.5 * (self._support.lo + self._support.hi)

    def partial_expectation(self, t):
        lo, hi = self._support.lo, self._support.hi

        def pe(t):
            # P(S > t) times the mean of [t, hi]: no square to overflow, and no
            # difference of squares to cancel on a support far from zero
            t = np.minimum(np.maximum(t, lo), hi)
            return (hi - t) / (hi - lo) * (0.5 * hi + 0.5 * t)

        return _elementwise(t, pe)

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
        self._shapes = np.array([[self.a], [self.b]])
        self._support = SupportInterval(0.0, 1.0)

    def __repr__(self):
        return f"Beta({self.a}, {self.b})"

    @property
    def support(self) -> SupportInterval:
        return self._support

    def cdf(self, x):
        def cdf(x):
            # above 1/2 by reflection, I_x(a, b) = 1 - I_{1-x}(b, a), as 1 - x is
            # exact there; betainc(0.5, 0.5, 1 - 2**-53) itself is 2.8e-9 low.
            # The argument, clamped at 0, gives 0 below the support and 1 above
            upper = x > 0.5
            shapes = np.where(upper, self._shapes[::-1], self._shapes)
            i = _special().betainc(shapes[0], shapes[1], np.maximum(np.minimum(x, 1.0 - x), 0.0))
            return np.where(upper, 1.0 - i, i)

        return _elementwise(x, cdf)

    @cached_property
    def _ln_beta(self) -> float:
        # only the density needs the normaliser; building a law stays cheap
        return float(_special().betaln(self.a, self.b))

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

    def partial_expectation(self, t):
        # I_t(a + 1, b) is 0 at t = 0 and 1 at t = 1, so clamping t clamps the result
        return _elementwise(t, lambda t: self.mean() * (
            1.0 - _special().betainc(self.a + 1.0, self.b, np.minimum(np.maximum(t, 0.0), 1.0))))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.beta(self.a, self.b, size)


class QuadratureDistribution(Distribution):
    """Wraps an arbitrary density on a compact interval, which need not be normalized.

    The density is integrated once, as in QUADPACK's QAG: the panel with the
    largest error estimate is split until the summed estimate is at most
    ``tol`` times the mass.  With the cumulative mass and first moment kept at
    the panel edges, ``cdf`` and ``partial_expectation`` take one 16-point
    Gauss–Legendre rule.  No node is an end of a panel, so a density may be
    infinite at an end of the support.  Sampling inverts the CDF.

    Attributes ``panels`` and ``error_estimate`` (summed, over the mass)
    describe the result.  Raises :class:`InvalidParamsError` unless ``tol``
    and the mass are positive and finite, and :class:`ConvergenceError`, with
    the estimate, when every panel is at its rounding floor or narrower than
    2**-44 of the support, or 4,096 panels are spent, before ``tol`` is met.
    """

    def __init__(
        self,
        pdf: Callable[[float], float],
        support: SupportInterval,
        tol: float = 1e-12,
    ):
        check_tol(tol)
        self._raw_pdf = pdf
        self._support = support
        self._tol = tol
        lo, hi = support.lo, support.hi
        scale = max(abs(lo), abs(hi))

        def split(a, b, whole):
            # (heap key, estimate, mass, a, mid, b, rules on the halves) of [a, b];
            # the rounding floor counts the sums, and the nodes, each off by up
            # to eps |x|, times the density's variation over them
            mid = a + 0.5 * (b - a)
            halves = left, right = _gauss(pdf, a, mid), _gauss(pdf, mid, b)
            mass, moment = left[0] + right[0], left[1] + right[1]
            gap = max(abs(mass - whole[0]), abs(moment - whole[1]) / scale)
            variation = sum(abs(q - p) for p, q in pairwise(left[2] + right[2]))
            floor = _EPS * (50.0 * max(abs(mass), abs(moment) / scale) + max(abs(a), abs(b)) * variation)
            estimate = max(_HALVES * gap, floor)
            refine = gap > floor and b - a >= (hi - lo) * _MIN_WIDTH  # False on NaN
            return -estimate if refine else 0.0, estimate, mass, a, mid, b, halves  # key 0: final

        heap, total, mass = [], 0.0, 0.0
        new = [split(lo, hi, _gauss(pdf, lo, hi))]
        while True:
            for panel in new:
                heapq.heappush(heap, panel)
                total += panel[1]
                mass += panel[2]
            if not total > tol * abs(mass):  # so is a NaN mass, which is refused below
                break
            key, estimate, m, a, mid, b, (left, right) = heapq.heappop(heap)
            if key == 0.0 or len(heap) >= _MAX_PANELS // 2:
                raise ConvergenceError(f"quadrature error estimate {total / abs(mass):.3g} exceeds "
                                       f"tol {tol} with {2 * len(heap) + 2} panels")
            total -= estimate
            mass -= m
            new = [split(a, mid, left), split(mid, b, right)]

        panels = sorted(heap, key=lambda panel: panel[3])
        rules = [rule for panel in panels for rule in panel[6]]
        self._edges = [x for panel in panels for x in panel[3:5]] + [hi]
        self._below = [0.0, *accumulate(rule[0] for rule in rules)]  # mass left of each edge
        self._above = [*accumulate((rule[1] for rule in reversed(rules)), initial=0.0)][::-1]
        self._norm = self._below[-1]
        if not math.isfinite(self._norm) or self._norm <= 0.0:
            raise InvalidParamsError(f"density integrates to {self._norm}, expected a positive value")
        self.panels = len(rules)
        self.error_estimate = math.fsum(panel[1] for panel in panels) / self._norm

    def __repr__(self):
        return f"QuadratureDistribution({self._raw_pdf!r}, {self._support!r}, tol={self._tol!r})"

    @property
    def support(self) -> SupportInterval:
        return self._support

    def cdf(self, x):
        def cdf(x):
            lo, hi = self._support.lo, self._support.hi
            if x <= lo:
                return 0.0
            if x >= hi:
                return 1.0
            i = bisect_right(self._edges, x) - 1
            mass = self._below[i] + _gauss(self._raw_pdf, self._edges[i], x)[0]
            return min(max(mass / self._norm, 0.0), 1.0)

        return _elementwise(x, _each(cdf))

    def pdf(self, x: float) -> float:
        lo, hi = self._support.lo, self._support.hi
        if lo <= x <= hi:
            return self._raw_pdf(x) / self._norm
        return 0.0

    def mean(self) -> float:
        return self._above[0] / self._norm

    def partial_expectation(self, t):
        def partial_expectation(t):
            lo, hi = self._support.lo, self._support.hi
            if t <= lo:
                return self.mean()
            if t >= hi:
                return 0.0
            i = bisect_right(self._edges, t)
            return (self._above[i] + _gauss(self._raw_pdf, t, self._edges[i])[1]) / self._norm

        return _elementwise(t, _each(partial_expectation))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        u = np.asarray(rng.random(size))
        flat, lo, hi = u.reshape(-1), self._support.lo, self._support.hi
        # u < 1 = cdf(hi), so every search brackets its crossing at once
        x, _ = find_crossings(lambda x, u: u - self.cdf(x), [lo] * u.size, [hi] * u.size, flat)
        return float(x[0]) if size is None else x.reshape(u.shape)


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
        spec.build()  # validates parameter ranges eagerly; the law is kept for later calls
        return spec

    def build(self) -> Distribution:
        """The law this spec names, built on the first call and shared by every later one."""
        return self._law

    @cached_property
    def _law(self) -> Distribution:
        if self.kind == "uniform":
            lo, hi = self.params
            return Uniform(lo, hi)
        if self.kind == "beta":
            a, b = self.params
            return Beta(a, b)
        raise InvalidParamsError(f"unknown distribution kind {self.kind!r}")

    def __str__(self):
        return f"{self.kind}:" + ",".join(format(p, ".12g") for p in self.params)

"""Bracketed root finding shared by the solver, the Monte Carlo calibrator
and quadrature-law sampling: Chandrupatla's (1997) inverse-quadratic /
bisection hybrid with a bisection safeguard in the spirit of ITP (Oliveira
and Takahashi 2020).

The search step is written once, as the generator :func:`_search`: it yields
each point to evaluate, is sent ``f`` there, and returns the crossing.
:func:`find_crossing` drives one search on floats; :func:`find_crossings`
drives many in lockstep, evaluating ``f`` once per round on the points of
every search still running, so each element takes exactly the float steps
it would take alone.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Generator, Sequence

import numpy as np

from .errors import BracketError

# an interpolated point lies at least this many units of |a| (a: the newest
# point) inside the bracket, so a root approached from one side is overstepped
# and the bracket collapses instead of creeping toward it
_MIN_STEP = 2.0 * sys.float_info.epsilon


def _search(lo: float, hi: float) -> Generator[float, float, float]:
    """Locate where a nonincreasing ``f`` crosses from positive to nonpositive.

    Yields each point to evaluate and is sent ``f`` there.  ``f(lo)`` is
    asked first; when it is not positive, ``lo`` is returned.  While
    ``f(hi) > 0`` the upper end is doubled, at most 64 times before
    :class:`BracketError` is raised.  The bracket, which always holds
    ``f > 0`` at one end and ``f <= 0`` at the other, is then narrowed by
    inverse quadratic interpolation through the last three points where
    Chandrupatla's test says the interpolant is monotone, and by bisection
    otherwise; a bisection is forced whenever the bracket has not halved
    within two steps, so at most three steps go to each halving.  The search
    stops when ``f`` is exactly 0 at a point tried or the bracket is two
    adjacent floats; then the midpoint, rounded to one of them, is returned.
    """
    f_lo = yield lo
    if f_lo <= 0.0:
        return lo
    doublings = 0
    while (f_hi := (yield hi)) > 0.0:
        if doublings == 64:
            raise BracketError(f"no sign change up to {hi}; the function never turns nonpositive")
        hi *= 2.0
        doublings += 1
    # a: newest point, b: the other bracket end, c: the end last dropped
    a, fa, b, fb = lo, f_lo, hi, f_hi
    t = 0.5
    widths = (math.inf, hi - lo)  # bracket widths two steps and one step back
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        x = a + t * (b - a)
        if t == 0.5 or not lo < x < hi:
            x = mid
        fx = yield x
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            c, fc = a, fa
        else:
            c, fc, b, fb = b, fb, a, fa
        a, fa = x, fx
        lo, hi = (a, b) if fa > 0.0 else (b, a)
        width = hi - lo
        t = 0.5
        if width <= 0.5 * widths[0] and fc != fa and fc != fb:
            xi = (a - b) / (c - b)
            phi = (fa - fb) / (fc - fb)
            if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
                t = fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
                tl = _MIN_STEP * abs(a) / width
                t = min(max(t, tl), 1.0 - tl) if tl < 0.5 else 0.5
        widths = (widths[1], width)


def find_crossing(f: Callable[[float], float], lo: float, hi: float) -> float:
    """The crossing of a nonincreasing ``f`` from positive to nonpositive, searched
    from ``[lo, hi]`` as :func:`_search` describes; raises :class:`BracketError`
    when ``f`` stays positive through 64 doublings of ``hi``."""
    search = _search(lo, hi)
    x = next(search)
    try:
        while True:
            x = search.send(f(x))
    except StopIteration as stop:
        return stop.value


def find_crossings(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: Sequence[float], hi: Sequence[float]
) -> list[float | BracketError]:
    """One :func:`find_crossing` per element of ``lo`` and ``hi``, run in lockstep.

    Each round calls ``f(indices, points)`` once, with the indices of the
    searches still running and the point each asks for, as ndarrays; it
    returns ``f`` of each search at its point.  Element ``i`` of the result
    is the crossing the search from ``[lo[i], hi[i]]`` finds, bit for bit
    what ``find_crossing`` returns alone, or the :class:`BracketError` it
    raises.
    """
    results: list[float | BracketError] = [math.nan] * len(lo)
    searches = [_search(float(a), float(b)) for a, b in zip(lo, hi)]
    active = list(range(len(searches)))
    indices = np.array(active)
    points = [next(search) for search in searches]
    while active:
        values = f(indices, np.array(points)).tolist()
        still, points = [], []
        for i, value in zip(active, values):
            try:
                points.append(searches[i].send(value))
                still.append(i)
            except StopIteration as stop:
                results[i] = stop.value
            except BracketError as exc:
                results[i] = exc
        if len(still) < len(active):
            indices = np.array(still)
        active = still
    return results

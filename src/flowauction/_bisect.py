"""Bracketed root finding shared by the solver, the Monte Carlo calibrator
and quadrature-law sampling: Chandrupatla's (1997) inverse-quadratic /
bisection hybrid with a bisection safeguard in the spirit of ITP (Oliveira
and Takahashi 2020)."""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

from .errors import BracketError

# an interpolated point lies at least this many units of |a| (a: the newest
# point) inside the bracket, so a root approached from one side is overstepped
# and the bracket collapses instead of creeping toward it
_MIN_STEP = 2.0 * sys.float_info.epsilon


def find_crossing(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Locate where a nonincreasing ``f`` crosses from positive to nonpositive.

    ``f(lo)`` is evaluated first; when it is not positive, ``lo`` is
    returned.  While ``f(hi) > 0`` the upper end is doubled, at most 64
    times before :class:`BracketError` is raised.  The bracket, which always
    holds ``f > 0`` at one end and ``f <= 0`` at the other, is then narrowed
    by inverse quadratic interpolation through the last three points where
    Chandrupatla's test says the interpolant is monotone, and by bisection
    otherwise; a bisection is forced whenever the bracket has not halved
    within two steps, so at most three steps go to each halving.  The loop
    stops when ``f`` is exactly 0 at a point tried or the bracket is two
    adjacent floats; then the midpoint, rounded to one of them, is returned.
    """
    f_lo = f(lo)
    if f_lo <= 0.0:
        return lo
    doublings = 0
    while (f_hi := f(hi)) > 0.0:
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
        fx = f(x)
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

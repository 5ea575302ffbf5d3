"""Bracket-and-bisect root finding shared by the solver, the Monte Carlo
calibrator and quadrature-law sampling."""

from __future__ import annotations

from collections.abc import Callable

from .errors import BracketError


def find_crossing(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Locate where a nonincreasing ``f`` crosses from positive to nonpositive.

    ``f(lo) > 0`` is assumed, not evaluated.  While ``f(hi) > 0`` the upper
    end is doubled, at most 64 times before :class:`BracketError` is raised;
    then the bracket is bisected until ``f`` is exactly 0 at the midpoint or
    the bracket is two adjacent floats.
    """
    doublings = 0
    while f(hi) > 0.0:
        if doublings == 64:
            raise BracketError(f"no sign change up to {hi}; the function never turns nonpositive")
        hi *= 2.0
        doublings += 1
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fm > 0.0:
            lo = mid
        else:
            hi = mid

"""Bracketed root finding shared by the solver and quadrature-law sampling:
Chandrupatla's (1997) inverse-quadratic / bisection hybrid with a bisection
safeguard in the spirit of ITP (Oliveira and Takahashi 2020).

The search is written once, as array arithmetic: :func:`find_crossings`
keeps the state of every search in arrays and takes one step of each
running search per round, evaluating ``f`` once per round on all their
points.  Each element takes exactly the float steps it would take alone, so
a result never depends on the batch.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Sequence

import numpy as np

from .errors import BracketError

# an interpolated point lies at least this many units of |a| (a: the newest
# point) inside the bracket, so a root approached from one side is overstepped
# and the bracket collapses instead of creeping toward it
_MIN_STEP = 2.0 * sys.float_info.epsilon

def _clamp(t: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``min(max(t, lower), upper)`` elementwise, with the builtins' NaN behaviour:
    each keeps its first argument unless the second compares beyond it, so a
    NaN ``t`` stays NaN and a NaN bound is passed over (``np.maximum`` would
    return it)."""
    t = np.where(lower > t, lower, t)
    return np.where(upper < t, upper, t)


def find_crossings(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: Sequence[float], hi: Sequence[float]
) -> list[float | BracketError]:
    """Where each of many nonincreasing functions crosses from positive to
    nonpositive, one search per element of ``lo`` and ``hi``, run in lockstep.

    Each round calls ``f(indices, points)`` once, with the indices of the
    searches still running, in increasing order, and the point each asks
    for, as ndarrays; it returns ``f`` of each search at its point.

    A search asks for ``f(lo)`` first; when it is not positive, ``lo`` is
    the result.  It then asks for ``f(hi)``; when that is positive the
    bracket holds no crossing and the result is a :class:`BracketError`.
    The bracket, which always holds ``f > 0`` at one end and ``f <= 0`` at
    the other, is then narrowed by inverse quadratic interpolation through
    the last three points where Chandrupatla's test says the interpolant is
    monotone, and by bisection otherwise; a bisection is forced whenever the
    bracket has not halved within two steps, so at most three steps go to
    each halving.  The search stops when ``f`` is exactly 0 at a point
    tried, which is then the result, or the bracket is two adjacent floats;
    then the midpoint, rounded to one of them, is.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    if not lo.size:
        return []
    found = lo.copy()
    errors: dict[int, BracketError] = {}
    idx = np.arange(lo.size)
    with np.errstate(all="ignore"):  # inf and NaN arise quietly, as in float arithmetic
        f_lo = np.asarray(f(idx, lo), dtype=float)  # the first round asks every search for f(lo)
        keep = ~(f_lo <= 0.0)  # f(lo) <= 0: lo is the crossing
        idx, lo, hi, f_lo = idx[keep], lo[keep], hi[keep], f_lo[keep]
        f_hi = np.asarray(f(idx, hi), dtype=float) if idx.size else hi  # the second round, for f(hi)
        keep = ~(f_hi > 0.0)  # f(hi) > 0: the bracket holds no crossing, and is not widened
        if not keep.all():
            for i, top in zip(idx[~keep].tolist(), hi[~keep].tolist()):
                errors[i] = BracketError(f"no sign change up to {top}; f is positive at both ends")
            idx, lo, hi, f_lo, f_hi = idx[keep], lo[keep], hi[keep], f_lo[keep], f_hi[keep]
        # the state of the running searches.  a: the newest point, b: the other
        # bracket end, c: the end last dropped, each with f there; t: the step from
        # a toward b; w2, w1: the bracket widths two steps and one step back
        a, fa, b, fb, c, fc = lo, f_lo, hi, f_hi, lo, f_lo
        t, w2, w1 = np.full_like(lo, 0.5), np.full_like(lo, np.inf), hi - lo
        while True:
            mid = 0.5 * (lo + hi)
            collapsed = (mid == lo) | (mid == hi)  # two adjacent floats: the midpoint is the crossing
            returned = fa == 0.0  # the point tried last is an exact zero
            ended = returned | collapsed
            if ended.any():
                found[idx[collapsed]] = mid[collapsed]
                found[idx[returned]] = a[returned]  # an exact zero wins over a collapsed bracket
                # compacted as one stacked array: stacking it every round would cost more
                keep = ~ended
                idx = idx[keep]
                lo, hi, a, fa, b, fb, c, fc, t, w2, w1, mid = np.array(
                    [lo, hi, a, fa, b, fb, c, fc, t, w2, w1, mid])[:, keep]
            if not idx.size:
                break
            x = a + t * (b - a)
            x = np.where((t != 0.5) & (lo < x) & (x < hi), x, mid)
            fx = np.asarray(f(idx, x), dtype=float)

            positive = fx > 0.0
            same = positive == (fa > 0.0)
            c, fc = np.where(same, a, b), np.where(same, fa, fb)
            b, fb = np.where(same, b, a), np.where(same, fb, fa)
            a, fa = x, fx
            lo, hi = np.where(positive, a, b), np.where(positive, b, a)
            width = hi - lo
            xi = (a - b) / (c - b)
            phi = (fa - fb) / (fc - fb)
            rest = 1.0 - phi
            t = fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
            tl = _MIN_STEP * np.abs(a) / width
            interpolate = ((width <= 0.5 * w2) & (fc != fa) & (fc != fb) & (phi * phi < xi)
                           & (rest * rest < 1.0 - xi) & (tl < 0.5))
            t = np.where(interpolate, _clamp(t, tl, 1.0 - tl), 0.5)
            w2, w1 = w1, width
    results: list[float | BracketError] = found.tolist()
    for i, exc in errors.items():
        results[i] = exc
    return results

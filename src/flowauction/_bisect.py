"""Bracketed root finding shared by the solver, the Monte Carlo calibrator
and quadrature-law sampling: Chandrupatla's (1997) inverse-quadratic /
bisection hybrid with a bisection safeguard in the spirit of ITP (Oliveira
and Takahashi 2020).

The search is written once, as array arithmetic: :func:`find_crossings`
keeps the state of every search in arrays and takes one step of each
running search per round, evaluating ``f`` once per round on all their
points.  Each element takes exactly the float steps it would take alone, so
a result never depends on the batch; :func:`find_crossing` is
``find_crossings`` of one.
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
    the result.  While ``f(hi) > 0`` the upper end is doubled, at most 64
    times before the result is a :class:`BracketError`.  The bracket, which
    always holds ``f > 0`` at one end and ``f <= 0`` at the other, is then
    narrowed by inverse quadratic interpolation through the last three
    points where Chandrupatla's test says the interpolant is monotone, and
    by bisection otherwise; a bisection is forced whenever the bracket has
    not halved within two steps, so at most three steps go to each halving.
    The search stops when ``f`` is exactly 0 at a point tried, which is then
    the result, or the bracket is two adjacent floats; then the midpoint,
    rounded to one of them, is.  Doubling searches and narrowing ones share
    the rounds.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    found = lo.copy()
    errors: dict[int, BracketError] = {}
    idx = np.arange(lo.size)
    with np.errstate(all="ignore"):  # inf and NaN arise quietly, as in float arithmetic
        if idx.size:  # the first round asks every search for f(lo)
            f_lo = np.asarray(f(idx, lo), dtype=float)
            keep = ~(f_lo <= 0.0)  # f(lo) <= 0: lo is the crossing
            idx, lo, hi, f_lo = idx[keep], lo[keep], hi[keep], f_lo[keep]
        # the state of the running searches, compacted as searches end.  a: the
        # newest point, b: the other bracket end, c: the end last dropped; w2, w1:
        # the bracket widths two steps and one step back
        x = hi
        narrowing = np.zeros(idx.size, dtype=bool)  # False while f(hi) is asked and hi doubled
        doublings = np.zeros(idx.size, dtype=int)
        a = fa = b = fb = c = fc = t = w2 = w1 = lo
        starting = True  # some search has not bracketed its crossing yet
        while idx.size:
            fx = np.asarray(f(idx, x), dtype=float)
            positive = fx > 0.0
            returned = fx == 0.0  # a narrowing search whose point is an exact zero ends there

            # one narrowing step, taken by every search and kept by those narrowing
            same = positive == (fa > 0.0)
            c, fc = np.where(same, a, b), np.where(same, fa, fb)
            b, fb = np.where(same, b, a), np.where(same, fb, fa)
            a, fa = x, fx
            lo_step, hi_step = np.where(positive, a, b), np.where(positive, b, a)
            if starting:
                returned &= narrowing
                grow = positive & ~narrowing  # f(hi) > 0: double hi, at most 64 times
                failed = grow & (doublings == 64)
                grow &= ~failed
                doublings += grow
                bracketed = ~(positive | narrowing)
                lo = np.where(narrowing, lo_step, lo)
                hi = np.where(narrowing, hi_step, np.where(grow, hi * 2.0, hi))
            else:
                lo, hi = lo_step, hi_step
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
            if starting:
                # a bracketed search starts narrowing [lo, hi] from its ends
                a, fa, b, fb = (np.where(bracketed, lo, a), np.where(bracketed, f_lo, fa),
                                np.where(bracketed, hi, b), np.where(bracketed, fx, fb))
                t, w2 = np.where(bracketed, 0.5, t), np.where(bracketed, np.inf, w2)
                narrowing = narrowing & ~returned | bracketed

            mid = 0.5 * (lo + hi)
            collapsed = (mid == lo) | (mid == hi)  # two adjacent floats: the midpoint is the crossing
            x = a + t * (b - a)
            x = np.where((t != 0.5) & (lo < x) & (x < hi), x, mid)
            if starting:
                collapsed &= narrowing
                x = np.where(narrowing, x, hi)
                for i, top in zip(idx[failed].tolist(), hi[failed].tolist()):
                    errors[i] = BracketError(
                        f"no sign change up to {top}; the function never turns nonpositive")
                returned |= failed
                starting = not (narrowing | returned).all()
            ended = returned | collapsed
            if ended.any():
                found[idx[collapsed]] = mid[collapsed]
                found[idx[returned]] = a[returned]  # an exact zero wins over a collapsed bracket
                keep = ~ended
                if not keep.any():
                    break
                idx, x, narrowing, doublings, lo, hi, f_lo, a, fa, b, fb, c, fc, t, w2, w1 = (
                    v[keep]
                    for v in (idx, x, narrowing, doublings, lo, hi, f_lo, a, fa, b, fb, c, fc, t, w2, w1))
    results: list[float | BracketError] = found.tolist()
    for i, exc in errors.items():
        results[i] = exc
    return results


def find_crossing(f: Callable[[float], float], lo: float, hi: float) -> float:
    """The crossing of a nonincreasing ``f`` from positive to nonpositive, searched
    from ``[lo, hi]`` as :func:`find_crossings` describes; raises :class:`BracketError`
    when ``f`` stays positive through 64 doublings of ``hi``."""
    [root] = find_crossings(lambda i, x: np.array([f(float(x[0]))]), [lo], [hi])
    if isinstance(root, BracketError):
        raise root
    return root

"""Bracketed root finding for quadrature-law sampling, which inverts the CDF:
Chandrupatla's (1997) inverse-quadratic / bisection hybrid with a bisection
safeguard in the spirit of ITP (Oliveira and Takahashi 2020).

The narrowing step is written once, as :func:`_step`, in arithmetic that reads
the same on arrays and on float64 scalars.  :func:`find_crossings` keeps every
search, and its callers' columns, in arrays and steps each running search once a
round, evaluating ``f`` once per round on their points and rows; a search left
running alone moves to scalars, where :func:`_alone` steps it without numpy's
per-call cost.  Each element takes exactly the float steps it would take alone,
so a result never depends on the batch.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Sequence

import numpy as np

# an interpolated point lies at least this many units of |a| (a: the newest
# point) inside the bracket, so a root approached from one side is overstepped
# and the bracket collapses instead of creeping toward it
_MIN_STEP = 2.0 * sys.float_info.epsilon


def find_crossings(
    f: Callable[..., np.ndarray], lo: Sequence[float], hi: Sequence[float], *columns: np.ndarray
) -> np.ndarray:
    """Where each of many nonincreasing functions crosses from positive to
    nonpositive, one search per element of ``lo`` and ``hi``, run in lockstep.

    Each round calls ``f(points, *rows)`` once: ``points`` holds the point
    each search still running asks for, and ``rows`` the rows of each of
    ``columns`` (arrays as long as ``lo``) at those searches, in element
    order; it returns ``f`` of each search at its point.  The rows are
    compacted with the search state only in rounds where a search ends.
    A search left running alone takes the same steps on float64 scalars, with
    ``f`` called on one-element arrays: a step then costs 5–10 µs, not the
    ~60 µs that numpy's per-call cost sets for a round of array steps.

    A search asks for ``f(lo)`` first; when it is not positive, ``lo`` is
    the root.  It then asks for ``f(hi)``; when that is positive the
    bracket holds no crossing and is not widened.  The bracket, which always
    holds ``f > 0`` at one end and ``f <= 0`` at the other, is then narrowed
    by inverse quadratic interpolation through the last three points where
    Chandrupatla's test says the interpolant is monotone, and by bisection
    otherwise; a bisection is forced whenever the bracket has not halved
    within two steps, so at most three steps go to each halving.  The
    search stops when ``f`` is exactly 0 at a point tried, which is then the
    root, or the bracket is two adjacent floats; then the midpoint, rounded
    to one of them, is.

    Returns ``roots``, a float64 array that is NaN exactly where ``f(hi) > 0``.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    roots = lo.copy()
    if not lo.size:
        return roots
    rows = [np.arange(lo.size), *columns]  # rows[0]: the element of each running search
    with np.errstate(all="ignore"):  # inf and NaN arise quietly, as in float arithmetic
        f_lo = np.asarray(f(lo, *rows[1:]), dtype=float)  # the first round asks every search for f(lo)
        keep = ~(f_lo <= 0.0)  # f(lo) <= 0: lo is the root
        if not keep.all():
            rows, lo, hi, f_lo = [r[keep] for r in rows], lo[keep], hi[keep], f_lo[keep]
        f_hi = np.asarray(f(hi, *rows[1:]), dtype=float) if hi.size else hi  # the second round, for f(hi)
        keep = ~(f_hi > 0.0)  # f(hi) > 0: the bracket holds no crossing
        if not keep.all():
            roots[rows[0][~keep]] = np.nan
            rows, lo, hi, f_lo, f_hi = [r[keep] for r in rows], lo[keep], hi[keep], f_lo[keep], f_hi[keep]
        # the state of the running searches.  x: the point each asks for next,
        # a: the newest point, b: the other bracket end, each with f there;
        # w2, w1: the bracket widths two steps and one step back
        a, fa, b, fb, w2, w1 = lo, f_lo, hi, f_hi, np.full_like(lo, np.inf), hi - lo
        mid = 0.5 * (lo + hi)  # the first narrowing step bisects
        x, collapsed = mid, (mid == lo) | (mid == hi)
        while True:
            returned = fa == 0.0  # the point tried last is an exact zero
            ended = returned | collapsed
            if ended.any():
                roots[rows[0][collapsed]] = mid[collapsed]
                roots[rows[0][returned]] = a[returned]  # an exact zero wins over a collapsed bracket
                # compacted as one stacked array: stacking it every round would cost more
                keep = ~ended
                rows = [r[keep] for r in rows]
                x, a, fa, b, fb, w2, w1 = np.array([x, a, fa, b, fb, w2, w1])[:, keep]
            if x.size <= 1:  # a lone search steps on scalars
                if x.size:
                    roots[rows[0][0]] = _alone(f, rows[1:], *(v[0] for v in (x, a, fa, b, fb, w2, w1)))
                break
            fx = np.asarray(f(x, *rows[1:]), dtype=float)
            x, mid, collapsed, a, fa, b, fb, w2, w1 = _step(np.where, x, fx, a, fa, b, fb, w2, w1)
    return roots


def _alone(f, rows, x, a, fa, b, fb, w2, w1):
    """The root of the one search still running, from its state as float64 scalars
    (not Python floats, whose division by zero raises) and its one-element ``rows``:
    :func:`_step` with a conditional for ``np.where``, under the caller's ``np.errstate``."""
    def where(condition, yes, no):
        return yes if condition else no

    while True:
        fx = np.asarray(f(np.array([x]), *rows), dtype=float)[0]
        x, mid, collapsed, a, fa, b, fb, w2, w1 = _step(where, x, fx, a, fa, b, fb, w2, w1)
        if fa == 0.0:  # an exact zero wins over a collapsed bracket
            return a
        if collapsed:
            return mid


def _step(where, x, fx, a, fa, b, fb, w2, w1):
    """One narrowing step of a search that asked for ``x`` and got ``fx``: the point it
    asks for next, the new bracket's midpoint, whether that is the root (the bracket
    is two adjacent floats) and the new ``a, fa, b, fb, w2, w1``.  Only arithmetic,
    ``abs``, ``np.minimum``/``np.maximum`` and ``where`` are used, so arrays with
    ``np.where`` and float64 scalars with a conditional take the same float steps."""
    positive = fx > 0.0
    same = positive == (fa > 0.0)
    c, fc = where(same, a, b), where(same, fa, fb)  # c: the end dropped
    b, fb = where(same, b, a), where(same, fb, fa)
    a, fa = x, fx
    lo, hi = where(positive, a, b), where(positive, b, a)
    width = hi - lo
    xi = (a - b) / (c - b)
    fcb = fc - fb
    phi = (fa - fb) / fcb
    rest = 1.0 - phi
    t = fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa) * fb / fcb
    tl = _MIN_STEP * abs(a) / width
    interpolate = ((width <= 0.5 * w2) & (fc != fa) & (fc != fb) & (phi * phi < xi)
                   & (rest * rest < 1.0 - xi) & (tl < 0.5))
    # tl < 0.5 where it interpolates, so this is min(max(t, tl), 1 - tl), except that a
    # -0.0 t may become 0.0 at tl = 0; x is a, a bracket end, either way, and mid replaces it
    t = where(interpolate, np.minimum(np.maximum(t, tl), 1.0 - tl), 0.5)  # t: the step from a toward b
    mid = 0.5 * (lo + hi)
    x = a + t * (b - a)
    x = where((t != 0.5) & (lo < x) & (x < hi), x, mid)
    return x, mid, (mid == lo) | (mid == hi), a, fa, b, fb, w1, width

"""Properties of ``find_crossings``, the bracketed root finder of quadrature-law sampling, checked
through :func:`find_crossing`, its one-search form, and against a scalar
statement of its step."""

import bisect
import contextlib
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from flowauction._bisect import find_crossings


class NoCrossing(Exception):
    """What these tests make of a NaN root of ``find_crossings``: ``f(hi)`` is positive."""


def no_crossing(hi):
    return NoCrossing(f"no sign change up to {hi}; f is positive at both ends")


def find_crossing(f, lo, hi):
    """The crossing of a nonincreasing ``f`` from positive to nonpositive, searched
    from ``[lo, hi]`` as ``find_crossings`` describes; raises a :class:`NoCrossing`
    where its root is NaN: ``f(hi)`` is positive too."""
    (root,) = find_crossings(lambda x: np.array([f(float(x[0]))]), [lo], [hi])
    if np.isnan(root):
        raise no_crossing(hi)
    return float(root)


def plain_bisection_evals(f, lo, hi):
    """Evaluations of ``f`` that plain bisection makes to narrow ``[lo, hi]`` to adjacent floats,
    counting ``f(hi)``.

    Its early exit on an exact zero is left out: that fires only when the
    root is a dyadic point of the bracket (0.25 of [0, 1] after 2 steps),
    which no interpolating step aims for, so it measures luck, not cost.
    """
    n = 1
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return n
        n += 1
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def counted(f):
    def g(x):
        g.calls += 1
        return f(x)

    g.calls = 0
    return g


@st.composite
def nonincreasing_functions(draw):
    """A nonincreasing ``f`` and a bracket ``[lo, hi]`` with ``f(lo) > 0 >= f(hi)``."""
    lo = draw(st.sampled_from([0.0, -1.0, 1e4, -1e6, 1e9, 0.1]))
    width = draw(st.sampled_from([1.0, 1e-6, 1e3, 0.3]))
    hi = lo + width
    position = draw(st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 0.5, 0.25, 1.0]),  # at the ends, and where bisection lands exactly
    ))
    root = lo + position * (hi - lo)
    if root <= lo:  # f(lo) > 0 is the premise; put the root one float above lo
        root = math.nextafter(lo, math.inf)
    kind = draw(st.sampled_from(["linear", "cubic", "exp", "kinked", "tanh", "clipped", "flat_zero",
                                 "step", "empirical"]))
    scale = draw(st.sampled_from([1.0, 1e-8, 1e8]))
    if kind == "linear":
        f = lambda x: scale * (root - x)
    elif kind == "cubic":
        f = lambda x: scale * (root - x) ** 3
    elif kind == "exp":
        k = draw(st.sampled_from([0.1, 1.0, 30.0])) / max(abs(root), width)
        f = lambda x: scale * math.expm1(-k * (x - root))
    elif kind == "kinked":
        slope = draw(st.sampled_from([1e-3, 0.5, 40.0]))
        f = lambda x: scale * (root - x) * (1.0 if x < root else slope)
    elif kind == "tanh":  # flat on both sides of a steep drop
        k = draw(st.sampled_from([1.0, 1e3, 1e6])) / width
        f = lambda x: scale * math.tanh(k * (root - x))
    elif kind == "clipped":
        k = draw(st.sampled_from([2.0, 1e4])) / width
        f = lambda x: scale * min(max(k * (root - x), -1.0), 1.0)
    elif kind == "flat_zero":  # exactly zero on [root, root + width / 4]
        f = lambda x: scale * (max(root - x, 0.0) + min(root + 0.25 * width - x, 0.0))
    elif kind == "step":  # a half minus a count of cuts: never zero, crossing at the lowest cut
        offsets = sorted(draw(st.lists(st.floats(0.0, 1.0), max_size=20)))
        cuts = [root] + [root + o * width for o in offsets]
        f = lambda x: 0.5 - bisect.bisect_right(cuts, x)
    else:  # the calibrator's empirical utility: a mean of kinked gains minus an upfront part
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        s = lo + width * rng.random(draw(st.sampled_from([3, 50, 1000])))
        alpha = draw(st.sampled_from([0.05, 0.5, 1.0]))
        f = lambda x: float(np.maximum(s - lo - (1.0 - alpha) * (x - lo), 0.0).mean()) \
            - alpha * (x - lo)
    assume(f(lo) > 0.0)  # the root may sit so close to lo that scaling rounds f(lo) to 0
    assume(f(hi) <= 0.0)  # rounding may lift the empirical mean above its bound at hi
    return f, lo, hi


def is_crossing(f, x):
    """``x`` is an exact zero or an end of an adjacent-float bracket with f > 0 below, f <= 0 above."""
    fx = f(x)
    if fx == 0.0:
        return True
    if fx > 0.0:
        return f(math.nextafter(x, math.inf)) <= 0.0
    return f(math.nextafter(x, -math.inf)) > 0.0


@settings(max_examples=400, deadline=None)
@given(case=nonincreasing_functions())
def test_finds_the_crossing_within_three_bisections_per_halving(case):
    f, lo, hi = case
    g = counted(f)
    x = find_crossing(g, lo, hi)
    assert is_crossing(f, x)
    # at most three steps per halving of the bracket, plus the evaluation of f(lo)
    assert g.calls <= 3 * plain_bisection_evals(f, lo, hi) + 2


@pytest.mark.parametrize("f", [lambda x: 1.0, lambda x: 1.0 + math.exp(-x), lambda x: x])
def test_positive_at_hi_is_a_bracket_error_after_two_evaluations(f):
    g = counted(f)
    with pytest.raises(NoCrossing, match="no sign change up to 1.0"):
        find_crossing(g, 0.5, 1.0)
    assert g.calls == 2  # f(lo), then f(hi); the bracket is never widened


@pytest.mark.parametrize("f_lo", [0.0, -1.0])
def test_nonpositive_at_lo_returns_lo_after_one_evaluation(f_lo):
    g = counted(lambda x: f_lo - x)
    assert find_crossing(g, 2.0, 3.0) == 2.0
    assert g.calls == 1


def lockstep(cases):
    """``find_crossings`` over ``(f, lo, hi)`` cases, each ``f`` passed as a column and
    called on its own points: each case's root, or a :class:`NoCrossing` where the
    root is NaN."""
    def f(points, fs):
        return np.array([g(x) for g, x in zip(fs, points.tolist())])

    his = [hi for _, _, hi in cases]
    roots = find_crossings(f, [lo for _, lo, _ in cases], his, np.array([g for g, _, _ in cases], dtype=object))
    assert roots.dtype == float
    return [no_crossing(hi) if math.isnan(root) else root for root, hi in zip(roots.tolist(), his)]


@settings(max_examples=60, deadline=None)
@given(cases=st.lists(nonincreasing_functions(), min_size=1, max_size=5), data=st.data())
def test_lockstep_equals_each_search_alone(cases, data):
    # a search that returns lo at once and one whose bracket holds no crossing
    # stop in the first rounds, beside searches that run on
    for case in [(lambda x: -1.0 - x, 2.0, 3.0), (lambda x: 1.0, 0.5, 1.0)]:
        cases.insert(data.draw(st.integers(0, len(cases))), case)
    for (f, lo, hi), got in zip(cases, lockstep(cases)):
        try:
            want = find_crossing(f, lo, hi)
        except NoCrossing as exc:
            assert isinstance(got, NoCrossing) and str(got) == str(exc)
        else:
            assert not isinstance(got, NoCrossing) and got.hex() == float(want).hex()


def test_lockstep_calls_f_once_per_round_on_the_running_searches():
    # searches that end after 1 evaluation (f(lo) <= 0), after 2 (no crossing)
    # and at different rounds of the narrowing
    shifts = np.array([0.3, -1.0, 0.6, 2.0, 0.45, 0.7])
    labels = np.array([10, 11, 12, 13, 14, 15])
    evals = []
    for shift in shifts.tolist():
        g = counted(lambda x, shift=shift: shift - x)
        with contextlib.suppress(NoCrossing):
            find_crossing(g, 0.0, 1.0)
        evals.append(g.calls)
    received = []

    def f(points, shift, label):
        received.append((shift.tolist(), label.tolist()))
        assert len(points) == len(shift) and label.dtype == labels.dtype
        return shift - points

    roots = find_crossings(f, [0.0] * 6, [1.0] * 6, shifts, labels)
    assert np.isnan(roots).tolist() == [False, False, False, True, False, False]
    for root, shift in zip(roots.tolist(), shifts.tolist()):
        if not math.isnan(root):
            assert root == find_crossing(lambda x: shift - x, 0.0, 1.0)
    # in each round, f receives the rows of exactly the searches still running, in order
    assert len(received) == max(evals)
    for r, (shift_rows, label_rows) in enumerate(received):
        running = [k for k in range(6) if evals[k] > r]
        assert shift_rows == shifts[running].tolist() and label_rows == labels[running].tolist()
    assert len({len(rows) for rows, _ in received}) > 2  # searches did end in several rounds
    roots = find_crossings(f, [], [], shifts[:0], labels[:0])
    assert roots.size == 0 and roots.dtype == float and len(received) == max(evals)


# ---------------------------------------------------------------------------
# the array search against a scalar reference
# ---------------------------------------------------------------------------

def reference_search(lo, hi):
    """The search step on Python floats, as a generator: it yields each point
    to evaluate, is sent ``f`` there and returns the crossing.  This is the
    scalar statement of the step that ``find_crossings`` takes in arrays."""
    f_lo = yield lo
    if f_lo <= 0.0:
        return lo
    f_hi = yield hi
    if f_hi > 0.0:
        raise NoCrossing(f"no sign change up to {hi}; f is positive at both ends")
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
                tl = 2.0 * sys.float_info.epsilon * abs(a) / width
                t = min(max(t, tl), 1.0 - tl) if tl < 0.5 else 0.5
        widths = (widths[1], width)


def reference_crossing(f, lo, hi):
    """What ``reference_search`` returns on ``f``, or the :class:`NoCrossing` it raises."""
    search = reference_search(lo, hi)
    x = next(search)
    try:
        while True:
            x = search.send(f(x))
    except StopIteration as stop:
        return stop.value
    except NoCrossing as exc:
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, NoCrossing):
        assert isinstance(got, NoCrossing) and str(got) == str(want)
    else:
        assert not isinstance(got, NoCrossing) and got.hex() == float(want).hex()


@settings(max_examples=200, deadline=None)
@given(cases=st.lists(nonincreasing_functions(), min_size=1, max_size=6), data=st.data())
def test_the_array_search_takes_the_reference_steps(cases, data):
    if data.draw(st.booleans()):  # a search whose bracket holds no crossing, among the others
        cases.insert(data.draw(st.integers(0, len(cases))), (lambda x: 1.0, 0.5, 1.0))
    for (f, lo, hi), got in zip(cases, lockstep(cases)):
        assert_same_outcome(got, reference_crossing(f, lo, hi))


TINY = math.nextafter(0.0, 1.0)


@pytest.mark.parametrize("f, lo, hi", [
    # the last step lands on the exact zero as the bracket collapses to adjacent
    # floats: the point tried, not the midpoint, is the crossing
    (lambda x: TINY - x, 0.0, 1.0),
    (lambda x: (TINY - x) * 1e300, 0.0, 1.0),
    # NaN and infinite values reach the interpolation and its clipping to
    # [tl, 1 - tl], which must keep the builtins' comparisons
    (lambda x: math.inf if x < 0.3 else -1.0, 0.0, 1.0),
    (lambda x: math.nan if 0.2 < x < 0.4 else 0.3 - x, 0.0, 1.0),
    (lambda x: 0.25 - x if x != 0.5 else math.nan, 0.0, 1.0),
    (lambda x: math.nan, 0.0, 1.0),
    (lambda x: 1e308 * (0.3 - x) * 1e10, 0.0, 1.0),
    (lambda x: -math.inf if x > 1e-300 else 1.0, 0.0, 1e308),
    (lambda x: 1.0, 1e300, 1e307),
    (lambda x: 1.0 if x < 0.5 else math.nan, 0.0, 1.0),  # NaN at hi is not positive: it brackets
    # the midpoint of [-1, 1] is exactly 0.0, so the next step is clipped with tl = 0
    (lambda x: 0.3 - x, -1.0, 1.0),
    (lambda x: -0.2 - x, -1.0, 1.0),
    (lambda x: (0.3 - x) * (1.0 if x < 0.3 else 40.0), -1.0, 1.0),
])
def test_edge_cases_match_the_reference(f, lo, hi):
    want = reference_crossing(f, lo, hi)
    # alone, and beside searches that end in the first and second rounds and one that runs on
    for cases in [[(f, lo, hi)], [(lambda x: -1.0, 0.0, 1.0), (lambda x: 1.0, 0.0, 1.0), (lambda x: 1.0 - x, 0.0, 1.0),
                                  (f, lo, hi)]]:
        got = lockstep(cases)[-1]
        assert_same_outcome(got, want)
        if f(lo) > 0.0 and f(TINY) == 0.0:
            assert got == TINY


def exact_tie(x):
    """Kinked at 0.5 with a root at 0.25.  Searched on [0, 1], its points 0.5,
    0.236... and 0.24999999999999997 leave the bracket [0.24999999999999997, 0.5],
    exactly half as wide as [0, 0.5] two steps back, where Chandrupatla's test
    passes: the width test's tie decides between interpolating and bisecting."""
    return 0.375 - 1.5 * x if x <= 0.5 else 0.25 - 1.25 * x


def reference_points(f, lo, hi):
    """The points ``reference_search`` asks ``f`` for, in order."""
    points = []
    reference_crossing(lambda x: points.append(x) or f(x), lo, hi)
    return points


@pytest.mark.parametrize("partners", [
    [],  # alone: every narrowing step on scalars
    [(lambda x: 0.1 - x, 0.0, 1.0)],  # runs through the tie, then ends: the tie is an array step
    [(lambda x: -1.0, 0.0, 1.0), (lambda x: 1.0, 0.0, 1.0), (lambda x: 0.2 - x, 0.0, 1.0)],  # end before it
])
def test_an_exact_width_tie_interpolates_in_either_driver(partners):
    tried = reference_points(exact_tie, 0.0, 1.0)
    assert 0.5 - tried[4] == 0.5 * (0.5 - 0.0)  # the tie, after the fifth point
    assert tried[5] != 0.5 * (tried[4] + 0.5)  # the sixth point is interpolated, not the midpoint
    cases = [*partners, (exact_tie, 0.0, 1.0)]
    asked = [[] for _ in cases]

    def f(points, k):
        for i, x in zip(k.tolist(), points.tolist()):
            asked[i].append(x)
        return np.array([cases[i][0](x) for i, x in zip(k.tolist(), points.tolist())])

    find_crossings(f, [lo for _, lo, _ in cases], [hi for _, _, hi in cases], np.arange(len(cases)))
    assert asked == [reference_points(g, lo, hi) for g, lo, hi in cases]
    assert len(asked[-1]) > max(map(len, asked[:-1]), default=0)  # the tie's search ends last

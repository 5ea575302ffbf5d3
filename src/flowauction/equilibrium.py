"""Zero-profit equilibrium of the order flow auction.

The winner of the auction holds a call-like right: executing the order pays
``S - K`` where ``S`` is the post-auction reference price and ``K`` the
order's strike.  A share ``alpha`` of the winning bid is paid upfront, the
remaining ``(1 - alpha) * b`` only on execution, so the contingent part
shifts the effective strike to the threshold ``K + (1 - alpha) * b``.  Under
perfect competition bidders push the bid to the point of zero expected
profit; this module solves that condition and evaluates the resulting
execution probability, auction revenue, and effective spread.

The extension parameters ``p`` and ``q`` model execution that is forced or
failed regardless of the winner's choice; the winner decides only with
probability ``1 - p - q``.

All functions here are pure; sweeps over many parameter points can run
concurrently without coordination.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum
from itertools import pairwise
from typing import NamedTuple

import numpy as np

from .distributions import Beta, Distribution, check_tol
from .errors import ConvergenceError, InvalidParamsError

__all__ = [
    "AuctionParams",
    "SolutionStatus",
    "EquilibriumSolution",
    "option_value",
    "expected_utility",
    "solve_equilibrium",
    "solve_equilibria",
    "solve_columns",
    "solution_at",
    "revenue",
]


def check_alpha(alpha: float) -> None:
    """Raise :class:`InvalidParamsError` unless the upfront share ``alpha`` lies in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise InvalidParamsError(f"alpha must lie in [0, 1], got {alpha}")


@dataclass(frozen=True)
class AuctionParams:
    """Auction-side parameters: strike, upfront share, forced outcomes.

    ``alpha`` is the fraction of the bid paid unconditionally, ``p`` the
    probability that execution is forced, ``q`` the probability that it
    fails regardless of the winner; ``p + q <= 1``.
    """

    strike: float
    alpha: float
    p: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.strike):
            raise InvalidParamsError(f"strike must be finite, got {self.strike}")
        check_alpha(self.alpha)
        if not (self.p >= 0.0 and self.q >= 0.0 and self.p + self.q <= 1.0):
            raise InvalidParamsError(
                f"forced-outcome probabilities need p >= 0, q >= 0, p + q <= 1; got p={self.p}, q={self.q}"
            )


class SolutionStatus(str, Enum):
    INTERIOR_ROOT = "interior_root"
    BOUNDARY_ZERO_BID = "boundary_zero_bid"
    BOUNDARY_FULL_EROSION = "boundary_full_erosion"


@dataclass(frozen=True)
class EquilibriumSolution:
    """Solved equilibrium bid together with the quantities derived from it.

    ``effective_spread`` is None when the execution probability is zero (the
    conditional expectation is over a null event).  ``residual`` is the
    expected utility at ``b_star``; for interior roots it is bounded by the
    solver tolerance times the price scale (see :func:`solve_equilibrium`).
    ``status`` is None for the record of a given bid rather than a solved one.
    """

    b_star: float
    threshold: float
    p_exec: float
    effective_spread: float | None
    revenue: float
    residual: float
    status: SolutionStatus | None


def option_value(d: Distribution, t: float) -> float:
    """E[max(S - t, 0)] for S ~ d, via the upper partial expectation."""
    return d.partial_expectation(t) - t * (1.0 - d.cdf(t))


class _Batch(NamedTuple):
    """One row per element of a batch: the fields of its :class:`AuctionParams`
    and the columns of its law, one float64 array each, or, for one element
    alone, one float64 scalar each (:meth:`one`).

    Every formula below reads the auction through one, so it serves a single
    auction and a whole grid alike, and the rows of the searches still running
    are a table of their own.  The laws are grouped by family: the elements
    under Beta laws are one group, read through one Beta that holds their
    shapes as columns, and each other law is a group of its own.
    """

    strike: np.ndarray
    alpha: np.ndarray
    p: np.ndarray
    contingent: np.ndarray  # 1 - alpha, the share of the bid paid on execution
    decides: np.ndarray  # 1 - p - q, the chance that the winner decides
    mean: np.ndarray  # the law's mean, which forced execution earns
    lo: np.ndarray  # the law's support
    hi: np.ndarray
    group: np.ndarray  # the index of the law's group in groups
    shape_a: np.ndarray  # the Beta shapes; 1 under the other laws
    shape_b: np.ndarray
    groups: list  # each group's law; Beta stands for the stacked group
    forced: bool  # whether any p is positive

    @classmethod
    def of(cls, params_seq: Sequence[AuctionParams], laws: Sequence[Distribution]) -> "_Batch":
        columns = np.array([(x.strike, x.alpha, x.p, x.q) for x in params_seq], dtype=float)
        starts = [i for i, law in enumerate(laws) if i == 0 or law is not laws[i - 1]]
        runs = [laws[i] for i in starts]
        keys = [Beta if type(law) is Beta else law for law in runs]
        groups = list({id(key): key for key in keys}.values())
        number = {id(key): n for n, key in enumerate(groups)}
        values = [(law.mean(), law.support.lo, law.support.hi, number[id(key)],
                   *((law.a, law.b) if key is Beta else (1.0, 1.0))) for law, key in zip(runs, keys)]
        law_columns = np.repeat(values, [b - a for a, b in pairwise([*starts, len(laws)])], axis=0).T
        return cls._of(*columns.T, *law_columns, groups)

    @classmethod
    def one(cls, params: AuctionParams, law: Distribution) -> "_Batch":
        """One element as a row of float64 scalars, whose one group is its own law."""
        support = law.support
        row = np.array([params.strike, params.alpha, params.p, params.q, law.mean(), support.lo, support.hi,
                        0.0, 1.0, 1.0])
        return cls._of(*row, [law])

    @classmethod
    def _of(cls, strike, alpha, p, q, mean, lo, hi, group, shape_a, shape_b, groups) -> "_Batch":
        return cls(strike, alpha, p, 1.0 - alpha, 1.0 - p - q, mean, lo, hi, group, shape_a, shape_b, groups,
                   bool((p > 0.0).any()))

    def read(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``cdf`` and ``partial_expectation`` at ``t[k]`` under the law of row ``k``:
        each group is read once, on its rows."""
        if len(self.groups) == 1:
            return self._read(self.groups[0], t, slice(None))
        F, P = np.empty_like(t), np.empty_like(t)
        for n, law in enumerate(self.groups):
            k = np.flatnonzero(self.group == n)
            if k.size:
                F[k], P[k] = self._read(law, t[k], k)
        return F, P

    def _read(self, law, t: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
        if law is Beta:
            law = Beta._stacked(self.shape_a[k], self.shape_b[k])
        return law.cdf(t), law.partial_expectation(t)


def _threshold(batch: _Batch, b):
    return batch.strike + batch.contingent * b


def _where(condition, yes, no):
    """``np.where`` for float64 scalars: a conditional."""
    return yes if condition else no


def _larger(where, x, y):
    """The larger of ``x`` and ``y``, neither of them NaN, through ``where``."""
    return where(x < y, y, x)


_ZERO, _NAN = np.float64(0.0), np.float64(math.nan)

# Each formula from a batch's set-up to its records takes ``where``: np.where on a
# grid's columns, or _where on a lone solve's row of float64 scalars (not Python
# floats, whose division by zero raises and whose ~True is -2), which so takes a
# grid row's float steps in operators alone.  Every quantity at a bid reads the
# law only through F = cdf(t) and P = partial_expectation(t) at the threshold t;
# _record_columns takes them from the read that ended a search, or reads them once.

def _utility(where, batch: _Batch, b, t, F, P):
    """The winner's utility at bid ``b``, from the reads ``F`` and ``P`` at its threshold
    ``t``; ``where`` chooses the forced term."""
    eu = batch.decides * (P - t * (1.0 - F)) - batch.alpha * b
    if not batch.forced:
        return eu
    forced = batch.p * (batch.mean - batch.strike - batch.contingent * b)
    return where(batch.p > 0.0, eu + forced, eu)


def expected_utility(d: Distribution, params: AuctionParams, b: float) -> float:
    """Winner's expected utility at bid ``b``.

    The upfront part ``alpha * b`` is a sunk cost; the contingent part
    raises the execution threshold to ``K + (1 - alpha) * b``.  Voluntary
    execution contributes the option value above that threshold, forced
    execution contributes ``mean - K - (1 - alpha) * b`` irrespective of
    profitability.
    """
    return solution_at(d, params, b).residual


def revenue(params: AuctionParams, b_star: float, p_exec: float) -> float:
    """Expected auction revenue: upfront part plus contingent part times P(execution)."""
    return params.alpha * b_star + (1.0 - params.alpha) * b_star * p_exec


def _worthless(strike, top, p):
    """Whether no price beats the strike and nothing forces execution, elementwise."""
    return (strike >= top) & (p == 0.0)


def check_execution_right(d: Distribution, params: AuctionParams) -> None:
    """Raise :class:`InvalidParamsError` if no price beats the strike and nothing forces execution."""
    if _worthless(params.strike, d.support.hi, params.p):
        raise InvalidParamsError(
            f"strike {params.strike} is not below the support top {d.support.hi}; "
            "the execution right is worthless"
        )


def _bid_bracket(where, top, strike, alpha):
    """``(top - K) / (1 - alpha)``, or ``top - K`` at ``alpha = 1``, elementwise."""
    with np.errstate(over="ignore"):  # an overflow is refused by the callers
        return (top - strike) / where(alpha < 1.0, 1.0 - alpha, 1.0)


def upper_bid_bracket(d: Distribution, params: AuctionParams) -> float:
    """The upper bid bracket: the bid whose threshold is the support top.

    That is ``(hi - K) / (1 - alpha)``, or ``hi - K`` at ``alpha = 1``.  Raises
    :class:`ConvergenceError` when it overflows: no float bid then reaches
    the support top, and a search from it would return inf.
    """
    upper = float(_bid_bracket(np.where, d.support.hi, params.strike, params.alpha))
    if not math.isfinite(upper):
        raise ConvergenceError(
            f"the upper bid bracket (hi - K) / (1 - alpha) overflows to {upper} for {d!r} "
            f"at strike {params.strike!r} and alpha {params.alpha!r}"
        )
    return upper


def _start(where, batch: _Batch):
    """Each element's set-up: whether it is refused (its execution right is worthless,
    or its upper bid bracket overflows), whether it is eroded (``alpha = 0``, ``p = 0``),
    its first bid, 0 or, where eroded, the bracket ``hi - K``, and the right end of its
    search, twice the bracket."""
    upper = _bid_bracket(where, batch.hi, batch.strike, batch.alpha)
    refused = _worthless(batch.strike, batch.hi, batch.p) | ~(abs(upper) < math.inf)
    eroded = (batch.alpha == 0.0) & (batch.p == 0.0)
    return refused, eroded, where(eroded, upper, _ZERO), 2.0 * upper


def _record_columns(where, batch: _Batch, b, F=None, P=None) -> dict:
    """The fields of the record of bid ``b[i]`` under element ``i``, for every ``i``,
    keyed by field name: b, threshold, p_exec, spread, revenue and utility; arrays
    for a batch, float64 scalars for a row.

    ``F`` and ``P`` are each law's ``cdf`` and ``partial_expectation`` at its elements'
    thresholds, which a solve has from the round that ended each search; where they
    are not given, each law is read here, once, for every field.
    """
    with np.errstate(all="ignore"):  # inf and NaN arise quietly, as in float arithmetic
        t = _threshold(batch, b)
        if F is None:
            F, P = batch.read(t)
        p_exec = batch.p + batch.decides * (1.0 - F)
        num = batch.decides * (P - batch.strike * (1.0 - F))  # E[(S - K) 1{execution}]
        if batch.forced:
            num = where(batch.p > 0.0, num + batch.p * (batch.mean - batch.strike), num)
        return dict(b_star=b, threshold=t, p_exec=p_exec, effective_spread=num / p_exec,
                    revenue=revenue(batch, b, p_exec), residual=_utility(where, batch, b, t, F, P))


def _defined(where, p_exec, spread):
    """``spread``, None where ``p_exec <= 0``: with no execution, E[S - K | execution]
    is undefined."""
    return where(p_exec <= 0.0, None, spread)


def defined_spreads(columns: dict[str, np.ndarray]) -> list:
    """The ``effective_spread`` column as a list, None where ``p_exec <= 0``."""
    return _defined(np.where, columns["p_exec"], columns["effective_spread"]).tolist()


def _records(columns: dict[str, np.ndarray], statuses) -> list[EquilibriumSolution]:
    fields = {key: column.tolist() for key, column in columns.items()}
    fields["effective_spread"] = defined_spreads(columns)
    return [EquilibriumSolution(*row, status) for row, status in zip(zip(*fields.values()), statuses)]


def _record(row: dict, status) -> EquilibriumSolution:
    """The record of a row of float64 scalars, as :func:`_records` makes those of columns."""
    fields = {key: float(value) for key, value in row.items()}
    fields["effective_spread"] = _defined(_where, fields["p_exec"], fields["effective_spread"])
    return EquilibriumSolution(**fields, status=status)


def solution_at(d: Distribution, params: AuctionParams, b: float) -> EquilibriumSolution:
    """The record of the given bid ``b``: threshold, p_exec, spread, revenue and utility.

    The law is read once, at the threshold, for all of them; ``residual`` is
    the winner's expected utility at ``b``, which :func:`expected_utility`
    returns.  ``status`` is None: ``b`` was given, not solved.  It is made on a
    row of float64 scalars, in the formulas that make a grid's columns.
    """
    return _record(_record_columns(_where, _Batch.one(params, d), np.float64(b)), None)


def _newton(where, at: _Batch, x, t, F, P, left, right, newton, last):
    """One Newton round of the searches at bids ``x``, whose thresholds ``t`` read
    ``F`` and ``P``: whether each ends at ``x``, and its next ``x, left, right, newton,
    last``.  U is convex and nonincreasing in b, so the steps rise toward the root
    and, in exact arithmetic, never pass it; rounding in a law's reads can send one
    far off, and a step at or beyond ``right`` bisects ``[left, right]`` instead.  A
    search ends at a Newton point with U <= 0 (or NaN), at a step that does not rise,
    or in the round after ``last``: a bracket collapsed to two adjacent floats reads
    ``right``, its root, in one more round."""
    u = _utility(where, at, x, t, F, P)
    step = x + u / (at.alpha + at.contingent * (at.p + at.decides * (1.0 - F)))  # U'(x) = -(...)
    positive = u > 0.0
    left, right = where(positive, x, left), where(positive, right, x)
    ends = where(positive, ~(step > x), newton) | last
    newton = positive & (step < right)
    mid = left + 0.5 * (right - left)
    collapsed = ~newton & ((mid == left) | (mid == right))
    return ends, where(newton, step, where(collapsed, right, mid)), left, right, newton, collapsed


def _alone(row: _Batch, x, left, right, newton, last):
    """The bid where the search of ``row``, a row of float64 scalars, ends, with ``F``
    and ``P`` there: :func:`_newton` on its state as float64 scalars, reading its law
    on a one-element array once a round, under the caller's ``np.errstate``."""
    while True:
        t = _threshold(row, x)
        F, P = row.read(np.array([t]))
        ends, after, left, right, newton, last = _newton(_where, row, x, t, F[0], P[0], left, right, newton, last)
        if ends:
            return x, F[0], P[0]
        x = after


# a solved element's status, at 2 * eroded + zero_bid
_STATUSES = np.array([SolutionStatus.INTERIOR_ROOT, SolutionStatus.BOUNDARY_ZERO_BID,
                      SolutionStatus.BOUNDARY_FULL_EROSION], dtype=object)


def _outcome(where, batch: _Batch, refused, eroded, b, residual, tol):
    """The residual gate and the status of each element: whether it fails, refused or
    gated by its residual, its price scale, and its status, in an object array for a
    batch or alone for a row."""
    solved = ~(eroded | refused)
    # the search stops at once where utility at b = 0 is already nonpositive
    zero_bid = solved & (b == 0.0) & (residual <= 0.0)
    m = _larger(where, _larger(where, abs(batch.lo), abs(batch.hi)), abs(batch.strike))
    scale = m * _larger(where, 1.0, m / (batch.hi - batch.lo))
    gated = solved & ~zero_bid & ~((abs(b) < math.inf) & (abs(residual) <= tol * scale))  # NaN fails too
    return refused | gated, scale, _STATUSES[2 * eroded + zero_bid]


def _fail(d: Distribution, params: AuctionParams, b, residual, scale, tol: float):
    """Raise what a failing element raises: a refused one from the checks that refused
    it, with their messages, one gated by its residual :class:`ConvergenceError`."""
    check_execution_right(d, params)
    upper_bid_bracket(d, params)
    raise ConvergenceError(
        f"residual {float(residual):.3g} at bid {float(b)!r} for {d!r} at alpha "
        f"{params.alpha!r} exceeds tol {tol!r} at price scale {float(scale):.3g}"
    )


def _solve_row(d: Distribution, params: AuctionParams, tol: float) -> tuple[dict, SolutionStatus]:
    """:func:`solve_columns` of one element, from set-up to record on a row of float64
    scalars: its record's fields keyed by name, and its status."""
    row = _Batch.one(params, d)
    with np.errstate(all="ignore"):  # inf and NaN arise quietly, as in float arithmetic
        refused, eroded, b, right = _start(_where, row)
        F = P = _NAN  # a refused row takes no read
        if not refused:
            b, F, P = _alone(row, b, b, right, np.True_, eroded)  # b = 0 counts as a Newton point
        record = _record_columns(_where, row, b, F, P)
        failing, scale, status = _outcome(_where, row, refused, eroded, b, record["residual"], tol)
    if failing:
        _fail(d, params, b, record["residual"], scale, tol)
    return record, status


def solve_equilibria(
    d: Distribution | Sequence[Distribution], params_seq: Sequence[AuctionParams], tol: float = 1e-12
) -> list[EquilibriumSolution]:
    """:func:`solve_equilibrium` for each element of ``params_seq``: the rows of :func:`solve_columns`."""
    return _records(*solve_columns(d, params_seq, tol))


def solve_columns(
    d: Distribution | Sequence[Distribution], params_seq: Sequence[AuctionParams], tol: float = 1e-12
) -> tuple[dict[str, np.ndarray], list[SolutionStatus]]:
    """:func:`solve_equilibrium` for each element of ``params_seq``, in one lockstep
    search, as columns: each record field but ``status`` as a float64 array keyed
    by its name (``effective_spread`` also where ``p_exec <= 0``, where the record
    holds None), and the statuses.  ``d`` is one law for every element, or a
    sequence with one law per element.  The elements form one table, a row
    each of auction fields and law columns; each Newton round takes the rows
    of the searches still running and reads each law family once, on their
    bids (all Beta laws through one Beta holding each row's shapes, in any
    element order).  A search left running alone, the last of a grid's, takes
    the same steps on a row of float64 scalars that reads only its own law, on
    one-element arrays, and a single element runs on such a row from set-up to
    record, in the same formulas.  Each element takes exactly the float steps a
    search of its own would, so element ``i`` of the result equals
    ``solve_equilibrium(d_i, params_seq[i], tol)``.  No law is read again at
    the roots: each record takes ``cdf`` and ``partial_expectation`` from the
    round that ended its search.  An eroded element (``alpha = 0``, ``p = 0``)
    takes the first round at its bid and ends there, and a bracket collapsed
    to two adjacent floats takes one more round, at its right end.  The
    execution-right check, the upper bracket, the boundary regimes and the
    residual gate are arithmetic over all elements, and each outcome is a
    mask: refused, or gated by the residual.  Python runs per element only to
    build the message of a failure.  When elements fail, the error raised is
    the first failing element's, as a loop over ``params_seq`` would raise it.
    ``sweep --figure2`` solves its 4 laws × 101 alphas in one such call.
    """
    params_seq = list(params_seq)
    each = [d] * len(params_seq) if isinstance(d, Distribution) else list(d)
    if len(each) != len(params_seq):
        raise InvalidParamsError(
            f"expected one law per element: {len(each)} laws for {len(params_seq)} elements")
    check_tol(tol)
    if not params_seq:
        return {field.name: np.empty(0) for field in fields(EquilibriumSolution)[:-1]}, []
    if len(params_seq) == 1:
        record, status = _solve_row(each[0], params_seq[0], tol)
        return {key: np.array([value]) for key, value in record.items()}, [status]
    batch = _Batch.of(params_seq, each)
    with np.errstate(all="ignore"):  # inf and NaN arise quietly, as in float arithmetic
        refused, eroded, b, right = _start(np.where, batch)
        F, P = np.full((2, b.size), np.nan)  # the reads at b; a refused row takes none
        # Newton's method from b = 0; an eroded row takes one round, at its bid, for its reads
        i = np.flatnonzero(~refused)  # the searches still running
        x, left, right = b[i], b[i], right[i]
        newton, last = np.ones(i.size, dtype=bool), eroded[i]  # b = 0 counts as a Newton point
        while i.size > 1:
            at = _Batch(*(column[i] for column in batch[:-2]), batch.groups, batch.forced)
            t = _threshold(at, x)
            read = at.read(t)
            b[i], F[i], P[i] = x, *read  # final where the search ends here, rewritten where it runs on
            ends, x, left, right, newton, last = _newton(np.where, at, x, t, *read, left, right, newton, last)
            keep = ~ends
            i, x, left, right, newton, last = i[keep], x[keep], left[keep], right[keep], newton[keep], last[keep]
        if i.size:  # a lone search steps on scalars, reading only its own law
            k = int(i[0])
            b[k], F[k], P[k] = _alone(_Batch.one(params_seq[k], each[k]), x[0], left[0], right[0], newton[0], last[0])
        columns = _record_columns(np.where, batch, b, F, P)
        failing, scale, statuses = _outcome(np.where, batch, refused, eroded, b, columns["residual"], tol)
    if failing.any():
        k = int(np.argmax(failing))
        _fail(each[k], params_seq[k], b[k], columns["residual"][k], scale[k], tol)
    return columns, statuses.tolist()


def solve_equilibrium(
    d: Distribution, params: AuctionParams, tol: float = 1e-12
) -> EquilibriumSolution:
    """Solve the zero-profit condition for the equilibrium bid.

    Expected utility is convex and nonincreasing in b, with slope
    ``-(alpha + (1 - alpha) (p + (1 - p - q) (1 - F(t))))`` at the threshold
    ``t``, which reads only the CDF that every law read returns.  So Newton's
    steps from b = 0 rise toward the root and, in exact arithmetic, never pass
    it; the search ends where a step does not rise, or where a Newton point's
    utility is nonpositive, in about 6 evaluations of the utility.  A step at
    or beyond twice the initial upper bracket ``(hi - K)/(1 - alpha)`` (where
    the threshold passes the support top and the utility is ``-alpha * b``
    or less) bisects the bracket of the points tried instead, so rounding in
    a law's reads cannot send the search far off.  This is
    :func:`solve_equilibria` of one element, and has its bits, so grids are
    best solved in one call.  It runs on float64 scalars from set-up to record,
    in the formulas that take a grid's columns, and reads the law on
    one-element arrays once a round.  The residual, execution probability,
    revenue and spread take the law's reads from the round that ended the
    search, so the law is not read again at the root.  Two boundary regimes
    bypass the root search:

    * ``alpha = 0`` and ``p = 0``: expected utility is nonnegative for every
      bid and reaches zero only at ``b = hi - K``, where competition has
      eroded all value (execution probability and revenue are both 0).
    * expected utility at b = 0 is already nonpositive (possible when forced
      execution makes winning a liability): the equilibrium bid is 0.

    Args:
        d: reference-price law.
        params: auction parameters; ``strike`` must lie below the support's
            upper end unless ``p > 0``.
        tol: bound on the utility residual at an interior root, relative to
            the price scale ``m * max(1, m / (hi - lo))`` with
            ``m = max(|lo|, |hi|, |K|)``.  Rounding in the utility grows with
            the prices and with how many support widths they sit from zero,
            so an absolute bound would fail wide or far-off supports.

    Raises:
        InvalidParamsError: strike at or above the support top with p = 0,
            or ``tol`` not positive and finite.
        ConvergenceError: the residual at the root found exceeds ``tol``
            times the price scale (the search stops where a step no longer
            moves the bid, so a tiny ``tol`` can be out of reach), or the root or residual is not
            finite; the message names the law and alpha.  Also raised when
            the initial upper bracket overflows (see
            :func:`upper_bid_bracket`).
    """
    check_tol(tol)
    return _record(*_solve_row(d, params, tol))

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
from dataclasses import dataclass, replace
from enum import Enum

from ._bisect import find_crossing
from .distributions import Distribution, check_tol
from .errors import ConvergenceError, InvalidParamsError

__all__ = [
    "AuctionParams",
    "SolutionStatus",
    "EquilibriumSolution",
    "option_value",
    "expected_utility",
    "solve_equilibrium",
    "execution_probability",
    "effective_spread",
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


def _threshold(params: AuctionParams, b: float) -> float:
    return params.strike + (1.0 - params.alpha) * b


# Every quantity at a bid reads the law only through F = cdf(t) and
# P = partial_expectation(t) at the threshold t; solution_at reads them once.

def _utility(d: Distribution, params: AuctionParams, b: float, t: float, F: float, P: float) -> float:
    eu = (1.0 - params.p - params.q) * (P - t * (1.0 - F)) - params.alpha * b
    if params.p > 0.0:
        eu += params.p * (d.mean() - params.strike - (1.0 - params.alpha) * b)
    return eu


def expected_utility(d: Distribution, params: AuctionParams, b: float) -> float:
    """Winner's expected utility at bid ``b``.

    The upfront part ``alpha * b`` is a sunk cost; the contingent part
    raises the execution threshold to ``K + (1 - alpha) * b``.  Voluntary
    execution contributes the option value above that threshold, forced
    execution contributes ``mean - K - (1 - alpha) * b`` irrespective of
    profitability.
    """
    t = _threshold(params, b)
    return _utility(d, params, b, t, d.cdf(t), d.partial_expectation(t))


def execution_probability(d: Distribution, params: AuctionParams, b_star: float) -> float:
    """P(execution) at bid ``b_star``: forced mass plus the voluntary tail."""
    return solution_at(d, params, b_star, None).p_exec


def effective_spread(d: Distribution, params: AuctionParams, b_star: float) -> float | None:
    """E[S - K | execution] at bid ``b_star``; None when P(execution) = 0."""
    return solution_at(d, params, b_star, None).effective_spread


def revenue(params: AuctionParams, b_star: float, p_exec: float) -> float:
    """Expected auction revenue: upfront part plus contingent part times P(execution)."""
    return params.alpha * b_star + (1.0 - params.alpha) * b_star * p_exec


def check_execution_right(d: Distribution, params: AuctionParams) -> None:
    """Raise :class:`InvalidParamsError` if no price beats the strike and nothing forces execution."""
    if params.strike >= d.support.hi and params.p == 0.0:
        raise InvalidParamsError(
            f"strike {params.strike} is not below the support top {d.support.hi}; "
            "the execution right is worthless"
        )


def upper_bid_bracket(d: Distribution, params: AuctionParams) -> float:
    """Initial upper bracket of the bid root finders: the bid whose threshold is the support top.

    That is ``(hi - K) / (1 - alpha)``, or ``hi - K`` at ``alpha = 1``.
    """
    reach = d.support.hi - params.strike
    return reach / (1.0 - params.alpha) if params.alpha < 1.0 else reach


def solution_at(
    d: Distribution, params: AuctionParams, b: float, status: SolutionStatus | None
) -> EquilibriumSolution:
    """The record of bid ``b``: threshold, p_exec, spread, revenue and utility.

    The law is read once, at the threshold, for all of them; ``residual`` is
    the winner's expected utility at ``b`` and equals :func:`expected_utility`
    exactly.  ``status`` says how ``b`` was found: None for a bid that was
    given rather than solved.
    """
    t = _threshold(params, b)
    F, P = d.cdf(t), d.partial_expectation(t)
    decides = 1.0 - params.p - params.q
    p_exec = params.p + decides * (1.0 - F)
    num = decides * (P - params.strike * (1.0 - F))  # E[(S - K) 1{execution}]
    if params.p > 0.0:
        num += params.p * (d.mean() - params.strike)
    return EquilibriumSolution(
        b_star=b,
        threshold=t,
        p_exec=p_exec,
        effective_spread=None if p_exec <= 0.0 else num / p_exec,
        revenue=revenue(params, b, p_exec),
        residual=_utility(d, params, b, t, F, P),
        status=status,
    )


def solve_equilibrium(
    d: Distribution, params: AuctionParams, tol: float = 1e-12
) -> EquilibriumSolution:
    """Solve the zero-profit condition for the equilibrium bid.

    Expected utility is nonincreasing in b, positive at b = 0 (whenever
    winning has value) and eventually negative, so a sign change always
    exists; :func:`find_crossing` narrows that bracket with safeguarded
    Chandrupatla steps (inverse quadratic interpolation or bisection) until
    it is two adjacent floats, in about 10 evaluations of the utility.  The
    initial upper bracket ``(hi - K)/(1 - alpha)`` places the execution
    threshold at the top of the support; it is doubled geometrically if
    needed.  The law is evaluated once more, at the root, for the residual,
    execution probability, revenue and spread.  Two boundary regimes bypass
    the root search:

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
        BracketError: no sign change after the doubling budget (bug signal).
        ConvergenceError: the residual at the root found exceeds ``tol``
            times the price scale (the search stops at adjacent floats, so a
            tiny ``tol`` can be out of reach); the message names the law and
            alpha.
    """
    check_tol(tol)
    check_execution_right(d, params)

    if params.alpha == 0.0 and params.p == 0.0:
        return solution_at(d, params, d.support.hi - params.strike, SolutionStatus.BOUNDARY_FULL_EROSION)

    b_star = find_crossing(lambda b: expected_utility(d, params, b), 0.0, upper_bid_bracket(d, params))
    sol = solution_at(d, params, b_star, SolutionStatus.INTERIOR_ROOT)
    if b_star == 0.0 and sol.residual <= 0.0:
        # find_crossing stops at once where utility at b = 0 is already nonpositive
        return replace(sol, status=SolutionStatus.BOUNDARY_ZERO_BID)
    m = max(abs(d.support.lo), abs(d.support.hi), abs(params.strike))
    scale = m * max(1.0, m / (d.support.hi - d.support.lo))
    if abs(sol.residual) > tol * scale:
        raise ConvergenceError(
            f"residual {sol.residual:.3g} at bid {b_star!r} for {d!r} at alpha {params.alpha!r} "
            f"exceeds tol {tol!r} at price scale {scale:.3g}"
        )
    return sol

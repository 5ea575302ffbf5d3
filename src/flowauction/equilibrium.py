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
from dataclasses import dataclass
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
    """

    b_star: float
    threshold: float
    p_exec: float
    effective_spread: float | None
    revenue: float
    residual: float
    status: SolutionStatus


def option_value(d: Distribution, t: float) -> float:
    """E[max(S - t, 0)] for S ~ d, via the upper partial expectation."""
    return d.partial_expectation(t) - t * (1.0 - d.cdf(t))


def expected_utility(d: Distribution, params: AuctionParams, b: float) -> float:
    """Winner's expected utility at bid ``b``.

    The upfront part ``alpha * b`` is a sunk cost; the contingent part
    raises the execution threshold to ``K + (1 - alpha) * b``.  Voluntary
    execution contributes the option value above that threshold, forced
    execution contributes ``mean - K - (1 - alpha) * b`` irrespective of
    profitability.
    """
    one_minus_alpha = 1.0 - params.alpha
    t = params.strike + one_minus_alpha * b
    eu = (1.0 - params.p - params.q) * option_value(d, t) - params.alpha * b
    if params.p > 0.0:
        eu += params.p * (d.mean() - params.strike - one_minus_alpha * b)
    return eu


def execution_probability(d: Distribution, params: AuctionParams, b_star: float) -> float:
    """P(execution) at bid ``b_star``: forced mass plus the voluntary tail."""
    t = params.strike + (1.0 - params.alpha) * b_star
    return params.p + (1.0 - params.p - params.q) * (1.0 - d.cdf(t))


def effective_spread(d: Distribution, params: AuctionParams, b_star: float) -> float | None:
    """E[S - K | execution] at bid ``b_star``; None when P(execution) = 0."""
    p_exec = execution_probability(d, params, b_star)
    if p_exec <= 0.0:
        return None
    t = params.strike + (1.0 - params.alpha) * b_star
    num = (1.0 - params.p - params.q) * (
        d.partial_expectation(t) - params.strike * (1.0 - d.cdf(t))
    )
    if params.p > 0.0:
        num += params.p * (d.mean() - params.strike)
    return num / p_exec


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


def _finish(d, params, b_star, residual, status) -> EquilibriumSolution:
    p_exec = execution_probability(d, params, b_star)
    return EquilibriumSolution(
        b_star=b_star,
        threshold=params.strike + (1.0 - params.alpha) * b_star,
        p_exec=p_exec,
        effective_spread=effective_spread(d, params, b_star),
        revenue=revenue(params, b_star, p_exec),
        residual=residual,
        status=status,
    )


def solve_equilibrium(
    d: Distribution, params: AuctionParams, tol: float = 1e-12
) -> EquilibriumSolution:
    """Solve the zero-profit condition for the equilibrium bid.

    Uses guaranteed-bracket bisection: expected utility is positive at b = 0
    (whenever winning has value) and eventually negative in b, so a sign
    change always exists.  The initial upper bracket ``(hi - K)/(1 - alpha)``
    places the execution threshold at the top of the support; it is doubled
    geometrically if needed.  Two boundary regimes bypass the root finder:

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
        ConvergenceError: the residual at the bisected root exceeds ``tol``
            times the price scale (bisection stops at adjacent floats, so a
            tiny ``tol`` can be out of reach).
    """
    check_tol(tol)
    check_execution_right(d, params)

    if params.alpha == 0.0 and params.p == 0.0:
        b = d.support.hi - params.strike
        return _finish(d, params, b, expected_utility(d, params, b), SolutionStatus.BOUNDARY_FULL_EROSION)

    eu0 = expected_utility(d, params, 0.0)
    if eu0 <= 0.0:
        return _finish(d, params, 0.0, eu0, SolutionStatus.BOUNDARY_ZERO_BID)

    b_hi = upper_bid_bracket(d, params)
    b_star = find_crossing(lambda b: expected_utility(d, params, b), 0.0, b_hi)
    residual = expected_utility(d, params, b_star)
    m = max(abs(d.support.lo), abs(d.support.hi), abs(params.strike))
    scale = m * max(1.0, m / (d.support.hi - d.support.lo))
    if abs(residual) > tol * scale:
        raise ConvergenceError(
            f"residual {residual:.3g} at bid {b_star!r} exceeds tol {tol!r} at price scale {scale:.3g}"
        )
    return _finish(d, params, b_star, residual, SolutionStatus.INTERIOR_ROOT)

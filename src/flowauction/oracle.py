"""Closed-form reference solutions for the uniform[0,1], K = 1/2 case.

Two closed forms are provided for the equilibrium bid as a function of the
upfront share.  ``uniform_closed_form_bid`` is the corrected derivation:
it solves ``alpha*b = (1/2 - (1-alpha)*b)^2 / 2``, whose smaller quadratic
root is ``1 / (2*(1 + sqrt(alpha))^2)``, and it agrees with the numeric
solver and with both corner cases (0.5 at alpha=0, the option value 1/8 at
alpha=1).  ``published_closed_form_bid`` reproduces the widely circulated
closed form for the same problem, kept verbatim for errata comparison: its
alpha -> 1 limit is 1/4, twice the option value, so it cannot be the
zero-profit bid.  ``build_oracle_reports`` tabulates both against the
numeric solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .distributions import Uniform
from .equilibrium import AuctionParams, check_alpha, solve_equilibria

__all__ = [
    "uniform_closed_form_bid",
    "published_closed_form_bid",
    "uniform_metrics",
    "UniformMetrics",
    "OracleReport",
    "build_oracle_reports",
]


def uniform_closed_form_bid(alpha: float) -> float:
    """Corrected equilibrium bid, ``1 / (2*(1 + sqrt(alpha))^2)``."""
    check_alpha(alpha)
    s = 1.0 + math.sqrt(alpha)
    return 1.0 / (2.0 * s * s)


def published_closed_form_bid(alpha: float) -> float:
    """The published (uncorrected) bid formula, for errata comparison only.

    Printed as ``(1 - sqrt(1 - (1-alpha)^2)) / (2*(1-alpha)^2)``; evaluated
    here through the cancellation-free equivalent
    ``1 / (2*(1 + sqrt(1 - (1-alpha)^2)))`` so that the alpha -> 1 limit
    (exactly 1/4) comes out without loss of precision.
    """
    check_alpha(alpha)
    u = 1.0 - alpha
    return 1.0 / (2.0 * (1.0 + math.sqrt(1.0 - u * u)))


class UniformMetrics(NamedTuple):
    p_exec: float
    revenue: float
    effective_spread: float | None


def uniform_metrics(alpha: float) -> UniformMetrics:
    """Execution probability, revenue, and spread at the corrected bid.

    With ``c = (1 - alpha) * b*``: p_exec = 1/2 - c and the spread is
    1/4 + c/2 (undefined at alpha = 0 where nothing ever executes).
    """
    b = uniform_closed_form_bid(alpha)  # checks alpha
    c = (1.0 - alpha) * b
    p_exec = 0.5 - c
    spread = None if p_exec <= 0.0 else 0.25 + 0.5 * c
    rev = alpha * b + (1.0 - alpha) * b * p_exec
    return UniformMetrics(p_exec, rev, spread)


@dataclass(frozen=True)
class OracleReport:
    """One alpha row of the corrected/published/numeric bid comparison."""

    alpha: float
    corrected_bid: float
    published_bid: float
    numeric_bid: float
    corrected_minus_numeric: float
    published_minus_numeric: float


def build_oracle_reports(alphas, tol: float = 1e-12) -> list[OracleReport]:
    """Tabulate both closed forms against the numeric solver on ``alphas``."""
    alphas = [float(alpha) for alpha in alphas]
    grid = [AuctionParams(strike=0.5, alpha=alpha) for alpha in alphas]
    reports = []
    for alpha, sol in zip(alphas, solve_equilibria(Uniform(0.0, 1.0), grid, tol)):
        corrected = uniform_closed_form_bid(alpha)
        published = published_closed_form_bid(alpha)
        numeric = sol.b_star
        reports.append(
            OracleReport(
                alpha=alpha,
                corrected_bid=corrected,
                published_bid=published,
                numeric_bid=numeric,
                corrected_minus_numeric=corrected - numeric,
                published_minus_numeric=published - numeric,
            )
        )
    return reports

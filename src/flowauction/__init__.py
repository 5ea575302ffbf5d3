"""Competitive-equilibrium analysis of order flow auctions with mixed
upfront/contingent fees: distributions, zero-profit equilibrium solving,
closed-form oracles for the uniform case, and seeded Monte Carlo validation.
"""

from .distributions import (
    Beta,
    Distribution,
    DistributionSpec,
    QuadratureDistribution,
    SupportInterval,
    Uniform,
    regularized_incomplete_beta,
)
from .equilibrium import (
    AuctionParams,
    EquilibriumSolution,
    SolutionStatus,
    effective_spread,
    execution_probability,
    expected_utility,
    option_value,
    revenue,
    solve_equilibrium,
)
from .errors import AuctionError, BracketError, ConvergenceError, InvalidParamsError
from .oracle import (
    OracleReport,
    UniformMetrics,
    build_oracle_reports,
    published_closed_form_bid,
    uniform_closed_form_bid,
    uniform_metrics,
)
from .simulate import SimConfig, SimResult, calibrate_zero_profit_bid, simulate_auction

__version__ = "0.1.0"

__all__ = [
    "AuctionError",
    "AuctionParams",
    "Beta",
    "BracketError",
    "ConvergenceError",
    "Distribution",
    "DistributionSpec",
    "EquilibriumSolution",
    "InvalidParamsError",
    "OracleReport",
    "QuadratureDistribution",
    "SimConfig",
    "SimResult",
    "SolutionStatus",
    "SupportInterval",
    "Uniform",
    "UniformMetrics",
    "build_oracle_reports",
    "calibrate_zero_profit_bid",
    "effective_spread",
    "execution_probability",
    "expected_utility",
    "option_value",
    "published_closed_form_bid",
    "regularized_incomplete_beta",
    "revenue",
    "simulate_auction",
    "solve_equilibrium",
    "uniform_closed_form_bid",
    "uniform_metrics",
]

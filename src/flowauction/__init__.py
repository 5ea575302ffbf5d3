"""Competitive-equilibrium analysis of order flow auctions with mixed
upfront/contingent fees: distributions, zero-profit equilibrium solving,
closed-form oracles for the uniform case, and seeded Monte Carlo validation.
"""

from . import distributions, equilibrium, errors, oracle, simulate
from .distributions import *  # noqa: F403
from .equilibrium import *  # noqa: F403
from .errors import *  # noqa: F403
from .oracle import *  # noqa: F403
from .simulate import *  # noqa: F403

__version__ = "0.1.0"

# each submodule's __all__ declares its public names; the package re-exports them all
__all__ = sorted(name for module in (distributions, equilibrium, errors, oracle, simulate)
                 for name in module.__all__)

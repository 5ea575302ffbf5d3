"""Semantic exceptions shared across the package."""

__all__ = ["AuctionError", "InvalidParamsError", "ConvergenceError"]


class AuctionError(Exception):
    """Base class for all flowauction errors."""


class InvalidParamsError(AuctionError, ValueError):
    """Inputs violate a documented contract (domain, shape, or consistency)."""


class ConvergenceError(AuctionError, ArithmeticError):
    """A tolerance was not met: the solver's residual exceeds ``tol`` at the
    root it found, or a quadrature law's error estimate cannot reach it; or a
    result left the float range: a bid bracket or a sum of trial gains
    overflowed."""

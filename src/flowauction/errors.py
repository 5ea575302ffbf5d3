"""Semantic exceptions shared across the package."""

__all__ = ["AuctionError", "InvalidParamsError", "BracketError", "ConvergenceError"]


class AuctionError(Exception):
    """Base class for all flowauction errors."""


class InvalidParamsError(AuctionError, ValueError):
    """Inputs violate a documented contract (domain, shape, or consistency)."""


class BracketError(AuctionError, RuntimeError):
    """A sign-change bracket could not be established; indicates a bug or
    an input outside the model's premises rather than a user mistake."""


class ConvergenceError(AuctionError, ArithmeticError):
    """A tolerance was not met: the solver's residual exceeds ``tol`` at the
    root it found, or a quadrature law's error estimate cannot reach it."""

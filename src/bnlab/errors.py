"""Exception types shared across the package."""

__all__ = [
    "BnlabError",
    "DomainError",
    "SingularityError",
    "IntegrationFailureError",
    "UnreachableEpsError",
    "FitFailureError",
]


class BnlabError(Exception):
    """Base class for all package errors."""


class DomainError(BnlabError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class SingularityError(DomainError):
    """Evaluation requested exactly at a singular point."""


class IntegrationFailureError(BnlabError, RuntimeError):
    """The ODE integrator failed (step-size underflow or solver abort)."""


class UnreachableEpsError(BnlabError, RuntimeError):
    """No shooting parameter reproduces the requested epsilon."""


class FitFailureError(BnlabError, RuntimeError):
    """A root solve or least-squares fit did not converge."""

"""Exception and warning types shared across the package."""

__all__ = [
    "DimerDiscordError", "DomainError", "InconsistencyError", "NoSolutionError",
    "BracketError", "ConvergenceError", "DataError", "PropagationWarning", "DataWarning",
]


class DimerDiscordError(Exception):
    """Base class for every error raised by this package."""


class DomainError(DimerDiscordError, ValueError):
    """An input lies outside the physically or mathematically valid domain."""


class InconsistencyError(DimerDiscordError, ValueError):
    """Measured data imply an unphysical state (wrong units, bad normalization, ...)."""


class NoSolutionError(DimerDiscordError, ValueError):
    """A requested inversion has no solution on the chosen branch."""


class BracketError(DimerDiscordError, ValueError):
    """An interval handed to a root/crossing finder does not isolate a sign change."""


class ConvergenceError(DimerDiscordError, RuntimeError):
    """An iterative routine exhausted its iteration budget before reaching tolerance."""


class DataError(DimerDiscordError, ValueError):
    """A measurement file or series is malformed."""


class PropagationWarning(UserWarning):
    """Uncertainty propagation had to fall back to a one-sided difference."""


class DataWarning(UserWarning):
    """Input data needed a repair (clamped values, missing tail, ...) before use."""

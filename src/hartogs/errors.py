"""Exception types shared across the toolkit."""

__all__ = [
    "HartogsError",
    "DomainError",
    "ProfileError",
    "StepError",
    "SingularCoefficientError",
    "NumericError",
    "ConfigError",
]


class HartogsError(Exception):
    """Base class for all toolkit errors."""


class DomainError(HartogsError):
    """Point or abscissa lies outside the domain of validity."""


class ProfileError(HartogsError):
    """Profile data is invalid (non-positive values, bad table, ...)."""


class StepError(HartogsError):
    """Finite-difference stencil is unusable (non-positive or leaves the domain)."""


class SingularCoefficientError(HartogsError):
    """A denominator coefficient vanished (degenerate metric)."""


class NumericError(HartogsError):
    """A numerical subroutine failed to reach its accuracy contract."""


class ConfigError(HartogsError):
    """Run configuration is malformed or inconsistent."""

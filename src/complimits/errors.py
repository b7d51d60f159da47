"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: configuration problems exit with 2,
budget exhaustion with 3, and numeric-validity failures with 4.
"""


class CompLimitsError(Exception):
    """Base class for all library errors."""


class DistributionError(CompLimitsError):
    """Invalid probability distribution (negative mass, bad normalization, ...)."""


class StructuralError(CompLimitsError):
    """Markov chain lacks the structure an operation requires (e.g. reducible)."""


class BudgetExceededError(CompLimitsError):
    """An exact computation would exceed the configured size budget."""

    def __init__(self, message: str, *, suggestion: str | None = None):
        super().__init__(message)
        self.suggestion = suggestion


class UnsupportedSpectrumError(CompLimitsError):
    """Operation needs an exact spectrum but received a Monte-Carlo one."""


class ConvergenceError(CompLimitsError):
    """Iterative computation failed to converge."""


class ConfigurationError(CompLimitsError):
    """Missing or inconsistent configuration (e.g. a bad command-line option)."""

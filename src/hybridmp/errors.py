"""Exception hierarchy shared across the package."""


class HybridMPError(Exception):
    """Base class for all package errors."""


class ConfigError(HybridMPError):
    """Invalid configuration: bad grid, malformed spec, unknown suite, ..."""


class DomainError(HybridMPError):
    """A coefficient was evaluated outside its admissible domain
    (typically a volatility below the configured floor)."""


class NumericalError(HybridMPError):
    """Runtime numerical breakdown: state blow-up, filter degeneracy,
    Riccati blow-up, vanishing likelihood."""


class RegressionError(HybridMPError):
    """Least-squares design matrix unusable: non-finite entries, or
    nothing left after the rank rule truncates collinear directions."""


class WorkerError(HybridMPError):
    """A worker process of a block pool died before its block returned."""


class NonConvergence(HybridMPError):
    """Iterative solver exhausted its iteration budget.

    Carries the best iterate so callers can inspect diagnostics.
    """

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution

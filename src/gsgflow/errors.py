"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class GeometryError(ValueError):
    """Annulus geometry is invalid or inconsistent with precomputed data."""


class ContractError(ValueError):
    """A named convenience routine was called outside its stated contract."""


class ConfigError(ValueError):
    """A configuration file or option set could not be validated."""


class NonConvergenceError(RuntimeError):
    """A series failed to converge to a trustworthy value.

    Carries the number of terms consumed (see SeriesControls.max_terms) and
    the partial sum: the materialized sum of every term consumed before the
    refusal, +-inf beyond the double range, and 0.0 when the series was
    refused before summing. Callers can report or fall back instead of
    silently using a wrong number.
    """

    def __init__(self, message, partial_sum=0.0, terms_used=0):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.terms_used = terms_used


class RootScanError(RuntimeError):
    """The bracketing scan failed to locate an expected eigenvalue."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class ModeEvaluationError(RuntimeError):
    """A per-mode time kernel could not be evaluated.

    Names the offending mode (1-based) and the evaluation strategy so grid
    drivers can surface actionable diagnostics.
    """

    def __init__(self, message, mode, strategy):
        super().__init__(message)
        self.mode = mode
        self.strategy = strategy

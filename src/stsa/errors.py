"""Exception hierarchy shared by all stsa modules.

The CLI maps these onto exit codes: configuration-class errors -> 2,
NumericalError -> 3, FormatError -> 4, any MemoryError -> 5.
"""


class StsaError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(StsaError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(StsaError):
    """A label or scalar value falls outside its allowed domain."""


class ConfigurationError(StsaError):
    """An experiment configuration is invalid or inconsistent."""


class ProtocolError(StsaError):
    """Uploaded payloads violate the client/server aggregation protocol."""


class EstimationError(StsaError):
    """The gram-matrix estimator cannot be evaluated for some class."""


class NumericalError(StsaError):
    """A numerical procedure failed (factorization, residual check)."""

    def __init__(self, message: str, attempted_gammas: tuple = ()):
        super().__init__(message)
        self.attempted_gammas = tuple(attempted_gammas)


class FormatError(StsaError):
    """A feature file is malformed or truncated."""


class OutOfMemoryError(StsaError, MemoryError):
    """An allocation failed in a run's stage loop or in its scoring.

    The message names the stage, or the task being scored. It is also a
    MemoryError, so one handler covers it and an allocation that fails
    elsewhere, which is left a plain MemoryError.
    """

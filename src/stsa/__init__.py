"""Federated class-incremental learning via spatial-temporal statistics
aggregation: seeded random feature mapping, closed-form ridge classifiers,
exact spatial/temporal statistics aggregation and its communication-efficient
estimated-gram variant.

The package root holds the entry points: a config, the three runner entry
points and their reports, and the error types. Every other name is imported
from its module (``stsa.core``, ``stsa.data``, ``stsa.server``, ...).
"""

from .config import ExperimentConfig, load_config, parse_config
from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    EstimationError,
    FormatError,
    NumericalError,
    OutOfMemoryError,
    ProtocolError,
    StsaError,
)
from .runner import (
    EstimatorStudy,
    ExperimentReport,
    OracleReport,
    run_estimator_study,
    run_experiment,
    run_oracle,
)

__all__ = [
    "ConfigurationError",
    "DimensionError",
    "DomainError",
    "EstimationError",
    "EstimatorStudy",
    "ExperimentConfig",
    "ExperimentReport",
    "FormatError",
    "NumericalError",
    "OracleReport",
    "OutOfMemoryError",
    "ProtocolError",
    "StsaError",
    "load_config",
    "parse_config",
    "run_estimator_study",
    "run_experiment",
    "run_oracle",
]

__version__ = "0.1.0"

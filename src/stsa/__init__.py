"""Federated class-incremental learning via spatial-temporal statistics
aggregation: seeded random feature mapping, closed-form ridge classifiers,
exact spatial/temporal statistics aggregation and its communication-efficient
estimated-gram variant."""

from .client import ClientShard, UploadPayload, add_noise, extract_payload
from .config import PRESETS, ExperimentConfig, load_config, parse_config
from .core import (
    ClassifierWeights,
    RandomMap,
    SpatialStatistics,
    apply_map,
    local_statistics,
    make_random_map,
    predict,
    ridge_solve,
)
from .data import (
    FeatureDataset,
    SynthSpec,
    TaskSchedule,
    dirichlet_partition,
    generate_synthetic,
    load_features,
    random_synth_spec,
    save_features,
    split_tasks,
)
from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    EstimationError,
    FormatError,
    NumericalError,
    ProtocolError,
    StsaError,
)
from .metrics import (
    AccuracyMatrix,
    CommLedger,
    avg_incremental_accuracy,
    average_forgetting,
    comm_bytes,
    final_average_accuracy,
)
from .prng import ChaChaStream, derive_seed
from .runner import (
    EstimatorStudy,
    ExperimentReport,
    StageOracleDelta,
    centralized_oracle,
    run_estimator_study,
    run_experiment,
)
from .server import (
    StageAggregate,
    TemporalState,
    estimate_gram,
    spatial_aggregate,
    temporal_aggregate,
    update_classifier,
)

__all__ = [
    "AccuracyMatrix",
    "ChaChaStream",
    "ClassifierWeights",
    "ClientShard",
    "CommLedger",
    "ConfigurationError",
    "DimensionError",
    "DomainError",
    "EstimationError",
    "EstimatorStudy",
    "ExperimentConfig",
    "ExperimentReport",
    "FeatureDataset",
    "FormatError",
    "NumericalError",
    "PRESETS",
    "ProtocolError",
    "RandomMap",
    "SpatialStatistics",
    "StageAggregate",
    "StageOracleDelta",
    "StsaError",
    "SynthSpec",
    "TaskSchedule",
    "TemporalState",
    "UploadPayload",
    "add_noise",
    "apply_map",
    "avg_incremental_accuracy",
    "average_forgetting",
    "centralized_oracle",
    "comm_bytes",
    "derive_seed",
    "dirichlet_partition",
    "estimate_gram",
    "extract_payload",
    "final_average_accuracy",
    "generate_synthetic",
    "load_config",
    "load_features",
    "local_statistics",
    "make_random_map",
    "parse_config",
    "predict",
    "random_synth_spec",
    "ridge_solve",
    "run_estimator_study",
    "run_experiment",
    "save_features",
    "spatial_aggregate",
    "split_tasks",
    "temporal_aggregate",
    "update_classifier",
]

__version__ = "0.1.0"

"""Random matrices and matroids over finite fields.

Exact linear algebra over F_q, the growing column process M[A_m] with
hitting-time trackers, projective-geometry sampling models, closed-form
predictors for the process's phase transitions, and a reproducible
Monte-Carlo harness comparing the two.
"""

from .errors import (
    BudgetExceeded,
    ConfigError,
    ConsistencyError,
    FqError,
    InvalidParam,
    IoError,
    LoopPresent,
    NotPrimePower,
    TooLarge,
)
from .fqlinalg import (
    FieldSpec,
    FqMatrix,
    RrefState,
    SubspaceHandle,
    enumerate_subspaces,
    make_field,
    projective_points,
    random_uniform_matrix,
)
from .matroid import INFINITY, RepMatroid, pg_matrix, uniform_matroid_matrix
from .process import ProcessState, process_rng, sample_pg_model
from .montecarlo import (
    Aggregate,
    ComparisonReport,
    ExperimentConfig,
    PRESETS,
    emit,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "ConfigError", "ConsistencyError", "FqError",
    "InvalidParam", "IoError", "LoopPresent", "NotPrimePower", "TooLarge",
    "FieldSpec", "FqMatrix", "RrefState", "SubspaceHandle",
    "enumerate_subspaces", "make_field", "projective_points",
    "random_uniform_matrix",
    "INFINITY", "RepMatroid", "pg_matrix", "uniform_matroid_matrix",
    "ProcessState", "process_rng", "sample_pg_model",
    "Aggregate", "ComparisonReport", "ExperimentConfig", "PRESETS",
    "emit", "run_experiment",
    "__version__",
]

"""Desk-scale federated learning simulator with credibility-weighted aggregation.

What this package exports follows one rule: a name is public if the CLI,
``perfbench/``, ``scripts/`` or the README uses it, or if a public callable
takes it, returns it or raises it.  Every other name stays in its own module,
and README "Library" names every public one.
"""

from .data import (
    Dataset,
    NoiseSpec,
    PartitionPlan,
    inject_noise,
    load_binary,
    load_csv,
    partition,
    save_binary,
    save_csv,
    synth_blobs,
)
from .errors import (
    ConfigurationError,
    DegenerateCredibilityError,
    FocusFlError,
    InvalidInputError,
    RoundError,
    TrainingDivergenceError,
)
from .federation import (
    ClientState,
    CredReport,
    MessageRecord,
    ServerState,
    aggregate,
    aggregation_weights,
    credibilities,
    fedavg_round,
    focus_round,
    load_model,
    model_test,
)
from .harness import (
    ComparisonReport,
    ExperimentConfig,
    RoundMetrics,
    RunResult,
    build_scenario,
    compare,
    run,
    run_many,
)
from .learner import (
    ArchSpec,
    ModelParams,
    SgdConfig,
    accuracy,
    client_update,
    loss_and_grad,
    predict_proba,
)

__version__ = "0.1.0"

__all__ = [
    "ArchSpec",
    "ClientState",
    "ComparisonReport",
    "ConfigurationError",
    "CredReport",
    "Dataset",
    "DegenerateCredibilityError",
    "ExperimentConfig",
    "FocusFlError",
    "InvalidInputError",
    "MessageRecord",
    "ModelParams",
    "NoiseSpec",
    "PartitionPlan",
    "RoundError",
    "RoundMetrics",
    "RunResult",
    "ServerState",
    "SgdConfig",
    "TrainingDivergenceError",
    "accuracy",
    "aggregate",
    "aggregation_weights",
    "build_scenario",
    "client_update",
    "compare",
    "credibilities",
    "fedavg_round",
    "focus_round",
    "inject_noise",
    "load_binary",
    "load_csv",
    "load_model",
    "loss_and_grad",
    "model_test",
    "partition",
    "predict_proba",
    "run",
    "run_many",
    "save_binary",
    "save_csv",
    "synth_blobs",
]

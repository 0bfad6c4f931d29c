"""Task-affinity scores for multi-task learning, plus the lab to test them."""

__version__ = "0.1.0"

from .evaluation import (
    CostModel,
    EvaluationReport,
    evaluate,
    mtl_gain,
    score_cost,
    score_cost_expression,
)
from .experiment import ExperimentConfig, ExperimentError, SeedResult, run_experiment
from .grouping import (
    Grouping,
    InfeasibleGroupingError,
    aggregate_performance,
    is_valid_grouping,
    optimize_grouping,
)
from .scores import (
    SCORE_KINDS,
    DegenerateScoreError,
    assemble_matrix,
    gradient_similarity,
    gradient_transference,
    input_attribution_similarity,
    label_injection,
    rsa,
)
from .tasks import (
    TaskSpec,
    TaskSuite,
    generate_latent_factor_suite,
    load_dataset,
    load_taxonomy_distances,
    save_dataset,
)

__all__ = [
    "__version__",
    "CostModel",
    "DegenerateScoreError",
    "EvaluationReport",
    "ExperimentConfig",
    "ExperimentError",
    "Grouping",
    "InfeasibleGroupingError",
    "SCORE_KINDS",
    "SeedResult",
    "TaskSpec",
    "TaskSuite",
    "aggregate_performance",
    "assemble_matrix",
    "evaluate",
    "generate_latent_factor_suite",
    "gradient_similarity",
    "gradient_transference",
    "input_attribution_similarity",
    "is_valid_grouping",
    "label_injection",
    "load_dataset",
    "load_taxonomy_distances",
    "mtl_gain",
    "optimize_grouping",
    "rsa",
    "run_experiment",
    "save_dataset",
    "score_cost",
    "score_cost_expression",
]

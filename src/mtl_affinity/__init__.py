"""Task-affinity scores for multi-task learning, plus the lab to test them.

Package-level names import their submodule on first use, so importing the
package, or one submodule such as ``paper_data``, loads no training code.
"""

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {
    "SCORE_KINDS": "evaluation",
    "CostModel": "evaluation",
    "EvaluationReport": "evaluation",
    "assemble_matrix": "evaluation",
    "evaluate": "evaluation",
    "mtl_gain": "evaluation",
    "score_cost": "evaluation",
    "score_cost_expression": "evaluation",
    "ExperimentConfig": "experiment",
    "ExperimentError": "experiment",
    "SeedResult": "experiment",
    "run_experiment": "experiment",
    "Grouping": "grouping",
    "InfeasibleGroupingError": "grouping",
    "aggregate_performance": "grouping",
    "is_valid_grouping": "grouping",
    "optimize_grouping": "grouping",
    "gradient_similarity": "scores",
    "gradient_transference": "scores",
    "input_attribution_similarity": "scores",
    "label_injection": "scores",
    "rsa": "scores",
    "DegenerateInputError": "stats",
    "TaskSpec": "tasks",
    "TaskSuite": "tasks",
    "generate_latent_factor_suite": "tasks",
    "load_dataset": "tasks",
    "load_taxonomy_distances": "tasks",
    "save_dataset": "tasks",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    """Import an exported name's submodule on first use (PEP 562)."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module
    value = getattr(import_module(f".{module_name}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})

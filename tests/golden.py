"""The golden numeric fixture: one small run whose numbers are pinned in git.

``tests/data/golden.json`` holds the gain matrix, every score matrix and
the level-1..3 values of one seed of ``golden_config``. ``test_golden.py``
reruns that config and compares; ``scripts/make_golden.py`` rewrites the
file. Shared by both so they cannot disagree on the layout.
"""

from __future__ import annotations

import math
from pathlib import Path

from mtl_affinity.experiment import ExperimentConfig, SeedResult
from mtl_affinity.matrices import TaskMatrix

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden.json"
# The same tolerance perfbench applies to its stored reference values.
ABS_TOL = 1e-6
REL_TOL = 1e-6


def golden_config(out_dir: str) -> ExperimentConfig:
    return ExperimentConfig(n_tasks=3, epochs=3, n_examples=600,
                            scores=("IAS", "RSA", "LI", "GS", "GT"),
                            seeds=(0,), out_dir=out_dir)


def _rows(matrix: TaskMatrix) -> list[list[float | None]]:
    return [[None if math.isnan(v) else v for v in row] for row in matrix.as_array()]


def golden_values(result: SeedResult) -> dict:
    """Tasks, gain and score matrices, and every level value, JSON-ready."""
    levels = {}
    for kind, report in result.reports.items():
        levels[kind] = {
            "level1": {"per_target": dict(report.level1.per_target),
                       "pooled": report.level1.summary},
            "level2": {"per_target": dict(report.level2.per_target),
                       "mean": report.level2.summary},
            "level3": {t: {"selected": s.selected, "tied": list(s.tied),
                           "true_best": s.true_best, "delta": s.delta,
                           "delta_tied_mean": s.delta_tied_mean}
                       for t, s in report.level3.items()},
        }
    return {
        "tasks": list(result.gain.tasks),
        "gain": _rows(result.gain),
        "scores": {kind: _rows(m) for kind, m in result.affinities.items()},
        "levels": levels,
    }

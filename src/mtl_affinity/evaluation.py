"""Ground-truth MTL gain and the three-level score evaluation protocol.

A score matrix is judged against the measured gain matrix at three levels
of increasing coarseness, always per target column:

1. predictive: Pearson correlation between score and gain over the n-1
   partners, plus one pooled correlation over all n(n-1) ordered pairs;
2. ranking: Kendall tau-b per target, plus the arithmetic mean across
   targets;
3. best partner: does the score's argmax partner match the gain's? The
   report carries the gain difference (always <= 0) and explicit tie info.

Correlations are invariant to the gain unit; level-3 deltas are expressed
in whatever unit the gain matrix uses. An undefined correlation (a constant
column) raises DegenerateInputError naming the level and the target. The
module also hosts the score-kind table with :func:`assemble_matrix`, and the
model-family table from which the cost model prices each score; importing
it loads neither numpy nor training code.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, Mapping, NamedTuple, Sequence

from .matrices import TaskMatrix, integer, real, write_table
from .stats import DegenerateInputError, kendall_tau, pearson

__all__ = [
    "mtl_gain",
    "Correlations",
    "Level3Selection",
    "EvaluationReport",
    "level1_predictive",
    "level2_ranking",
    "level3_best_partner",
    "evaluate",
    "SCORE_KINDS",
    "ScoreKind",
    "lookup_kind",
    "MatrixAssemblyError",
    "assemble_matrix",
    "CostModel",
    "MODEL_FAMILIES",
    "score_cost",
    "score_cost_expression",
    "level1_csv",
    "level2_csv",
    "level3_csv",
]

def mtl_gain(loss_stl_a: float, loss_mtl_a: float) -> float:
    """Relative gain of joint training for one target task.

    (loss_stl - loss_mtl) / loss_mtl, where loss_mtl is the target's own
    test loss inside the pair model; the partner's loss does not enter.

    Raises:
        ValueError: either loss is <= 0.
    """
    if loss_stl_a <= 0.0 or loss_mtl_a <= 0.0:
        raise ValueError(f"gain needs positive losses, got stl={loss_stl_a}, "
                         f"mtl={loss_mtl_a}")
    return (loss_stl_a - loss_mtl_a) / loss_mtl_a


def _check_aligned(gain: TaskMatrix, score: TaskMatrix) -> tuple[str, ...]:
    if tuple(gain.tasks) != tuple(score.tasks):
        raise ValueError(f"matrices cover different task sets: "
                         f"{list(gain.tasks)} vs {list(score.tasks)}")
    for label, m in (("gain", gain), ("score", score)):
        if not m.is_complete():
            raise ValueError(f"{label} matrix is incomplete; missing {m.missing_cells()}")
    return gain.tasks


@dataclass(frozen=True)
class Correlations:
    """Level 1 or 2: a correlation per target, plus one summary value.

    Level 1 holds Pearson values and the Pearson over all pairs pooled;
    level 2 holds Kendall tau-b values and their mean.
    """

    per_target: Mapping[str, float]
    summary: float


@dataclass(frozen=True)
class Level3Selection:
    """Best-partner pick for one target.

    selected breaks score ties lexicographically by task name; tied lists
    every argmax partner in canonical task order. delta compares the
    selected partner's gain with the best achievable; delta_tied_mean
    averages the gain over the whole tied set instead. Both are <= 0.
    """

    target: str
    selected: str
    tied: tuple[str, ...]
    true_best: str
    delta: float
    delta_tied_mean: float

    @property
    def tie(self) -> bool:
        return len(self.tied) > 1


@dataclass(frozen=True)
class EvaluationReport:
    """All three levels for one score matrix against one gain matrix."""

    tasks: tuple[str, ...]
    level1: Correlations
    level2: Correlations
    level3: Mapping[str, Level3Selection]   # target -> its best-partner pick


def _columns(gain: TaskMatrix, score: TaskMatrix, target: str) -> tuple[list, list]:
    g = [v for _, v in gain.column(target)]
    s = [v for _, v in score.column(target)]
    return s, g


def _per_target(level: int, statistic, gain: TaskMatrix, score: TaskMatrix) -> dict:
    """``statistic(score column, gain column)`` for each target.

    An undefined value raises DegenerateInputError naming the level and target.
    """
    out = {}
    for t in _check_aligned(gain, score):
        try:
            out[t] = statistic(*_columns(gain, score, t))
        except DegenerateInputError as exc:
            raise DegenerateInputError(f"level {level}, target {t!r}: {exc}") from None
    return out


def level1_predictive(gain: TaskMatrix, score: TaskMatrix) -> Correlations:
    """Pearson between score and gain per target, plus all pairs pooled.

    Needs at least 3 tasks (two partner values per column). Every column
    varies once the per-target values exist, so the pooled value does too.
    """
    per = _per_target(1, pearson, gain, score)
    tasks = gain.tasks
    pool_s = [score.get(w, t) for t in tasks for w in tasks if w != t]
    pool_g = [gain.get(w, t) for t in tasks for w in tasks if w != t]
    return Correlations(per, pearson(pool_s, pool_g))


def level2_ranking(gain: TaskMatrix, score: TaskMatrix) -> Correlations:
    """Kendall tau-b of partner rankings per target, plus the mean."""
    per = _per_target(2, kendall_tau, gain, score)
    return Correlations(per, sum(per.values()) / len(per))


def level3_best_partner(gain: TaskMatrix, score: TaskMatrix) -> dict[str, Level3Selection]:
    """Pick each target's best partner by score and compare with the truth."""
    tasks = _check_aligned(gain, score)
    out = {}
    for t in tasks:
        col = score.column(t)
        top = max(v for _, v in col)
        tied = tuple(p for p, v in col if v == top)
        selected = min(tied)
        gain_col = gain.column(t)
        best_gain = max(v for _, v in gain_col)
        true_best = min(p for p, v in gain_col if v == best_gain)
        tied_mean = sum(gain.get(p, t) for p in tied) / len(tied)
        out[t] = Level3Selection(
            target=t, selected=selected, tied=tied, true_best=true_best,
            delta=gain.get(selected, t) - best_gain,
            delta_tied_mean=tied_mean - best_gain)
    return out


def evaluate(gain: TaskMatrix, score: TaskMatrix) -> EvaluationReport:
    """Run all three levels and bundle the results."""
    return EvaluationReport(
        tasks=tuple(gain.tasks),
        level1=level1_predictive(gain, score),
        level2=level2_ranking(gain, score),
        level3=level3_best_partner(gain, score),
    )


# --- score kinds and the cost model ---


class ScoreKind(NamedTuple):
    """How a score kind fills its matrix and which models it trains."""
    symmetric: bool
    families: tuple[str, ...]              # keys of MODEL_FAMILIES


# The one table of score kinds. A score's training cost is the sum of its
# families' terms (score_cost); TD reads a file and trains nothing.
SCORE_KINDS: dict[str, ScoreKind] = {
    "TD": ScoreKind(True, ()),
    "IAS": ScoreKind(True, ("stl",)),
    "RSA": ScoreKind(True, ("stl",)),
    "LI": ScoreKind(False, ("stl", "inj")),
    "GS": ScoreKind(True, ("mtl",)),
    "GT": ScoreKind(False, ("mtl",)),
}


def lookup_kind(kind: str) -> ScoreKind:
    """The ``SCORE_KINDS`` row of ``kind``; ValueError if no such kind (the one check)."""
    try:
        return SCORE_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown score kind {kind!r}; "
                         f"expected one of {sorted(SCORE_KINDS)}") from None


class MatrixAssemblyError(ValueError):
    """Supplied per-pair values cannot fill a complete, consistent matrix."""


def assemble_matrix(score_kind: str, tasks: Sequence[str],
                    values: Mapping[tuple[str, str], float]) -> TaskMatrix:
    """Fill a complete score matrix from per-pair scores.

    The one place that applies a kind's symmetry (``SCORE_KINDS``). Keys
    are (with_task, target). Symmetric kinds may supply either or both
    directions of a pair (they must agree) and get both cells; asymmetric
    kinds must supply every ordered pair.

    Raises:
        ValueError: ``score_kind`` is not a known score kind.
        MatrixAssemblyError: a pair is missing, a symmetric pair disagrees,
            or a key names an unknown task or a diagonal cell.
    """
    symmetric = lookup_kind(score_kind).symmetric
    try:
        matrix = TaskMatrix(tasks, values)
    except KeyError as exc:                # an unknown task
        raise MatrixAssemblyError(exc.args[0]) from None
    except ValueError as exc:              # a bad task list, diagonal or non-finite cell
        raise MatrixAssemblyError(str(exc)) from None
    if symmetric:
        for (w, t), v in matrix.cells().items():
            if not matrix.has(t, w):
                matrix.set(t, w, v)
            elif matrix.get(t, w) != v:
                raise MatrixAssemblyError(
                    f"symmetric kind {score_kind} got conflicting values for "
                    f"({w!r}, {t!r}): {v} vs {matrix.get(t, w)}")
    missing = matrix.missing_cells()
    if missing:
        raise MatrixAssemblyError(f"missing value for ordered pair {missing[0]}")
    return matrix


@dataclass(frozen=True)
class CostModel:
    """Task count and the multiply-add cost of one half-capacity STL model."""

    n: int
    c_s: float

    def __post_init__(self):
        object.__setattr__(self, "n", integer("n", self.n, minimum=2))
        object.__setattr__(self, "c_s", real("c_s", self.c_s))
        if not self.c_s > 0:
            raise ValueError(f"c_s must be positive, got {self.c_s!r}")


class ModelFamily(NamedTuple):
    """One model per entry of ``members``, ``unit`` * c_s multiply-adds each, at ``capacity``."""
    count_term: str                        # the number of members, spelled in n
    unit: int
    capacity: str                          # "half" or "full" backbone
    members: Callable[[Sequence[str]], list[tuple[str, ...]]]  # each model's tasks, plan order


# The roster table: the families of trained models, keyed as in
# models.model_key; SCORE_KINDS lists the families each score needs.
# Training a score for all pairs of n tasks costs the sum of its families'
# terms; C(n,2) is the unordered pair count.
MODEL_FAMILIES = {
    "stl": ModelFamily("n", 1, "half", lambda tasks: [(t,) for t in tasks]),
    # A pair model's key and head order follow the pair sorted by name, so a
    # seed's results do not depend on the order in which its tasks are listed.
    "mtl": ModelFamily("C(n,2)", 2, "full", lambda tasks: list(combinations(sorted(tasks), 2))),
    "inj": ModelFamily("2*C(n,2)", 1, "half", lambda tasks: list(permutations(tasks, 2))),
}


def _families(score_kind: str) -> list[ModelFamily]:
    return [MODEL_FAMILIES[f] for f in lookup_kind(score_kind).families]


def score_cost_expression(score_kind: str) -> str:
    """The symbolic multiply-add cost of a score across all task pairs."""
    return " + ".join(f"{f.count_term}*{f'{f.unit}*' if f.unit > 1 else ''}c_s"
                      for f in _families(score_kind)) or "0"


def score_cost(score_kind: str, cost: CostModel) -> float:
    """The score's training cost for a concrete n and c_s: its families' members of n tasks."""
    return sum((len(f.members(range(cost.n))) * f.unit * cost.c_s
                for f in _families(score_kind)), 0.0)


# --- CSV table emission (one file per level; reports keyed by score kind,
# one row per kind in the mapping's order) ---

# Levels 1 and 2: a column per target, then the summary column named here.
_WIDE_TABLES = {1: "all_at_once", 2: "average"}


def _wide_csv(reports: Mapping[str, EvaluationReport], level: int) -> str:
    tasks = next(iter(reports.values())).tasks
    rows = [["score", *tasks, _WIDE_TABLES[level]]]
    for kind, report in reports.items():
        result = getattr(report, f"level{level}")
        rows.append([kind, *(result.per_target[t] for t in tasks), result.summary])
    return write_table(rows)


def level1_csv(reports: Mapping[str, EvaluationReport]) -> str:
    """Per-target Pearson table: one row per score, one column per target."""
    return _wide_csv(reports, 1)


def level2_csv(reports: Mapping[str, EvaluationReport]) -> str:
    """Per-target Kendall table plus the across-target average column."""
    return _wide_csv(reports, 2)


def level3_csv(reports: Mapping[str, EvaluationReport]) -> str:
    """Best-partner table: one row per (score, target) cell."""
    rows = [["score", "target", "selected", "tied", "true_best", "delta", "delta_tied_mean"]]
    for kind, r in reports.items():
        for t in r.tasks:
            s = r.level3[t]
            rows.append([kind, t, s.selected, "|".join(s.tied),
                         s.true_best, s.delta, s.delta_tied_mean])
    return write_table(rows)


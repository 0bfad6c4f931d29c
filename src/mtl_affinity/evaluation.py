"""Ground-truth MTL gain and the three-level score evaluation protocol.

A score matrix is judged against the measured gain matrix at three levels
of increasing coarseness, always per target column:

1. predictive: Pearson correlation between score and gain over the n-1
   partners, plus one pooled correlation over all n(n-1) ordered pairs;
2. ranking: Kendall correlation (tau-b by default) per target, plus the
   arithmetic mean across targets;
3. best partner: does the score's argmax partner match the gain's? The
   report carries the gain difference (always <= 0) and explicit tie info.

Correlations are invariant to the gain unit; level-3 deltas are expressed
in whatever unit the gain matrix uses. The module also hosts the
training-cost model for the scores themselves.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

from .matrices import MatrixFormatError, TaskMatrix
from .scores import AffinityMatrix
from .stats import kendall_tau, pearson

__all__ = [
    "GAIN_UNITS",
    "GainMatrix",
    "mtl_gain",
    "Level1Result",
    "Level2Result",
    "Level3Selection",
    "Level3Result",
    "EvaluationReport",
    "level1_predictive",
    "level2_ranking",
    "level3_best_partner",
    "evaluate",
    "CostModel",
    "MODEL_FAMILIES",
    "SCORE_FAMILIES",
    "score_cost",
    "score_cost_expression",
    "level1_csv",
    "level2_csv",
    "level3_csv",
    "read_level1_csv",
    "read_level2_csv",
    "read_level3_csv",
]

GAIN_UNITS = ("fraction", "percent")


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


class GainMatrix(TaskMatrix):
    """Measured MTL gains per ordered pair, tagged with their unit.

    Cell (b, a) holds the gain of target a when co-trained with b.
    Generally asymmetric. The unit is "fraction" (raw Eq. ratio) or
    "percent" (x100, the presentation unit).
    """

    def __init__(self, tasks, values=None, unit: str = "fraction"):
        if unit not in GAIN_UNITS:
            raise ValueError(f"unit must be one of {GAIN_UNITS}, got {unit!r}")
        self.unit = unit
        super().__init__(tasks, values)

    def _converted(self, unit: str) -> "GainMatrix":
        out = GainMatrix(self.tasks, unit=unit)
        factor = {("fraction", "percent"): 100.0, ("percent", "fraction"): 0.01}
        scale = factor.get((self.unit, unit), 1.0)
        for key, v in self._cells.items():
            out.set(*key, v * scale)
        return out

    def as_fraction(self) -> "GainMatrix":
        return self._converted("fraction")

    def as_percent(self) -> "GainMatrix":
        return self._converted("percent")

    def __eq__(self, other) -> bool:
        if not isinstance(other, GainMatrix):
            return NotImplemented
        return self.unit == other.unit and super().__eq__(other)

    def __repr__(self) -> str:
        return (f"GainMatrix(tasks={list(self.tasks)}, unit={self.unit}, "
                f"filled={len(self._cells)})")

    @classmethod
    def from_csv_text(cls, text: str, unit: str = "") -> "GainMatrix":
        if not unit:
            raise ValueError("loading a GainMatrix needs an explicit unit")
        plain = TaskMatrix.from_csv_text(text)
        out = cls(plain.tasks, unit=unit)
        for key, v in plain._cells.items():
            out.set(*key, v)
        return out


def _check_aligned(gain: TaskMatrix, score: TaskMatrix) -> tuple[str, ...]:
    if tuple(gain.tasks) != tuple(score.tasks):
        raise ValueError(f"matrices cover different task sets: "
                         f"{list(gain.tasks)} vs {list(score.tasks)}")
    for label, m in (("gain", gain), ("score", score)):
        if not m.is_complete():
            raise ValueError(f"{label} matrix is incomplete; missing {m.missing_cells()}")
    return gain.tasks


@dataclass(frozen=True)
class Level1Result:
    """Per-target Pearson between score and gain, plus the pooled value."""

    per_target: Mapping[str, float]
    pooled: float


@dataclass(frozen=True)
class Level2Result:
    """Per-target Kendall correlation and its mean across targets."""

    per_target: Mapping[str, float]
    mean: float
    variant: str = "b"


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
class Level3Result:
    per_target: Mapping[str, Level3Selection]


@dataclass(frozen=True)
class EvaluationReport:
    """All three levels for one score matrix against one gain matrix."""

    score_kind: str
    tasks: tuple[str, ...]
    level1: Level1Result
    level2: Level2Result
    level3: Level3Result


def _columns(gain: TaskMatrix, score: TaskMatrix, target: str) -> tuple[list, list]:
    g = [v for _, v in gain.column(target)]
    s = [v for _, v in score.column(target)]
    return s, g


def level1_predictive(gain: TaskMatrix, score: TaskMatrix) -> Level1Result:
    """Pearson between score and gain per target, plus all pairs pooled.

    Needs at least 3 tasks (two partner values per column).
    """
    tasks = _check_aligned(gain, score)
    per = {t: pearson(*_columns(gain, score, t)) for t in tasks}
    pool_s = [score.get(w, t) for t in tasks for w in tasks if w != t]
    pool_g = [gain.get(w, t) for t in tasks for w in tasks if w != t]
    return Level1Result(per_target=per, pooled=pearson(pool_s, pool_g))


def level2_ranking(gain: TaskMatrix, score: TaskMatrix,
                   variant: str = "b") -> Level2Result:
    """Kendall correlation of partner rankings per target, plus the mean."""
    tasks = _check_aligned(gain, score)
    per = {t: kendall_tau(*_columns(gain, score, t), variant=variant) for t in tasks}
    return Level2Result(per_target=per, mean=sum(per.values()) / len(per),
                        variant=variant)


def level3_best_partner(gain: TaskMatrix, score: TaskMatrix) -> Level3Result:
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
    return Level3Result(per_target=out)


def evaluate(gain: TaskMatrix, score: AffinityMatrix) -> EvaluationReport:
    """Run all three levels, level 2 with Kendall tau-b, and bundle the results."""
    return EvaluationReport(
        score_kind=score.score_kind,
        tasks=tuple(gain.tasks),
        level1=level1_predictive(gain, score),
        level2=level2_ranking(gain, score),
        level3=level3_best_partner(gain, score),
    )


# --- cost model ---


@dataclass(frozen=True)
class CostModel:
    """Task count and the multiply-add cost of one half-capacity STL model."""

    n: int
    c_s: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        if not self.c_s > 0:
            raise ValueError(f"c_s must be positive, got {self.c_s!r}")


class ModelFamily(NamedTuple):
    """``count(n)`` models of ``unit`` * c_s multiply-adds each, at ``capacity``."""
    count_term: str                        # ``count`` spelled in n
    count: Callable[[int], int]
    unit: int
    capacity: str                          # "half" or "full" backbone


# The roster table: the families of trained models, keyed as in
# models.model_key, and the families each score needs. Training a score
# for all pairs of n tasks costs the sum of its families' terms; C(n,2) is
# the unordered pair count.
MODEL_FAMILIES = {
    "stl": ModelFamily("n", lambda n: n, 1, "half"),
    "mtl": ModelFamily("C(n,2)", lambda n: math.comb(n, 2), 2, "full"),
    "inj": ModelFamily("2*C(n,2)", lambda n: 2 * math.comb(n, 2), 1, "half"),
}
SCORE_FAMILIES = {
    "TD": (),
    "IAS": ("stl",),
    "RSA": ("stl",),
    "LI": ("stl", "inj"),
    "GS": ("mtl",),
    "GT": ("mtl",),
}


def _families(score_kind: str) -> list[ModelFamily]:
    if score_kind not in SCORE_FAMILIES:
        raise ValueError(f"unknown score kind {score_kind!r}; "
                         f"expected one of {sorted(SCORE_FAMILIES)}")
    return [MODEL_FAMILIES[f] for f in SCORE_FAMILIES[score_kind]]


def score_cost_expression(score_kind: str) -> str:
    """The symbolic multiply-add cost of a score across all task pairs."""
    return " + ".join(f"{f.count_term}*{f'{f.unit}*' if f.unit > 1 else ''}c_s"
                      for f in _families(score_kind)) or "0"


def score_cost(score_kind: str, cost: CostModel) -> float:
    """Evaluate the score's training cost for a concrete n and c_s."""
    return sum((f.count(cost.n) * f.unit * cost.c_s for f in _families(score_kind)), 0.0)


# --- CSV table emission (one file per level, score kinds as rows) ---


def _write_rows(rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _read_rows(text: str, expected_header: Sequence[str], label: str) -> list[list[str]]:
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if not rows or rows[0][: len(expected_header)] != list(expected_header):
        raise MatrixFormatError(f"{label} header must start with {list(expected_header)}")
    return rows


def level1_csv(reports: Sequence[EvaluationReport]) -> str:
    """Per-target Pearson table: one row per score, one column per target."""
    tasks = reports[0].tasks
    rows = [["score", *tasks, "all_at_once"]]
    for r in reports:
        rows.append([r.score_kind, *(repr(r.level1.per_target[t]) for t in tasks),
                     repr(r.level1.pooled)])
    return _write_rows(rows)


def read_level1_csv(text: str) -> dict[str, Level1Result]:
    rows = _read_rows(text, ["score"], "level1")
    header = rows[0]
    tasks = header[1:-1]
    if header[-1] != "all_at_once":
        raise MatrixFormatError("level1 header must end with 'all_at_once'")
    out = {}
    for row in rows[1:]:
        per = {t: float(v) for t, v in zip(tasks, row[1:-1])}
        out[row[0]] = Level1Result(per_target=per, pooled=float(row[-1]))
    return out


def level2_csv(reports: Sequence[EvaluationReport]) -> str:
    """Per-target Kendall table plus the across-target average column."""
    tasks = reports[0].tasks
    rows = [["score", *tasks, "average"]]
    for r in reports:
        rows.append([r.score_kind, *(repr(r.level2.per_target[t]) for t in tasks),
                     repr(r.level2.mean)])
    return _write_rows(rows)


def read_level2_csv(text: str, variant: str = "b") -> dict[str, Level2Result]:
    rows = _read_rows(text, ["score"], "level2")
    header = rows[0]
    tasks = header[1:-1]
    if header[-1] != "average":
        raise MatrixFormatError("level2 header must end with 'average'")
    out = {}
    for row in rows[1:]:
        per = {t: float(v) for t, v in zip(tasks, row[1:-1])}
        out[row[0]] = Level2Result(per_target=per, mean=float(row[-1]), variant=variant)
    return out


_LEVEL3_HEADER = ["score", "target", "selected", "tied", "true_best",
                  "delta", "delta_tied_mean"]


def level3_csv(reports: Sequence[EvaluationReport]) -> str:
    """Best-partner table: one row per (score, target) cell."""
    rows = [list(_LEVEL3_HEADER)]
    for r in reports:
        for t in r.tasks:
            s = r.level3.per_target[t]
            rows.append([r.score_kind, t, s.selected, "|".join(s.tied),
                         s.true_best, repr(s.delta), repr(s.delta_tied_mean)])
    return _write_rows(rows)


def read_level3_csv(text: str) -> dict[str, Level3Result]:
    rows = _read_rows(text, _LEVEL3_HEADER, "level3")
    grouped: dict[str, dict[str, Level3Selection]] = {}
    for row in rows[1:]:
        kind, target, selected, tied, true_best, delta, tied_mean = row
        grouped.setdefault(kind, {})[target] = Level3Selection(
            target=target, selected=selected, tied=tuple(tied.split("|")),
            true_best=true_best, delta=float(delta),
            delta_tied_mean=float(tied_mean))
    return {k: Level3Result(per_target=v) for k, v in grouped.items()}

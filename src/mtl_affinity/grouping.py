"""Budget-constrained assignment of tasks to models.

A grouping picks a set of models so that every task is served by exactly
one of them while the summed model cost stays within a budget. The
candidate family is deliberately small: single-task models and two-task
models, where a two-task model may serve one or both of its training
tasks (a task trained but not served acts purely as a training aid).

Aggregate performance sums the served tasks' MTL gains; a task served by
its own single-task model contributes the STL baseline (0 by default,
since gains are measured relative to STL). The optimizer is exact up to
``MAX_EXHAUSTIVE_TASKS`` tasks. It works in two phases. A branch-and-bound
search finds the best total, pruning a branch whose total plus each
unserved task's best positive partner gain cannot beat the best grouping
found, and pruning ties. A second pass then builds the lexicographically
smallest grouping that reaches that total, one candidate at a time in
encoding order, asking the same bounded search whether the tasks left can
still reach the total within the budget left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .matrices import TaskMatrix

__all__ = [
    "MAX_EXHAUSTIVE_TASKS",
    "BUDGET_SLACK",
    "Violation",
    "ModelCandidate",
    "Grouping",
    "InvalidGroupingError",
    "InfeasibleGroupingError",
    "is_valid_grouping",
    "aggregate_performance",
    "optimize_grouping",
]

MAX_EXHAUSTIVE_TASKS = 10

# Costs within this absolute slack of the budget still count as affordable,
# so budgets expressed as sums of float costs are not rejected for rounding.
BUDGET_SLACK = 1e-9

# Totals within this fraction of the largest possible total of each other
# are ties: the optimizer sums the same gains in more than one order.
_TIE_RTOL = 1e-12


class InvalidGroupingError(ValueError):
    """A grouping violates the serving/budget constraints."""


class InfeasibleGroupingError(ValueError):
    """No valid grouping fits within the budget."""


@dataclass(frozen=True)
class Violation:
    """One constraint breach; subject names the offending task or model."""

    kind: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return self.detail


@dataclass(frozen=True)
class ModelCandidate:
    """One model: the tasks it trains on, the subset it serves, its cost."""

    training: tuple[str, ...]
    serving: tuple[str, ...]
    cost: float

    def __post_init__(self):
        object.__setattr__(self, "training", tuple(sorted(set(self.training))))
        object.__setattr__(self, "serving", tuple(sorted(set(self.serving))))
        if not self.training:
            raise ValueError("a model must train on at least one task")
        if not self.serving:
            raise ValueError("a model must serve at least one task")
        extra = set(self.serving) - set(self.training)
        if extra:
            raise ValueError(f"serving tasks {sorted(extra)} are not trained by "
                             f"this model (trains {list(self.training)})")
        object.__setattr__(self, "cost", float(self.cost))
        if not self.cost > 0:
            raise ValueError(f"model cost must be positive, got {self.cost}")

    @property
    def encoding(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Canonical sort key: (training tasks, serving tasks)."""
        return (self.training, self.serving)

    def describe(self) -> str:
        return f"[{'+'.join(self.training)} -> {'+'.join(self.serving)}]"

    def to_json_dict(self) -> dict:
        return {"training_tasks": list(self.training),
                "serving_tasks": list(self.serving), "cost": self.cost}

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "ModelCandidate":
        return cls(tuple(payload["training_tasks"]),
                   tuple(payload["serving_tasks"]), payload["cost"])


@dataclass(frozen=True)
class Grouping:
    """A chosen set of candidates plus the budget they must respect."""

    candidates: tuple[ModelCandidate, ...]
    budget: float

    def __post_init__(self):
        ordered = tuple(sorted(self.candidates, key=lambda c: c.encoding))
        object.__setattr__(self, "candidates", ordered)
        object.__setattr__(self, "budget", float(self.budget))

    @property
    def total_cost(self) -> float:
        return sum(c.cost for c in self.candidates)

    def encoding(self) -> tuple:
        return tuple(c.encoding for c in self.candidates)

    def to_json_dict(self) -> dict:
        """JSON-ready fields; an unlimited (infinite) budget is written as null."""
        budget = None if self.budget == math.inf else self.budget
        return {"models": [c.to_json_dict() for c in self.candidates],
                "budget": budget, "total_cost": self.total_cost}

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "Grouping":
        budget = payload["budget"]
        return cls(tuple(ModelCandidate.from_json_dict(m) for m in payload["models"]),
                   math.inf if budget is None else budget)


def is_valid_grouping(tasks: Iterable[str], grouping: Grouping) -> list[Violation]:
    """Check all grouping constraints; an empty list means valid.

    Violations are returned as data rather than raised: exactly-once
    serving per task, known tasks only, and the budget bound. Serving
    within training is enforced by ModelCandidate itself.
    """
    names = tuple(tasks)
    known = set(names)
    violations: list[Violation] = []
    served_by: dict[str, list[str]] = {}
    for cand in grouping.candidates:
        label = cand.describe()
        for t in cand.serving:
            served_by.setdefault(t, []).append(label)
        for t in cand.training:
            if t not in known:
                violations.append(Violation(
                    "unknown_task", t, f"model {label} involves unknown task {t!r}"))
    for t in names:
        servers = served_by.get(t, [])
        if not servers:
            violations.append(Violation(
                "unserved", t, f"task {t!r} is not served by any model"))
        elif len(servers) > 1:
            violations.append(Violation(
                "served_twice", t,
                f"task {t!r} is served {len(servers)} times: {', '.join(servers)}"))
    if grouping.total_cost > grouping.budget + BUDGET_SLACK:
        violations.append(Violation(
            "over_budget", "",
            f"total cost {grouping.total_cost} exceeds budget {grouping.budget}"))
    return violations


def aggregate_performance(grouping: Grouping, gain: TaskMatrix,
                          stl_baseline: float = 0.0) -> float:
    """Sum each task's gain under its serving model.

    Single-task models contribute the STL baseline per served task;
    two-task models contribute the served task's gain with its training
    partner. Gains are read in whatever unit the matrix uses.

    Raises:
        InvalidGroupingError: the grouping fails is_valid_grouping.
        ValueError: a candidate trains on three or more tasks (outside the
            supported family).
    """
    violations = is_valid_grouping(gain.tasks, grouping)
    if violations:
        raise InvalidGroupingError("; ".join(str(v) for v in violations))
    total = 0.0
    for cand in grouping.candidates:
        if len(cand.training) == 1:
            total += stl_baseline * len(cand.serving)
        elif len(cand.training) == 2:
            a, b = cand.training
            for t in cand.serving:
                partner = b if t == a else a
                total += gain.get(partner, t)
        else:
            raise ValueError(f"model {cand.describe()} trains on "
                             f"{len(cand.training)} tasks; only 1 or 2 supported")
    return total


class _Completions:
    """Bounded search for the best way to serve a set of tasks, on plain numbers.

    Tasks are indices in name order and a set of tasks is a bit mask. A
    completion serves each task of the mask once: by its single-task model
    (gain 0), by a two-task model that serves it alone (the gain of its
    best allowed partner), or together with another task of the mask by one
    two-task model (both directed gains). Two models serving one task each
    from the same pair are never needed: one model serving both has the
    same gain and costs less. So a completion with the best value here is
    also the best among groupings that use each pair at most once.
    """

    def __init__(self, gains: list[list[float]], limit: float,
                 stl_cost: float, mtl_cost: float):
        n = len(gains)
        self.gains = gains  # gains[p][t]: gain of task t trained with partner p
        self.limit = limit  # the budget plus BUDGET_SLACK
        self.stl_cost, self.mtl_cost = stl_cost, mtl_cost
        # Cheapest cost of serving r tasks, q of them by two-task models.
        # Summed model by model: an infinite cost times 0 models is NaN.
        self.floor = [min(sum([mtl_cost] * ((q + 1) // 2) + [stl_cost] * (r - q))
                          for q in range(r + 1)) for r in range(n + 1)]
        self.both = [[gains[q][p] + gains[p][q] for q in range(n)] for p in range(n)]
        self.by_pair_gain = [sorted((q for q in range(n) if q != p),
                                    key=lambda q, p=p: -self.both[p][q]) for p in range(n)]
        self.by_solo_gain = [sorted((q for q in range(n) if q != t),
                                    key=lambda q, t=t: -gains[q][t]) for t in range(n)]
        # No total can exceed this in magnitude; totals summed in different
        # orders differ by a few ulps of it.
        self.slack = _TIE_RTOL * sum(max(abs(gains[p][t]) for p in range(n) if p != t)
                                     for t in range(n))

    def solo_gains(self, used: set[tuple[int, int]]) -> list[float | None]:
        """Each task's best gain from a model serving it alone, skipping used pairs."""
        best: list[float | None] = []
        for t, partners in enumerate(self.by_solo_gain):
            free = [q for q in partners if (min(q, t), max(q, t)) not in used]
            best.append(self.gains[free[0]][t] if free else None)
        return best

    def best(self, mask: int, spent: float, solo: list[float | None],
             need: float, first: bool) -> float | None:
        """The largest completion value of ``mask`` that is at least ``need``.

        ``spent`` is the cost of the models chosen so far. The search
        prunes a branch when its bound (the value so far plus every
        unserved task's best positive solo gain) is below ``need``; after
        each completion found, ``need`` rises to that value plus the tie
        slack, so ties are not explored. With ``first`` it returns the
        first completion that reaches ``need``. None when no completion
        reaches it.
        """
        stl_cost, mtl_cost, floor, limit = self.stl_cost, self.mtl_cost, self.floor, self.limit
        both, by_pair_gain, slack = self.both, self.by_pair_gain, self.slack
        upside = [max(0.0, v) if v is not None else 0.0 for v in solo]
        found: float | None = None

        def search(mask: int, left: int, spent: float, value: float, rest: float) -> bool:
            # rest: the summed upside of the tasks in mask
            nonlocal need, found
            if not mask:
                if value < need:
                    return False
                found, need = value, value + slack
                return first
            if value + rest < need or spent + floor[left] > limit:
                return False
            p = (mask & -mask).bit_length() - 1
            mask ^= 1 << p
            rest -= upside[p]
            if left >= 2 and spent + mtl_cost + floor[left - 2] <= limit:
                for q in by_pair_gain[p]:
                    if mask >> q & 1:
                        value_q = value + both[p][q]
                        if value_q + rest < need:
                            break  # the partners after q gain less
                        if search(mask ^ 1 << q, left - 2, spent + mtl_cost, value_q,
                                  rest - upside[q]):
                            return True
            if solo[p] is not None and spent + mtl_cost + floor[left - 1] <= limit:
                if search(mask, left - 1, spent + mtl_cost, value + solo[p], rest):
                    return True
            if spent + stl_cost + floor[left - 1] <= limit:
                return search(mask, left - 1, spent + stl_cost, value, rest)
            return False

        search(mask, mask.bit_count(), spent, 0.0,
               sum(v for t, v in enumerate(upside) if mask >> t & 1))
        return found


def optimize_grouping(tasks: Sequence[str], gain: TaskMatrix, budget: float,
                      stl_cost: float = 1.0,
                      mtl_cost: float | None = None) -> tuple[Grouping, float]:
    """Find the gain-maximizing valid grouping, exactly, in two phases.

    The candidate family is one single-task model per task (cost
    ``stl_cost``) and one two-task model per unordered pair (cost
    ``mtl_cost``, default 2x) which may serve either or both tasks.

    Phase 1 finds the best total by branch and bound: a branch is pruned
    when its total so far plus, for each unserved task, the larger of 0 and
    its best partner gain cannot beat the best grouping found, or when the
    cheapest way to serve the unserved tasks does not fit the budget.
    Phase 2 rebuilds the tie-break: among groupings whose total is within
    a tie slack of the best (a 1e-12 fraction of the largest possible total,
    which absorbs summation order), it returns the one with the
    lexicographically smallest sorted encoding. It tries candidates in
    encoding order and keeps one when the bounded search shows that the
    remaining tasks can still reach the best total within the remaining
    budget. The returned total is the grouping's ``aggregate_performance``.

    Raises:
        InfeasibleGroupingError: nothing fits within the budget.
        ValueError: more than 10 tasks, task set not matching the gain
            matrix, non-positive costs, or a NaN budget or cost.
    """
    names = tuple(tasks)
    if not 2 <= len(names) <= MAX_EXHAUSTIVE_TASKS:
        raise ValueError(f"the optimizer supports 2..{MAX_EXHAUSTIVE_TASKS} "
                         f"tasks, got {len(names)}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate task names in {names}")
    if set(names) != set(gain.tasks):
        raise ValueError(f"tasks {sorted(names)} do not match the gain matrix's "
                         f"{sorted(gain.tasks)}")
    if mtl_cost is None:
        mtl_cost = 2.0 * stl_cost
    for label, value in (("budget", budget), ("stl_cost", stl_cost), ("mtl_cost", mtl_cost)):
        if math.isnan(value):
            raise ValueError(f"{label} must be a number, got NaN")
    if stl_cost <= 0 or mtl_cost <= 0:
        raise ValueError(f"costs must be positive, got stl={stl_cost}, mtl={mtl_cost}")

    order = sorted(names)  # index order is encoding order
    n = len(order)
    gains = [[gain.get(order[p], order[t]) if p != t else 0.0 for t in range(n)]
             for p in range(n)]
    completions = _Completions(gains, budget + BUDGET_SLACK, stl_cost, mtl_cost)
    everyone = (1 << n) - 1
    best = completions.best(everyone, 0.0, completions.solo_gains(set()),
                            -math.inf, first=False)
    if best is None:
        raise InfeasibleGroupingError(
            f"no valid grouping of {len(names)} tasks fits budget {budget} "
            f"(stl_cost={stl_cost}, mtl_cost={mtl_cost})")

    goal = best - completions.slack
    chosen: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    served, used, spent, total = 0, set(), 0.0, 0.0
    for training, serving in _encoding_order(n):
        serves = sum(1 << t for t in serving)
        if served & serves or training in used:
            continue
        cost = stl_cost if len(training) == 1 else mtl_cost
        rest = everyone ^ (served | serves)
        if spent + cost + completions.floor[rest.bit_count()] > completions.limit:
            continue
        after = total  # summed task by task, in encoding order
        if len(training) == 2:
            for t in serving:
                after += gains[training[0] + training[1] - t][t]
        pairs = used | {training} if len(training) == 2 else used
        if completions.best(rest, spent + cost, completions.solo_gains(pairs),
                            goal - after, first=True) is None:
            continue
        chosen.append((training, serving))
        served, used, spent, total = served | serves, pairs, spent + cost, after
        if served == everyone:
            break

    grouping = Grouping(tuple(
        ModelCandidate(tuple(order[t] for t in training),
                       tuple(order[t] for t in serving),
                       stl_cost if len(training) == 1 else mtl_cost)
        for training, serving in chosen), budget)
    return grouping, total


def _encoding_order(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every candidate as (training, serving) index tuples, in encoding order."""
    candidates = [((t,), (t,)) for t in range(n)]
    for a, b in combinations(range(n), 2):
        candidates += [((a, b), (a,)), ((a, b), (a, b)), ((a, b), (b,))]
    return sorted(candidates)

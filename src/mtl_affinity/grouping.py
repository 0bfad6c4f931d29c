"""Budget-constrained assignment of tasks to models.

A grouping picks a set of models so that every task is served by exactly
one of them while the summed model cost stays within a budget. The
candidate family is deliberately small, and ``ModelCandidate`` admits no
other: single-task models and two-task models, where a two-task model may
serve one or both of its training tasks (a task trained but not served acts
purely as a training aid). The validator applies the optimizer's budget limit.

Aggregate performance sums the served tasks' MTL gains; a task served by
its own single-task model contributes the STL baseline (0 by default,
since gains are measured relative to STL). The optimizer is exact up to
``MAX_EXHAUSTIVE_TASKS`` tasks. It works in two phases. A branch-and-bound
search finds the best total, pruning a branch whose total plus each
unserved task's best positive partner gain cannot beat the best grouping
found, and pruning ties. A second pass then builds the lexicographically
smallest grouping that reaches that total, one candidate at a time in
encoding order. It rejects a candidate when the root bound of the tasks
left (their cheapest cost, their summed upside) misses the budget or the
total, else asks the same bounded search whether they can still reach it.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cache, lru_cache
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


def _real(field: str, value) -> float:
    """``value`` as a float; a bool or a non-real (a numeric string too) raises naming ``field``."""
    # A plain float, the common case, skips the much slower ABC check.
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{field} must be a real number, got {value!r}")
    return float(value)


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
        if not 1 <= len(self.training) <= 2:
            raise ValueError(f"a model trains on 1 or 2 tasks, got {list(self.training)}")
        if not self.serving:
            raise ValueError("a model must serve at least one task")
        extra = set(self.serving) - set(self.training)
        if extra:
            raise ValueError(f"serving tasks {sorted(extra)} are not trained by "
                             f"this model (trains {list(self.training)})")
        object.__setattr__(self, "cost", _real("cost", self.cost))
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
        object.__setattr__(self, "budget", _real("budget", self.budget))

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


def _limit(budget: float) -> float:
    """The largest total cost that fits ``budget``: NaN, which nothing fits, for a NaN budget.
    Capped at the largest float, so an infinite total never fits, not even an infinite budget."""
    return min(budget + BUDGET_SLACK, sys.float_info.max)


def is_valid_grouping(tasks: Iterable[str], grouping: Grouping) -> list[Violation]:
    """Check all grouping constraints; an empty list means valid.

    Violations are returned as data rather than raised: exactly-once
    serving per task, known tasks only, and the optimizer's budget limit.
    ModelCandidate itself enforces the model family and serving within training.
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
    if not grouping.total_cost <= _limit(grouping.budget):
        violations.append(Violation(
            "over_budget", "",
            f"total cost {grouping.total_cost} does not fit budget {grouping.budget}"))
    return violations


def aggregate_performance(grouping: Grouping, gain: TaskMatrix) -> float:
    """Sum each task's gain under its serving model.

    A task served by its single-task model counts as 0, the STL baseline;
    two-task models contribute the served task's gain with its training
    partner. Gains are read in whatever unit the matrix uses.

    Raises:
        InvalidGroupingError: the grouping fails is_valid_grouping.
    """
    violations = is_valid_grouping(gain.tasks, grouping)
    if violations:
        raise InvalidGroupingError("; ".join(str(v) for v in violations))
    total = 0.0
    for cand in grouping.candidates:
        if len(cand.training) == 2:
            a, b = cand.training
            for t in cand.serving:
                partner = b if t == a else a
                total += gain.get(partner, t)
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
        self.limit = limit  # _limit(budget)
        self.stl_cost, self.mtl_cost = stl_cost, mtl_cost
        self.floor = _floor(n, stl_cost, mtl_cost)
        columns = list(zip(*gains))  # both[p][q] = gains[q][p] + gains[p][q]
        self.both = [[a + b for a, b in zip(c, r)] for c, r in zip(columns, gains)]
        def ranked(values: Sequence[float], skip: int) -> list[int]:  # ties in index order
            return sorted([q for q in range(n) if q != skip], key=[-v for v in values].__getitem__)
        self.by_pair_gain = [ranked(row, p) for p, row in enumerate(self.both)]
        self.by_solo_gain = [ranked(column, t) for t, column in enumerate(columns)]
        # No total can exceed this in magnitude; totals summed in different
        # orders differ by a few ulps of it. The diagonal's 0.0 never wins.
        self.slack = _TIE_RTOL * sum([max(map(abs, column)) for column in columns])

    def carry(self, used: list[int], solo: list[float | None], upside: list[float],
              training: tuple[int, ...], serving: tuple[int, ...], left: int) -> tuple:
        """New lists once a candidate is chosen, leaving the tasks ``left``: ``used[t]``,
        the partners of ``t``'s pairs; ``solo[t]``, an unserved ``t``'s best solo gain
        with another partner (None if none); ``upside[t]``, the larger of it and 0, or 0."""
        used, solo, upside = used.copy(), solo.copy(), upside.copy()
        for t in serving:
            upside[t] = 0.0
        if len(training) == 2:
            a, b = training
            used[a], used[b] = used[a] | 1 << b, used[b] | 1 << a
            for t in training:
                if left >> t & 1:  # its partners by falling gain, minus the used ones
                    solo[t] = next((self.gains[q][t] for q in self.by_solo_gain[t]
                                    if not used[t] >> q & 1), None)
                    upside[t] = max(0.0, solo[t]) if solo[t] is not None else 0.0
        return used, solo, upside

    def best(self, mask: int, spent: float, solo: list[float | None], upside: list[float],
             need: float, first: bool) -> float | None:
        """The largest completion value of ``mask`` that is at least ``need``.

        ``spent`` is the cost of the models chosen so far; ``upside`` is 0 outside
        ``mask``, so its sum is the root bound. A branch is pruned when its bound
        (the value so far plus every unserved task's upside) is below ``need``;
        after each completion found, ``need`` rises to that value plus the tie
        slack, so ties are not explored. With ``first`` it returns the first
        completion that reaches ``need``. None when no completion reaches it.
        """
        stl_cost, mtl_cost, floor, limit = self.stl_cost, self.mtl_cost, self.floor, self.limit
        both, by_pair_gain, slack = self.both, self.by_pair_gain, self.slack
        found: float | None = None

        def search(mask: int, left: int, spent: float, value: float, rest: float) -> bool:
            # rest: the summed upside of the tasks in mask. The caller checked the floor
            # and, unless mask is empty, the bound: a pruned child costs no call.
            nonlocal need, found
            if not mask:
                if value < need:
                    return False
                found, need = value, value + slack
                return first
            p = (mask & -mask).bit_length() - 1
            mask ^= 1 << p
            rest -= upside[p]
            paired = spent + mtl_cost
            if left >= 2 and paired + floor[left - 2] <= limit:
                for q in by_pair_gain[p]:
                    if mask >> q & 1:
                        value_q = value + both[p][q]
                        if value_q + rest < need:
                            break  # the partners after q gain less
                        rest_q = rest - upside[q]
                        if not (mask ^ 1 << q and value_q + rest_q < need) and search(
                                mask ^ 1 << q, left - 2, paired, value_q, rest_q):
                            return True
            if solo[p] is not None and paired + floor[left - 1] <= limit:
                value_p = value + solo[p]
                if not (mask and value_p + rest < need) and search(
                        mask, left - 1, paired, value_p, rest):
                    return True
            if spent + stl_cost + floor[left - 1] <= limit and not (mask and value + rest < need):
                return search(mask, left - 1, spent + stl_cost, value, rest)
            return False

        rest = sum(upside)
        if spent + floor[mask.bit_count()] <= limit and not (mask and 0.0 + rest < need):
            search(mask, mask.bit_count(), spent, 0.0, rest)
        return found


@lru_cache(maxsize=256, typed=True)
def _floor(n: int, stl_cost: float, mtl_cost: float) -> tuple[float, ...]:
    """Cheapest cost of r = 0..n tasks, summed model by model (inf times 0 is NaN)."""
    return tuple(min(sum([mtl_cost] * ((q + 1) // 2) + [stl_cost] * (r - q))
                     for q in range(r + 1)) for r in range(n + 1))


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
    budget. A candidate that fails the root bound (the tasks it leaves cost
    too much, or their summed upside falls short) is rejected before any
    search set-up. Solo gains carry over between kept candidates and the cost
    table is cached. The returned total is the grouping's ``aggregate_performance``.

    Raises:
        InfeasibleGroupingError: nothing fits within the budget; a grouping
            whose total cost overflows to infinity never fits.
        ValueError: more than 10 tasks, task set not matching the gain
            matrix, an empty gain cell, non-positive costs, a budget or cost
            that is NaN, a bool or no real number, or gains so large that the
            tie slack overflows.
    """
    names = tuple(tasks)
    if not 2 <= len(names) <= MAX_EXHAUSTIVE_TASKS:
        raise ValueError(f"the optimizer supports 2..{MAX_EXHAUSTIVE_TASKS} "
                         f"tasks, got {len(names)}")
    if len(names) != len(gain.tasks) or set(names) != set(gain.tasks):
        raise ValueError(f"tasks {sorted(names)} do not match the gain matrix's "
                         f"{sorted(gain.tasks)}")
    if not gain.is_complete():
        raise ValueError(f"gain matrix is missing cells {gain.missing_cells()}")
    if mtl_cost is None:
        mtl_cost = 2.0 * _real("stl_cost", stl_cost)
    for label, value in (("budget", budget), ("stl_cost", stl_cost), ("mtl_cost", mtl_cost)):
        if math.isnan(_real(label, value)):
            raise ValueError(f"{label} must be a number, got NaN")
    if stl_cost <= 0 or mtl_cost <= 0:
        raise ValueError(f"costs must be positive, got stl={stl_cost}, mtl={mtl_cost}")

    order, n = sorted(names), len(names)  # index order is encoding order
    index = {name: i for i, name in enumerate(order)}
    gains = [[0.0] * n for _ in range(n)]
    for (p, t), value in gain.cells().items():
        gains[index[p]][index[t]] = value
    completions = _Completions(gains, _limit(budget), stl_cost, mtl_cost)
    if not math.isfinite(completions.slack):
        raise ValueError("gains too large: the sum of each task's largest |gain| overflows")
    everyone = (1 << n) - 1
    solo = [gains[partners[0]][t] for t, partners in enumerate(completions.by_solo_gain)]
    upside = [max(0.0, v) for v in solo]
    best = completions.best(everyone, 0.0, solo, upside, -math.inf, first=False)
    if best is None:
        raise InfeasibleGroupingError(
            f"no valid grouping of {len(names)} tasks fits budget {budget} "
            f"(stl_cost={stl_cost}, mtl_cost={mtl_cost})")

    goal, floor, limit = best - completions.slack, completions.floor, completions.limit
    chosen, served, used, spent, total = [], 0, [0] * n, 0.0, 0.0
    for training, serving, serves, directed in _encoding_order(n):
        left, cost = everyone ^ (served | serves), (stl_cost, mtl_cost)[len(training) - 1]
        if (served & serves or used[training[0]] >> training[-1] & 1  # a used pair
                or spent + cost + floor[left.bit_count()] > limit):
            continue
        after = total  # summed task by task, in order
        for p, t in directed:
            after += gains[p][t]
        state = completions.carry(used, solo, upside, training, serving, left)
        # Every upside summed, the served tasks' zeros included, is bit for bit
        # the index-order sum over the tasks left: the search's root bound.
        if sum(state[2]) < goal - after or completions.best(
                left, spent + cost, *state[1:], goal - after, first=True) is None:
            continue
        chosen.append((training, serving, cost))
        served, spent, total, (used, solo, upside) = served | serves, spent + cost, after, state
        if served == everyone:
            break

    grouping = Grouping(tuple(
        ModelCandidate(tuple(order[t] for t in training), tuple(order[t] for t in serving), cost)
        for training, serving, cost in chosen), budget)
    return grouping, total


@cache
def _encoding_order(n: int) -> tuple[tuple, ...]:
    """Every candidate, in encoding order: training, serving, serving mask, gain cells."""
    candidates = [((t,), (t,)) for t in range(n)]
    for a, b in combinations(range(n), 2):
        candidates += [((a, b), (a,)), ((a, b), (a, b)), ((a, b), (b,))]
    return tuple((tr, sv, sum(1 << t for t in sv), tuple((sum(tr) - t, t) for t in sv)
                  if len(tr) == 2 else ()) for tr, sv in sorted(candidates))

"""Independent reference implementations used to check the real code.

Everything here is deliberately naive: central finite differences for
gradients, O(n^2) pair counting for rank correlations, and exhaustive
enumeration (or, for the best total at larger n, a DP over task subsets)
for the grouping optimizer. Slow is fine; these only run in
tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np


def finite_difference_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                           step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f at x, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + step
        hi = f(x)
        xf[i] = orig - step
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * step)
    return grad


def pearson_naive(x: Sequence[float], y: Sequence[float]) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc)) * math.sqrt(float(yc @ yc))
    if denom == 0.0:
        raise ZeroDivisionError("constant input")
    return float(xc @ yc) / denom


def rankdata_naive(values: Sequence[float]) -> list[float]:
    """Average ranks (1-based); ties share the mean of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman_naive(x: Sequence[float], y: Sequence[float]) -> float:
    return pearson_naive(rankdata_naive(list(x)), rankdata_naive(list(y)))


def kendall_tau_naive(x: Sequence[float], y: Sequence[float],
                      variant: str = "b") -> float:
    """Kendall tau by brute-force enumeration of all pairs.

    tau-a divides by the total pair count; tau-b corrects both
    denominators for ties.
    """
    n = len(x)
    if n != len(y) or n < 2:
        raise ValueError("need two same-length sequences of length >= 2")
    concordant = discordant = ties_x = ties_y = 0
    for i, j in itertools.combinations(range(n), 2):
        dx = (x[i] > x[j]) - (x[i] < x[j])
        dy = (y[i] > y[j]) - (y[i] < y[j])
        if dx == 0 and dy == 0:
            ties_x += 1
            ties_y += 1
        elif dx == 0:
            ties_x += 1
        elif dy == 0:
            ties_y += 1
        elif dx == dy:
            concordant += 1
        else:
            discordant += 1
    total = n * (n - 1) // 2
    if variant == "a":
        return (concordant - discordant) / total
    denom = math.sqrt((total - ties_x) * (total - ties_y))
    if denom == 0.0:
        raise ZeroDivisionError("all pairs tied in one input")
    return (concordant - discordant) / denom


def enumerate_groupings(task_names: Sequence[str], stl_cost: float,
                        budget: float, mtl_cost: float | None = None):
    """Yield every way to serve each task exactly once within the budget.

    Candidates are single-task models (cost ``stl_cost``) and one two-task
    model per unordered pair (cost ``mtl_cost``, default ``2 * stl_cost``)
    which may serve one or both of its tasks. A grouping is a set of
    (kind, tasks, serves) triples.
    """
    if mtl_cost is None:
        mtl_cost = 2.0 * stl_cost
    names = list(task_names)
    candidates = [("stl", (t,), (t,)) for t in names]
    for a, b in itertools.combinations(names, 2):
        for serves in ((a,), (b,), (a, b)):
            candidates.append(("mtl", (a, b), serves))

    def cost(c):
        return stl_cost if c[0] == "stl" else mtl_cost

    def rec(remaining: frozenset, chosen: tuple, spent: float):
        if not remaining:
            yield chosen
            return
        pivot = min(remaining)
        for c in candidates:
            if pivot not in c[2]:
                continue
            sset = set(c[2])
            if not sset <= remaining:
                continue
            if c[0] == "mtl" and any(d[0] == "mtl" and set(d[1]) == set(c[1]) for d in chosen):
                continue  # at most one model per pair
            new_spent = spent + cost(c)
            if new_spent > budget + 1e-9:
                continue
            yield from rec(remaining - sset, chosen + (c,), new_spent)

    yield from rec(frozenset(names), (), 0.0)


def best_grouping_naive(task_names: Sequence[str], gains: dict,
                        stl_cost: float, budget: float, mtl_cost: float | None = None):
    """Exhaustively maximize summed served-task gain; None when infeasible.

    ``gains[(a, b)]`` is the gain of task ``a`` served by the two-task
    model trained on {a, b}; STL-served tasks contribute 0. Ties are
    broken by the lexicographic encoding of the grouping (sorted candidate
    descriptions).
    """
    best = None
    best_key = None
    for grouping in enumerate_groupings(task_names, stl_cost, budget, mtl_cost):
        total = 0.0
        for kind, tasks, serves in grouping:
            if kind == "mtl":
                for t in serves:
                    other = tasks[0] if tasks[1] == t else tasks[1]
                    total += gains[(t, other)]
        key = tuple(sorted((tuple(sorted(tasks)), tuple(sorted(serves)))
                           for _, tasks, serves in grouping))
        if best is None or total > best[0] or (total == best[0] and key < best_key):
            best = (total, grouping)
            best_key = key
    return best


def best_total_by_subsets(task_names: Sequence[str], gains: dict, stl_cost: float,
                          budget: float, mtl_cost: float) -> float | None:
    """The best summed served-task gain by a DP over task subsets; None if infeasible.

    ``gains`` is keyed as in :func:`best_grouping_naive`. Each task is served
    by its single-task model (gain 0), alone by a two-task model with its
    best partner, or together with another task by one two-task model. The
    rule that a pair trains at most one model is dropped: two models of one
    pair that each serve one task are never better than one model serving
    both, so the best total is the same.
    """
    names = list(task_names)
    solo = [max(gains[(t, w)] for w in names if w != t) for t in names]

    @functools.lru_cache(maxsize=None)
    def table(mask: int) -> dict:
        """(two-task models, single-task models) -> best gain of serving ``mask``."""
        if not mask:
            return {(0, 0): 0.0}
        p = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << p)
        out: dict = {}

        def offer(key, value):
            if value > out.get(key, -math.inf):
                out[key] = value
        for (m, k), v in table(rest).items():
            offer((m, k + 1), v)
            offer((m + 1, k), v + solo[p])
        for q in range(len(names)):
            if rest >> q & 1:
                pair = gains[(names[p], names[q])] + gains[(names[q], names[p])]
                for (m, k), v in table(rest & ~(1 << q)).items():
                    offer((m + 1, k), v + pair)
        return out

    totals = [v for (m, k), v in table((1 << len(names)) - 1).items()
              if m * mtl_cost + k * stl_cost <= budget + 1e-9]
    return max(totals) if totals else None

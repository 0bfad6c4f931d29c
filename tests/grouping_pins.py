"""Pinned optimizer results at n = 7..10, where the exhaustive oracle is too slow.

``tests/data/grouping_pins.json`` holds the grouping encoding and the exact
total ``optimize_grouping`` returned for each instance of
``pin_instances``. ``test_grouping.py`` solves them again and requires the
same encodings and ``==`` totals; ``scripts/make_grouping_pins.py``
rewrites the file. Shared by both so they cannot disagree on the layout.
"""

from __future__ import annotations

from itertools import product
from pathlib import Path

import numpy as np

from mtl_affinity.grouping import optimize_grouping
from mtl_affinity.matrices import TaskMatrix

PINS_PATH = Path(__file__).resolve().parent / "data" / "grouping_pins.json"
SIZES = (7, 8, 9, 10)
# "steps" gains are multiples of 0.1, so many groupings tie within the slack.
GAIN_KINDS = ("continuous", "steps")
BUDGET_FACTORS = (1.0, 1.5, 2.0)
MTL_COSTS = (1.5, 2.0, 3.0)
SEEDS = (0, 1)


def pin_gains(n: int, kind: str, seed: int) -> TaskMatrix:
    rng = np.random.default_rng([seed, n, GAIN_KINDS.index(kind)])
    names = [f"t{i}" for i in range(n)]
    cells = [(w, t) for w in names for t in names if w != t]
    values = (rng.uniform(-0.2, 0.3, len(cells)) if kind == "continuous"
              else 0.1 * rng.integers(-2, 4, len(cells)))
    return TaskMatrix(names, {cell: float(v) for cell, v in zip(cells, values)})


def pin_instances():
    """(label, gain matrix, budget, mtl_cost) for every pinned instance."""
    for n, kind, factor, mtl_cost, seed in product(SIZES, GAIN_KINDS, BUDGET_FACTORS,
                                                   MTL_COSTS, SEEDS):
        label = f"n{n}-{kind}-budget{factor}n-mtl{mtl_cost}-seed{seed}"
        yield label, pin_gains(n, kind, seed), factor * n, mtl_cost


def solve_pin(gain: TaskMatrix, budget: float, mtl_cost: float) -> dict:
    """The optimizer's grouping encoding and total, JSON-ready."""
    grouping, total = optimize_grouping(gain.tasks, gain, budget, mtl_cost=mtl_cost)
    return {"encoding": [[list(training), list(serving)]
                         for training, serving in grouping.encoding()],
            "total": total}

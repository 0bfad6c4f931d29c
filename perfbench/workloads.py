"""The benchmark workloads: inputs from the seed, operations, output checks.

* ``train``: ``run_experiment`` on a generated 4-task suite with scores
  IAS, RSA, GS, GT and LI, one training seed per operation: 4 single-task,
  6 pairwise and 12 label-injected models. Its untimed warm-up requests no
  GS or GT, which is the control for probes run when nobody asked for them.
* ``offline``: ``optimize_grouping`` on a fixed set of seeded random gain
  matrices, one instance per operation, then ``paper_data.check_tables()``
  repeated; trains nothing.

Every operation's output is checked, including against reference values
stored in ``references.json`` (written by ``make_references.py``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import shutil
import statistics
from pathlib import Path

import numpy as np

from mtl_affinity import experiment, grouping, paper_data
from mtl_affinity.experiment import ExperimentConfig
from mtl_affinity.matrices import TaskMatrix

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"

# Workload seeds map onto this many input sets, each with stored references.
POOL = 16
# Gains and scores may differ from the stored references by this much, so a
# change that only reorders float sums is judged on values, not on bytes.
VALUE_ABS_TOL = 1e-6
VALUE_REL_TOL = 1e-6
# Grouping totals are sums of a handful of gains.
TOTAL_ABS_TOL = 1e-9
BOUNDED_SCORES = ("GS", "IAS", "RSA")  # scores that must lie in [-1, 1]

TRAINING_SCORES = ("IAS", "RSA", "GS", "GT", "LI")
# The warm-up leaves out the scores that read the MTL probes.
WARMUP_SCORES = ("IAS", "RSA", "LI")
N_TASKS = 4
# (name, number of tasks, budget as a multiple of the task count)
INSTANCES = (("n7", 7, 1.5), ("n8", 8, 1.25), ("n10", 10, 1.0))
# Every workload reports a grouping.optimize_s metric for each instance.
INSTANCE_NAMES = tuple(name for name, _, _ in INSTANCES)
# check_tables() takes about 10 ms, so an offline round repeats it.
TABLES_PER_ROUND = 10


def pool_seed(seed: int) -> int:
    return seed % POOL


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def training_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(n_tasks=N_TASKS, scores=TRAINING_SCORES,
                            seeds=(pool_seed(seed),), out_dir=str(WORK / "train"))


def warmup_config(seed: int) -> ExperimentConfig:
    """A cheap run through the training code paths: 3 tasks, 1 epoch, no GS or GT."""
    return ExperimentConfig(n_tasks=3, epochs=1, scores=WARMUP_SCORES,
                            seeds=(pool_seed(seed),), out_dir=str(WORK / "train-warmup"))


def gain_instance(seed: int, n: int) -> TaskMatrix:
    rng = np.random.default_rng([pool_seed(seed), n])
    names = [f"t{i}" for i in range(n)]
    return TaskMatrix(names, {(w, t): float(rng.uniform(-0.2, 0.3))
                              for w in names for t in names if w != t})


def offline_inputs(seed: int) -> list[tuple[str, TaskMatrix, float]]:
    return [(name, gain_instance(seed, n), factor * n) for name, n, factor in INSTANCES]


def _matrix_rows(matrix: TaskMatrix) -> list[list[float | None]]:
    return [[None if math.isnan(v) else v for v in row] for row in matrix.as_array()]


def training_values(result) -> dict[str, list]:
    """The gain and score matrices of one seed, as JSON-ready nested lists."""
    values = {"gain": _matrix_rows(result.gain)}
    for kind, matrix in result.affinities.items():
        values[kind] = _matrix_rows(matrix)
    return values


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= VALUE_ABS_TOL + VALUE_REL_TOL * abs(want)


def _span(tracer, name: str):
    """A span of ``tracer``, or no span in an untraced run."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def matrix_problems(results, scores: tuple[str, ...]) -> list[str]:
    """One seed's gain and score matrices: present, complete, finite, in range."""
    if len(results) != 1:
        return [f"expected 1 seed result, got {len(results)}"]
    result = results[0]
    problems = []
    missing = sorted(set(scores) - set(result.affinities))
    if missing:
        problems.append(f"score matrices missing: {missing}")
    for kind, matrix in {"gain": result.gain, **result.affinities}.items():
        if not matrix.is_complete():
            problems.append(f"{kind} matrix is missing cells {matrix.missing_cells()}")
            continue
        values = matrix.as_array()
        cells = values[~np.eye(len(matrix.tasks), dtype=bool)]
        if not np.all(np.isfinite(cells)):
            problems.append(f"{kind} matrix has non-finite cells")
        elif kind in BOUNDED_SCORES and np.any(np.abs(cells) > 1.0):
            problems.append(f"{kind} matrix has cells outside [-1, 1]")
    return problems


class TrainingWorkload:
    """train: one ``run_experiment`` seed per operation."""

    setup_kind = "training"
    primary = "seed_wall_s"
    op_wall_basis = "median of the seeds, raw wall seconds"
    # Span names (tracing.TARGETS) that every operation of this workload calls.
    exercises = frozenset(name for _, _, name, _ in tracing.TARGETS
                          if name != "grouping.candidates_built")

    def __init__(self, seed: int, references: dict):
        self.seed = seed
        self.config = training_config(seed)
        self.setup_argument = json.dumps(self.config.to_json_dict())
        self.reference = references["train"][str(pool_seed(seed))]
        self.first_files: dict[str, bytes] | None = None
        shutil.rmtree(Path(self.config.out_dir), ignore_errors=True)

    def describe(self) -> dict:
        return {"training_seed": pool_seed(self.seed),
                "run_experiment": self.config.to_json_dict()}

    def warm_up(self, run, tracer=None) -> None:
        """The untimed warm-up, checked like an operation but without references."""
        config = warmup_config(self.seed)
        with _span(tracer, tracing.RUN_SPAN):
            run.warm_up("train warm-up", lambda: experiment.run_experiment(config),
                        lambda results: matrix_problems(results, config.scores))

    def op_wall(self, samples: dict[str, list[tuple[float, float]]]) -> float:
        """Raw wall seconds: the speed probe does not follow a training seed."""
        return statistics.median(wall for wall, _ in samples[self.primary])

    def round(self, run, tracer=None) -> dict[str, list[tuple[float, float]]]:
        """One operation; its (wall, reference-speed) seconds under its metric."""
        def call():
            with _span(tracer, tracing.RUN_SPAN):
                return experiment.run_experiment(self.config)
        _, times = run.attempt(f"train seed {pool_seed(self.seed)}", call, self.check)
        return {self.primary: [times]}

    def check(self, results) -> list[str]:
        """Problems with one operation's output; empty when it is correct."""
        problems = matrix_problems(results, self.config.scores)
        if len(results) != 1:
            return problems
        result = results[0]
        problems += self._check_files(result.directory)
        for kind, got in training_values(result).items():
            want = self.reference.get(kind)
            if want is None:
                problems.append(f"no reference values for {kind}")
                continue
            bad = [(i, j) for i, (gr, wr) in enumerate(zip(got, want))
                   for j, (g, w) in enumerate(zip(gr, wr))
                   if (g is None) != (w is None) or (g is not None and not _close(g, w))]
            if bad or len(got) != len(want):
                problems.append(f"{kind} differs from the reference at cells {bad[:4]}")
        return problems

    def _check_files(self, directory: Path) -> list[str]:
        files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
        if self.first_files is None:
            self.first_files = files
            return []
        if files.keys() != self.first_files.keys():
            return [f"repeat wrote files {sorted(files)}, first run {sorted(self.first_files)}"]
        changed = [n for n in files if files[n] != self.first_files[n]]
        return [f"repeat changed bytes of {changed}"] if changed else []


class OfflineWorkload:
    """offline: solve each grouping instance, then re-derive the tables."""

    setup_kind = "offline"
    setup_argument = ""
    primary = "group_wall_s"
    op_wall_basis = "sum of the instance medians, at reference speed"
    exercises = frozenset({"evaluation.evaluate", "stats.kendall_tau", "stats.pearson",
                           "grouping.candidates_built"})

    def __init__(self, seed: int, references: dict):
        self.seed = seed
        self.problems = offline_inputs(seed)
        self.reference = references["offline"][str(pool_seed(seed))]
        self.tables_rows = references["offline_tables_rows"]

    def describe(self) -> dict:
        return {"gain_seed": pool_seed(self.seed), "tables_per_round": TABLES_PER_ROUND,
                "instances": [{"name": name, "n": len(gain.tasks), "budget": budget}
                              for name, gain, budget in self.problems]}

    def warm_up(self, run, tracer=None) -> None:
        with _span(tracer, tracing.TABLES_SPAN):
            run.warm_up("check_tables warm-up", paper_data.check_tables, self.check_tables)

    def op_wall(self, samples: dict[str, list[tuple[float, float]]]) -> float:
        return sum(statistics.median(ref for _, ref in samples[f"{self.primary}.{name}"])
                   for name, _, _ in self.problems)

    def round(self, run, tracer=None) -> dict[str, list[tuple[float, float]]]:
        """Each grouping instance as one operation, then the table checks."""
        times = {}
        for name, gain, budget in self.problems:
            _, timed = run.attempt(f"grouping {name}",
                                   functools.partial(self.solve, tracer, name, gain, budget),
                                   functools.partial(self.check_grouping, name, gain))
            times[f"{self.primary}.{name}"] = [timed]

        def tables():
            with _span(tracer, tracing.TABLES_SPAN):
                return paper_data.check_tables()
        times["tables_wall_s"] = [run.attempt("check_tables", tables, self.check_tables)[1]
                                  for _ in range(TABLES_PER_ROUND)]
        return times

    @staticmethod
    def solve(tracer, name: str, gain: TaskMatrix, budget: float):
        with _span(tracer, tracing.OPTIMIZE_SPAN + name):
            return grouping.optimize_grouping(gain.tasks, gain, budget)

    def check_grouping(self, name: str, gain: TaskMatrix, solved) -> list[str]:
        chosen, total = solved
        want = self.reference[name]
        invalid = grouping.is_valid_grouping(gain.tasks, chosen)
        if invalid:
            return [f"{name}: {v}" for v in invalid]
        problems = []
        if abs(total - want["total"]) > TOTAL_ABS_TOL:
            problems.append(f"{name}: total {total!r}, reference {want['total']!r}")
        if abs(grouping.aggregate_performance(chosen, gain) - total) > TOTAL_ABS_TOL:
            problems.append(f"{name}: total {total!r} is not the grouping's gain")
        if json.loads(json.dumps(chosen.encoding())) != want["encoding"]:
            problems.append(f"{name}: grouping {chosen.encoding()} differs from the reference")
        return problems

    def check_tables(self, rows) -> list[str]:
        problems = [row.line() for row in rows if not row.ok]
        if len(rows) != self.tables_rows:
            problems.append(f"check_tables gave {len(rows)} rows, expected {self.tables_rows}")
        return problems


def make(workload: str, seed: int):
    references = load_references()
    if workload == "offline":
        return OfflineWorkload(seed, references)
    return TrainingWorkload(seed, references)

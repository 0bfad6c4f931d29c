"""End-to-end experiment harness: train, score, evaluate, emit reports.

One run covers a list of seeds. Per seed the harness builds (or loads) the
task suite and trains the roster ``plan_roster`` lists: STL and pair models
always, injected models and pair probes only for the scores that need them
(the roster table in :mod:`evaluation`), each model under its job key, with
one stacked trainer call per model family; gain and LI read the test losses
the trainers record in the traces. It then scores each requested kind in
one loop over the cells its symmetry picks (``_CELLS`` computes one),
assembles the matrices next to the measured gain matrix, runs the three
evaluation levels, and writes one directory of CSV/JSON report files.

Everything is deterministic in the config: rerunning a seed produces
byte-identical files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import platform
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__
from .evaluation import (
    MODEL_FAMILIES,
    CostModel,
    EvaluationReport,
    assemble_matrix,
    evaluate,
    level1_csv,
    level2_csv,
    level3_csv,
    lookup_kind,
    mtl_gain,
    score_cost,
    score_cost_expression,
)
from .matrices import TaskMatrix, write_table
from .models import (
    BackboneConfig,
    Model,
    TrainConfig,
    TrainingDivergedError,
    TrainTrace,
    eval_rows,
    half_capacity,
    model_key,
    multiply_add_count,
    train_injected,
    train_mtl,
    train_stl,
)
from .scores import (
    gradient_similarity,
    gradient_transference,
    input_attribution_similarity,
    label_injection,
    rsa,
)
from .stats import DegenerateInputError
from .tasks import (
    TaskSuite,
    check_suite_args,
    generate_latent_factor_suite,
    load_dataset,
    load_taxonomy_distances,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentError",
    "Job",
    "SeedResult",
    "costs_csv",
    "manifest_json",
    "plan_roster",
    "run_experiment",
    "scatter_csv",
]

# Evaluation needs at least 2 partners per target for a correlation.
MIN_EVAL_TASKS = 3


class ExperimentError(RuntimeError):
    """A run could not complete; the message names the failing piece."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Each config field's declared type -> (what a value must be, its check). A
# bool is no number, and an int in a float field is kept, so JSON 1 stays 1;
# JSON's NaN and Infinity are refused.
_FIELD_TYPES = {
    "int": ("an integer", _is_int),
    "float": ("a finite number",
              lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v))),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "tuple[int, ...]": ("a list of integers",
                        lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v))),
    "tuple[str, ...]": ("a list of strings", lambda v: isinstance(v, (list, tuple))
                        and all(isinstance(s, str) for s in v)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; JSON-serializable, hashable by content.

    The dataset comes either from the generator parameters (the default)
    or from ``dataset_path``, a directory written by ``save_dataset``; in
    the latter case the generator parameters are ignored and the same
    suite is reused for every seed (seeds then vary training only).
    """

    # dataset generation
    n_tasks: int = 3
    d_latent: int = 12
    d_in: int = 24
    n_examples: int = 2000
    overlap: float = 0.5
    noise_std: float = 0.1
    dataset_path: str | None = None
    taxonomy_path: str | None = None
    # backbone and training
    hidden: tuple[int, ...] = (32, 16)
    latent_dim: int = 16
    epochs: int = 20
    initial_lr: float = 0.02
    lr_decay: float = 0.95
    batch_size: int = 32
    eval_batch_size: int = 256
    # what to compute and where to put it
    scores: tuple[str, ...] = ("IAS", "RSA", "GS", "GT")
    seeds: tuple[int, ...] = (0,)
    out_dir: str = "runs/experiment"
    display_gs_x100: bool = False

    def __post_init__(self):
        for f in dataclasses.fields(self):
            what, ok = _FIELD_TYPES[f.type]
            value = getattr(self, f.name)
            if not ok(value):
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
            if isinstance(value, list):
                object.__setattr__(self, f.name, tuple(value))
        if not self.scores:
            raise ValueError("scores must name at least one score kind")
        for kind in self.scores:
            lookup_kind(kind)
        if len(set(self.scores)) != len(self.scores):
            raise ValueError(f"scores must be unique, got {list(self.scores)}")
        if not self.seeds:
            raise ValueError("seeds must contain at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be unique, got {list(self.seeds)}")
        negative = [s for s in self.seeds if s < 0]
        if negative:
            raise ValueError(f"seeds must be non-negative, got {negative}")
        if "TD" in self.scores and not self.taxonomy_path:
            raise ValueError("score TD needs taxonomy_path (a taxonomy-distance CSV)")
        if self.dataset_path is None and self.n_tasks < 2:
            raise ValueError(f"n_tasks must be >= 2 to form pairs, got {self.n_tasks}")
        if not self.hidden:
            raise ValueError("hidden must list at least one hidden width")
        # The configs built from these fields check them; 1 stands in for d_in.
        self.train_config(seed=0)
        BackboneConfig(1, self.hidden, self.latent_dim)
        for field, least in (("eval_batch_size", 3), ("latent_dim", 2)):
            if "RSA" in self.scores and getattr(self, field) < least:
                raise ValueError(f"score RSA needs {field} >= {least}, got {getattr(self, field)}")
        if self.dataset_path is None:
            check_suite_args(self.n_tasks, self.d_latent, self.d_in, self.n_examples,
                             self.overlap, self.noise_std)
            _backbones(self, self.d_in)

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)  # json writes the tuples as lists

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "ExperimentConfig":
        if not isinstance(d, Mapping):
            raise ValueError(f"a config must be a JSON object, got {type(d).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; known: {sorted(known)}")
        return cls(**dict(d))

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        """The config in a JSON file; any error is a ValueError led by ``path``."""
        try:
            return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except OSError as exc:
            raise ValueError(f"{path}: {exc.strerror or exc}") from None
        except ValueError as exc:  # undecodable text or JSON, or a field out of range
            raise ValueError(f"{path}: {exc}") from None

    def sha256(self) -> str:
        canon = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(seed=seed, epochs=self.epochs, initial_lr=self.initial_lr,
                           lr_decay=self.lr_decay, batch_size=self.batch_size,
                           eval_batch_size=self.eval_batch_size)


@dataclass
class SeedResult:
    """Everything computed for one seed, plus where it was written."""
    seed: int
    directory: Path
    gain: TaskMatrix                       # fraction; the files hold percent
    affinities: dict[str, TaskMatrix]      # score kind -> complete matrix
    reports: dict[str, EvaluationReport]   # empty when n < MIN_EVAL_TASKS
    c_s: float                             # measured per-example multiply-adds
    notes: dict[str, str]


def _backbones(config: ExperimentConfig, d_in: int) -> dict[str, BackboneConfig]:
    """The full backbone for inputs of width ``d_in`` and its half-capacity version."""
    full = BackboneConfig(d_in, config.hidden, config.latent_dim)
    try:
        return {"half": half_capacity(full), "full": full}
    except ValueError as exc:
        raise ValueError(f"hidden={config.hidden} has no half-capacity backbone "
                         f"for input width {d_in}: {exc}") from None


def _load_suite(config: ExperimentConfig, seed: int) -> TaskSuite:
    if config.dataset_path is not None:
        return load_dataset(config.dataset_path)
    return generate_latent_factor_suite(
        seed=seed, n_tasks=config.n_tasks, d_latent=config.d_latent,
        d_in=config.d_in, n_examples=config.n_examples,
        overlap=config.overlap, noise_std=config.noise_std)


class Job(NamedTuple):
    """One model of the roster: its family and its tasks in order."""
    family: str                            # a key of MODEL_FAMILIES
    tasks: tuple[str, ...]

    @property
    def key(self) -> str:
        return model_key(self.family, self.tasks)


def plan_roster(names: Sequence[str], scores: Sequence[str]) -> tuple[Job, ...]:
    """Every model one seed trains, in training order: the members of each family.

    STL and pair (``mtl``) models always, as the gain matrix needs them;
    injected models exactly when a requested score needs the ``inj`` family.
    """
    needed = {"stl", "mtl"}.union(*(lookup_kind(kind).families for kind in scores))
    return tuple(Job(family, tasks) for family, row in MODEL_FAMILIES.items()
                 if family in needed for tasks in row.members(names))


def _note_skips(notes: dict[str, str], label: str, value) -> None:
    skipped = getattr(value, "skipped", 0)
    if skipped:
        notes[label] = f"skipped {skipped} of {skipped + value.used}"


# How a seed computes one cell of each score kind: (run, target, partner) -> the
# value for ``target`` trained with ``partner``, cell (partner, target). Each entry
# looks its score up in this module when called, so a tracer's wrapper sees it.
_CELLS: dict[str, Callable[["_SeedRun", str, str], float]] = {
    "TD": lambda run, t, p: run.taxonomy.get(p, t),
    "IAS": lambda run, t, p: input_attribution_similarity(
        run.model("stl", t), run.model("stl", p), run.eval_x, run.eval_y[t], run.eval_y[p]),
    "RSA": lambda run, t, p: rsa(run.model("stl", t), run.model("stl", p), run.eval_x),
    "LI": lambda run, t, p: label_injection(run.stl_loss[t], run.trace("inj", t, p).test_loss[t]),
    "GS": lambda run, t, p: gradient_similarity(run.trace("mtl", *sorted((t, p)))),
    "GT": lambda run, t, p: gradient_transference(run.trace("mtl", *sorted((t, p))), t),
}


class _SeedRun:
    """Working state for one seed: the trained roster and its test losses."""

    def __init__(self, config: ExperimentConfig, seed: int,
                 taxonomy: TaskMatrix | None = None):
        suite = _load_suite(config, seed)
        self.specs = {s.name: s for s in suite.specs}
        self.names = tuple(s.name for s in suite.specs)
        self.pairs = MODEL_FAMILIES["mtl"].members(self.names)
        if len(self.names) < 2:
            raise ExperimentError(f"need at least 2 tasks, dataset has {len(self.names)}")
        self.taxonomy = taxonomy  # the TD source
        missing = [t for t in self.names if taxonomy is not None and t not in taxonomy.tasks]
        if missing:
            raise ExperimentError(f"taxonomy {config.taxonomy_path} lacks the suite's "
                                  f"tasks {missing}")
        if taxonomy is not None and len(self.names) >= MIN_EVAL_TASKS:
            flat = [t for t in self.names
                    if len({taxonomy.get(w, t) for w in self.names if w != t}) == 1]
            if flat:
                raise ExperimentError(
                    f"taxonomy {config.taxonomy_path}: targets {flat} have equidistant "
                    f"partners, so TD's level-1 and level-2 correlations are undefined")
        self.dataset = suite.dataset
        self.seed = seed
        cfg = config.train_config(seed)
        try:
            backbones = _backbones(config, self.dataset.d_in)
        except ValueError as exc:
            raise ExperimentError(str(exc)) from exc
        self.notes: dict[str, str] = {}

        # One trainer call per model family. The trainers are looked up in
        # this module's namespace at call time, so a wrapper installed there
        # (a tracer) sees every call.
        jobs = {f: [j for j in plan_roster(self.names, config.scores) if j.family == f]
                for f in MODEL_FAMILIES}
        specs = {f: [tuple(self.specs[t] for t in j.tasks) for j in group]
                 for f, group in jobs.items()}
        backbone = {f: backbones[row.capacity] for f, row in MODEL_FAMILIES.items()}
        # The pair probes run when a requested score reads the pair models.
        probes = any("mtl" in lookup_kind(kind).families for kind in config.scores)
        try:
            trained = {
                "stl": train_stl([t for t, in specs["stl"]], self.dataset, backbone["stl"], cfg),
                "mtl": train_mtl(specs["mtl"], self.dataset, backbone["mtl"], cfg, probes),
                "inj": (train_injected(specs["inj"], self.dataset, backbone["inj"], cfg)
                        if jobs["inj"] else []),
            }
        except TrainingDivergedError as exc:
            raise ExperimentError(str(exc)) from exc
        self.trained: dict[str, tuple[Model, TrainTrace]] = {
            job.key: model for f, group in jobs.items() for job, model in zip(group, trained[f])}

        self.eval_x, self.eval_y = self.dataset.batch(
            eval_rows(self.dataset, cfg.eval_batch_size), self.names)
        self.stl_loss = {t: self.trace("stl", t).test_loss[t] for t in self.names}

    def model(self, family: str, *tasks: str) -> Model:
        return self.trained[model_key(family, tasks)][0]

    def trace(self, family: str, *tasks: str) -> TrainTrace:
        return self.trained[model_key(family, tasks)][1]

    def gain_matrix(self) -> TaskMatrix:
        gain = TaskMatrix(self.names)
        for a, b in self.pairs:
            mtl_loss = self.trace("mtl", a, b).test_loss
            for target, partner in ((a, b), (b, a)):
                gain.set(partner, target, mtl_gain(self.stl_loss[target], mtl_loss[target]))
        return gain

    def affinity(self, kind: str) -> TaskMatrix:
        """One ``_CELLS`` call per cell: per sorted pair (the first task is the
        target) for a symmetric kind, per (target, partner) for a directed one."""
        symmetric = lookup_kind(kind).symmetric
        values: dict[tuple[str, str], float] = {}
        for target, partner in self.pairs if symmetric else permutations(self.names, 2):
            try:
                value = _CELLS[kind](self, target, partner)
            except DegenerateInputError as exc:
                cell = (f"pair {(target, partner)!r}" if symmetric
                        else f"partner {partner!r} -> target {target!r}")
                raise ExperimentError(f"seed {self.seed}, score {kind}, {cell}: {exc}") from exc
            _note_skips(self.notes, f"{kind} {target}{'/' if symmetric else '|'}{partner}", value)
            values[(partner, target)] = float(value)
        return assemble_matrix(kind, self.names, values)

    def measured_c_s(self) -> float:
        # The cost unit: mean per-example multiply-adds of one single-task
        # model. Heads differ by output width, hence the mean.
        return float(np.mean([multiply_add_count(self.model("stl", t)) for t in self.names]))


def costs_csv(rows: Sequence[tuple]) -> str:
    """The cost table: one (score, expression, n, c_s, multiply_adds) row per score."""
    return write_table([["score", "expression", "n", "c_s", "multiply_adds"], *rows])


def scatter_csv(rows: Sequence[tuple]) -> str:
    """The plot points: one (score, target, with, score_value, gain in percent) row each."""
    return write_table([["score", "target", "with", "score_value", "gain"], *rows])


def manifest_json(config: ExperimentConfig, seed: int, c_s: float,
                  notes: Mapping[str, str]) -> str:
    payload = {
        "config": config.to_json_dict(),
        "config_sha256": config.sha256(),
        "seed": seed,
        "c_s": c_s,
        "notes": dict(sorted(notes.items())),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "mtl_affinity": __version__,
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _scatter_rows(affinities: Mapping[str, TaskMatrix],
                  gain_percent: TaskMatrix) -> list[tuple]:
    rows = []
    tasks = gain_percent.tasks
    for kind, matrix in affinities.items():
        for target in tasks:
            for partner in tasks:
                if partner == target:
                    continue
                rows.append((kind, target, partner, matrix.get(partner, target),
                             gain_percent.get(partner, target)))
    return rows


def _x100(matrix: TaskMatrix) -> TaskMatrix:
    """The matrix with every cell times 100: gain in percent, GS for display."""
    return TaskMatrix(matrix.tasks, {key: 100.0 * v for key, v in matrix.cells().items()})


def _emit_seed_files(directory: Path, config: ExperimentConfig,
                     result: SeedResult, gain_percent: TaskMatrix) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    files["gain.csv"] = gain_percent.to_csv_text()
    for kind, matrix in result.affinities.items():
        shown = _x100(matrix) if kind == "GS" and config.display_gs_x100 else matrix
        files[f"{kind.lower()}.csv"] = shown.to_csv_text()
    if result.reports:
        files["level1.csv"] = level1_csv(result.reports)
        files["level2.csv"] = level2_csv(result.reports)
        files["level3.csv"] = level3_csv(result.reports)
    cost = CostModel(n=len(result.gain.tasks), c_s=result.c_s)
    files["costs.csv"] = costs_csv([
        (kind, score_cost_expression(kind), cost.n, cost.c_s, score_cost(kind, cost))
        for kind in config.scores])
    files["scatter.csv"] = scatter_csv(_scatter_rows(result.affinities, gain_percent))
    files["manifest.json"] = manifest_json(config, result.seed, result.c_s,
                                           result.notes)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


def run_experiment(config: ExperimentConfig,
                   progress: Callable[[str], None] | None = None,
                   ) -> list[SeedResult]:
    """Run every seed in the config and write one report directory each.

    Output layout: ``<out_dir>/seed<k>/`` holding gain.csv (percent), one
    ``<kind>.csv`` per requested score, level1-3.csv (when the suite has
    at least MIN_EVAL_TASKS tasks), costs.csv, scatter.csv, manifest.json.

    Raises:
        ExperimentError: training diverged (the message names the model),
            the dataset has fewer than 2 tasks, the taxonomy lacks some of
            its tasks or leaves a target's TD column constant, a pair's score
            is degenerate (naming seed, score and pair), or a level-1 or
            level-2 correlation is undefined (naming score, level and target).
    """
    say = progress or (lambda _msg: None)
    taxonomy = (load_taxonomy_distances(config.taxonomy_path)
                if "TD" in config.scores else None)
    out_root = Path(config.out_dir)
    results = []
    for seed in config.seeds:
        say(f"seed {seed}: training roster")
        run = _SeedRun(config, seed, taxonomy)
        gain = run.gain_matrix()
        gain_percent = _x100(gain)
        affinities = {kind: run.affinity(kind) for kind in config.scores}
        reports = {}
        if len(run.names) < MIN_EVAL_TASKS:
            run.notes["evaluation"] = f"skipped: {len(run.names)} tasks < {MIN_EVAL_TASKS}"
        else:
            for kind, matrix in affinities.items():
                try:
                    reports[kind] = evaluate(gain_percent, matrix)
                except DegenerateInputError as exc:
                    raise ExperimentError(f"score {kind}: {exc}") from exc
        result = SeedResult(seed=seed, directory=out_root / f"seed{seed}",
                            gain=gain, affinities=affinities, reports=reports,
                            c_s=run.measured_c_s(), notes=run.notes)
        _emit_seed_files(result.directory, config, result, gain_percent)
        say(f"seed {seed}: wrote {result.directory}")
        results.append(result)
    return results

"""Synthetic multi-task suites with a controllable relatedness knob.

Inputs are a random linear mixing of latent factors plus pure-noise
nuisance dimensions. Each task reads out a subset of the latent factors;
the ``overlap`` parameter slides those subsets from pairwise disjoint
(overlap 0) to identical (overlap 1), which is what lets property tests
assert "more shared structure means higher affinity".

Also here: loading user-supplied taxonomy distance matrices, and saving
and loading a suite as files.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .seeding import DATASET, substream

__all__ = [
    "TaskSpec",
    "LatentOrigin",
    "MultiTaskDataset",
    "TaskSuite",
    "TaxonomyDistances",
    "generate_latent_factor_suite",
    "load_taxonomy_distances",
    "save_dataset",
    "load_dataset",
]

KINDS = ("regression", "classification")
SPLIT_NAMES = ("train", "val", "test")
SPLIT_FRACTIONS = (0.70, 0.15, 0.15)


@dataclass(frozen=True)
class LatentOrigin:
    """How a suite task was built: which latent dims, what readout."""
    latent_dims: tuple[int, ...]
    weights: tuple[tuple[float, ...], ...]  # d_subset x output readout matrix
    nonlinear: bool
    noise_std: float


@dataclass(frozen=True)
class TaskSpec:
    name: str
    kind: str
    output_dim: int
    loss_kind: str = ""
    origin: LatentOrigin | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        expected_loss = "mse" if self.kind == "regression" else "cross_entropy"
        if self.loss_kind == "":
            object.__setattr__(self, "loss_kind", expected_loss)
        elif self.loss_kind != expected_loss:
            raise ValueError(f"{self.kind} tasks use {expected_loss}, got {self.loss_kind!r}")
        minimum = 2 if self.kind == "classification" else 1
        if self.output_dim < minimum:
            raise ValueError(f"{self.kind} output_dim must be >= {minimum}, got {self.output_dim}")

    def to_json_dict(self) -> dict:
        d: dict = {"name": self.name, "kind": self.kind,
                   "output_dim": self.output_dim, "loss_kind": self.loss_kind}
        if isinstance(self.origin, LatentOrigin):
            d["origin"] = {"type": "latent", "latent_dims": list(self.origin.latent_dims),
                           "weights": [list(r) for r in self.origin.weights],
                           "nonlinear": self.origin.nonlinear,
                           "noise_std": self.origin.noise_std}
        else:
            d["origin"] = None
        return d

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "TaskSpec":
        origin = None
        o = d.get("origin")
        if o is not None:
            if o["type"] == "latent":
                origin = LatentOrigin(tuple(o["latent_dims"]),
                                      tuple(tuple(r) for r in o["weights"]),
                                      bool(o["nonlinear"]), float(o["noise_std"]))
            else:
                raise ValueError(f"unknown origin type {o['type']!r}")
        return cls(d["name"], d["kind"], int(d["output_dim"]), d["loss_kind"], origin)


@dataclass(frozen=True, eq=False)
class MultiTaskDataset:
    """Shared inputs, per-task labels, and a fixed train/val/test partition.

    Immutable: operations that extend it return a new instance sharing the
    underlying arrays.
    """
    inputs: np.ndarray                       # n_examples x d_in
    labels: Mapping[str, np.ndarray]         # per task; float (n, dim) or int (n,)
    splits: Mapping[str, np.ndarray]         # name -> index array
    seed: int

    def __post_init__(self):
        n = self.inputs.shape[0]
        for name, lab in self.labels.items():
            if lab.shape[0] != n:
                raise ValueError(f"task {name!r} has {lab.shape[0]} labels for {n} examples")
        if set(self.splits) != set(SPLIT_NAMES):
            raise ValueError(f"splits must be exactly {SPLIT_NAMES}, got {sorted(self.splits)}")
        seen = np.concatenate([self.splits[s] for s in SPLIT_NAMES])
        if len(np.unique(seen)) != len(seen) or len(seen) != n or seen.min() != 0 or seen.max() != n - 1:
            raise ValueError("splits must partition the example indices")

    @property
    def n_examples(self) -> int:
        return self.inputs.shape[0]

    @property
    def d_in(self) -> int:
        return self.inputs.shape[1]

    def task_names(self) -> tuple[str, ...]:
        return tuple(self.labels)

    def batch(self, idx: np.ndarray,
              tasks: Sequence[str]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The inputs and the named tasks' labels of the examples ``idx``."""
        return self.inputs[idx], {t: self.labels[t][idx] for t in tasks}


class TaskSuite(NamedTuple):
    specs: tuple[TaskSpec, ...]
    dataset: MultiTaskDataset


def _split_indices(n: int) -> dict[str, np.ndarray]:
    # Contiguous ranges: rows are i.i.d. by construction, so shuffling first
    # would change nothing statistically.
    n_train = int(SPLIT_FRACTIONS[0] * n)
    n_val = int(SPLIT_FRACTIONS[1] * n)
    idx = np.arange(n)
    return {"train": idx[:n_train], "val": idx[n_train:n_train + n_val],
            "test": idx[n_train + n_val:]}


def _latent_subsets(n_tasks: int, d_latent: int, overlap: float) -> list[tuple[int, ...]]:
    size = d_latent // n_tasks
    if size == 0:
        raise ValueError(
            f"disjoint latent subsets are impossible: {n_tasks} tasks need at least "
            f"{n_tasks} latent dims, got {d_latent}")
    shared = int(round(overlap * size))
    private = size - shared
    subsets = []
    for i in range(n_tasks):
        start = shared + i * private
        subsets.append(tuple(range(shared)) + tuple(range(start, start + private)))
    return subsets


def generate_latent_factor_suite(
    seed: int,
    n_tasks: int,
    d_latent: int,
    d_in: int,
    n_examples: int,
    overlap: float,
    noise_std: float,
    *,
    kinds: Sequence[str] | None = None,
    n_classes: int = 3,
    nonlinear: bool = True,
    shared_readouts: bool = False,
) -> TaskSuite:
    """Build a suite of related tasks over one shared input tensor.

    Inputs: columns [0, d_latent) are a fixed random square mixing of the
    latent factors, columns [d_latent, d_in) are pure N(0,1) nuisance.
    Task i reads out latent subset i: regression targets are a (tanh of a)
    linear readout plus N(0, noise_std^2) noise; classification targets are
    the argmax over ``n_classes`` linear readouts of noisy scores.

    Args:
        overlap: 0 gives pairwise-disjoint latent subsets, 1 identical ones;
            in between, a shared block of round(overlap * subset_size) dims.
        kinds: per-task "regression"/"classification"; default alternates,
            starting with regression.
        shared_readouts: reuse one readout matrix for all tasks of a kind
            (only meaningful when subsets have equal size, which they do).

    Deterministic: the same arguments always produce bit-identical output.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap}")
    if noise_std < 0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    if d_latent > d_in:
        raise ValueError(f"d_latent ({d_latent}) must not exceed d_in ({d_in})")
    if n_examples < 30:
        raise ValueError(f"need at least 30 examples, got {n_examples}")
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    if kinds is None:
        kinds = [KINDS[i % 2] for i in range(n_tasks)]
    kinds = list(kinds)
    if len(kinds) != n_tasks or any(k not in KINDS for k in kinds):
        raise ValueError(f"kinds must be {n_tasks} of {KINDS}, got {kinds}")

    subsets = _latent_subsets(n_tasks, d_latent, overlap)
    rng = substream(seed, DATASET)
    factors = rng.standard_normal((n_examples, d_latent))
    # 1/sqrt(d_latent) keeps mixed columns at ~unit variance, matching the
    # nuisance columns regardless of d_latent.
    mixing = rng.standard_normal((d_latent, d_latent)) / np.sqrt(d_latent)
    nuisance = rng.standard_normal((n_examples, d_in - d_latent))
    inputs = np.concatenate([factors @ mixing, nuisance], axis=1)

    size = len(subsets[0])
    shared_w: dict[str, np.ndarray] = {}
    specs: list[TaskSpec] = []
    labels: dict[str, np.ndarray] = {}
    for i, (kind, subset) in enumerate(zip(kinds, subsets)):
        name = f"task{i}"
        out_dim = 1 if kind == "regression" else n_classes
        if shared_readouts and kind in shared_w:
            weights = shared_w[kind]
        else:
            weights = rng.standard_normal((size, out_dim)) / np.sqrt(size)
            shared_w[kind] = weights
        scores = factors[:, subset] @ weights
        if kind == "regression":
            y = np.tanh(scores) if nonlinear else scores.copy()
            if noise_std > 0:
                y = y + noise_std * rng.standard_normal(y.shape)
            labels[name] = y
        else:
            noisy = scores + (noise_std * rng.standard_normal(scores.shape) if noise_std > 0 else 0.0)
            labels[name] = np.argmax(noisy, axis=1).astype(np.int64)
        origin = LatentOrigin(subset, tuple(map(tuple, weights)),
                              nonlinear and kind == "regression", noise_std)
        specs.append(TaskSpec(name, kind, out_dim, origin=origin))

    dataset = MultiTaskDataset(inputs, labels, _split_indices(n_examples), seed)
    return TaskSuite(tuple(specs), dataset)


@dataclass(frozen=True, eq=False)
class TaxonomyDistances:
    """Symmetric negated tree distances between tasks: 0 on the diagonal, <= 0 off it."""
    tasks: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def distance(self, a: str, b: str) -> float:
        try:
            return float(self.values[self.tasks.index(a), self.tasks.index(b)])
        except ValueError as exc:
            raise KeyError(f"unknown task in ({a!r}, {b!r}); tasks are {list(self.tasks)}") from exc


def load_taxonomy_distances(source: str | Path) -> TaxonomyDistances:
    """Read a taxonomy CSV: header of task names, one labeled row per task.

    Raises:
        ValueError: non-square layout, asymmetric values, nonzero diagonal,
            or positive off-diagonal entries.
    """
    path = Path(source)
    rows = [r for r in csv.reader(io.StringIO(path.read_text(encoding="utf-8"))) if r]
    if len(rows) < 3:
        raise ValueError("taxonomy file needs a header and at least two task rows")
    tasks = tuple(rows[0][1:])
    if len(set(tasks)) != len(tasks):
        raise ValueError(f"duplicate task names in header: {tasks}")
    if len(rows) - 1 != len(tasks):
        raise ValueError(f"expected {len(tasks)} rows, got {len(rows) - 1}")
    values = np.zeros((len(tasks), len(tasks)))
    for i, row in enumerate(rows[1:]):
        if row[0] != tasks[i]:
            raise ValueError(f"row {i} is labeled {row[0]!r}, expected {tasks[i]!r}")
        if len(row) - 1 != len(tasks):
            raise ValueError(f"row {row[0]!r} has {len(row) - 1} cells, expected {len(tasks)}")
        values[i] = [float(c) for c in row[1:]]
    if not np.array_equal(values, values.T):
        raise ValueError("taxonomy distances must be symmetric")
    if np.any(np.diag(values) != 0.0):
        raise ValueError("taxonomy diagonal must be 0")
    off = values[~np.eye(len(tasks), dtype=bool)]
    if np.any(off > 0.0):
        raise ValueError("off-diagonal taxonomy values must be <= 0 (negated distances)")
    return TaxonomyDistances(tasks, values)


def save_dataset(suite: TaskSuite, directory: str | Path) -> None:
    """Write a suite as CSVs plus a JSON manifest into ``directory``."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    ds = suite.dataset
    np.savetxt(d / "inputs.csv", ds.inputs, delimiter=",", fmt="%.17g")
    for name, lab in ds.labels.items():
        if lab.ndim == 1:
            np.savetxt(d / f"labels_{name}.csv", lab, delimiter=",", fmt="%d")
        else:
            np.savetxt(d / f"labels_{name}.csv", lab, delimiter=",", fmt="%.17g")
    with (d / "splits.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["split", "index"])
        for split in SPLIT_NAMES:
            for idx in ds.splits[split]:
                writer.writerow([split, int(idx)])
    manifest = {"seed": ds.seed, "specs": [s.to_json_dict() for s in suite.specs]}
    (d / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _load_labels(path: Path, spec: TaskSpec) -> np.ndarray:
    """One task's label file, checked against its spec."""
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    columns = 1 if spec.kind == "classification" else spec.output_dim
    if raw.shape[1] != columns:
        problem = f"{raw.shape[1]} label columns, expected {columns}"
    elif spec.kind == "regression":
        return raw
    elif np.any(raw != np.floor(raw)) or np.any((raw < 0) | (raw >= spec.output_dim)):
        problem = f"class ids must be integers in [0, {spec.output_dim})"
    else:
        return raw.astype(np.int64).reshape(-1)
    raise ValueError(f"task {spec.name!r} ({path}): {problem}")


def load_dataset(directory: str | Path) -> TaskSuite:
    """Read a suite written by :func:`save_dataset`; misfit labels or splits raise ValueError."""
    d = Path(directory)
    manifest = json.loads((d / "manifest.json").read_text(encoding="utf-8"))
    specs = tuple(TaskSpec.from_json_dict(s) for s in manifest["specs"])
    inputs = np.loadtxt(d / "inputs.csv", delimiter=",", ndmin=2)
    labels = {spec.name: _load_labels(d / f"labels_{spec.name}.csv", spec) for spec in specs}
    splits: dict[str, list[int]] = {name: [] for name in SPLIT_NAMES}
    with (d / "splits.csv").open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["split", "index"]:
            raise ValueError(f"bad splits.csv header: {header}")
        for split, idx in reader:
            if split not in splits:
                raise ValueError(f"{fh.name}: unknown split {split!r}; splits are {SPLIT_NAMES}")
            splits[split].append(int(idx))
    split_arrays = {name: np.asarray(v, dtype=np.int64) for name, v in splits.items()}
    dataset = MultiTaskDataset(inputs, labels, split_arrays, int(manifest["seed"]))
    return TaskSuite(specs, dataset)

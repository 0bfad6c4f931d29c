"""Synthetic multi-task suites with a controllable relatedness knob.

Inputs are a random linear mixing of latent factors plus pure-noise
nuisance dimensions. Each task reads out a subset of the latent factors;
the ``overlap`` parameter slides those subsets from pairwise disjoint
(overlap 0) to identical (overlap 1), which is what lets property tests
assert "more shared structure means higher affinity".

Also here: loading user-supplied taxonomy distance matrices (parsed by
:func:`matrices.parse_taxonomy`), and saving and loading a suite as files.
A task's kind fixes its loss, so a suite's manifest records none and ignores
the loss key that older manifests hold.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .matrices import TaskMatrix, parse_taxonomy, read_table, write_table
from .seeding import DATASET, substream

__all__ = [
    "TaskSpec",
    "LatentOrigin",
    "MultiTaskDataset",
    "TaskSuite",
    "checked_labels",
    "check_suite_args",
    "generate_latent_factor_suite",
    "load_taxonomy_distances",
    "save_dataset",
    "load_dataset",
]

KINDS = ("regression", "classification")
SPLIT_NAMES = ("train", "val", "test")
SPLIT_FRACTIONS = (0.70, 0.15, 0.15)


def _integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int (numpy's too); a bool, a non-integer or one below ``minimum``
    raises naming ``name``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _finite(value) -> bool:
    """Whether ``value`` is a finite real number (numpy's too), not a bool or a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class LatentOrigin:
    """How a suite task was built: which latent dims, what readout.

    Each field is checked, not coerced, so a damaged manifest fails naming it.
    """
    latent_dims: tuple[int, ...]
    weights: tuple[tuple[float, ...], ...]  # d_subset x output readout matrix
    nonlinear: bool
    noise_std: float

    def __post_init__(self):
        dims, rows = self.latent_dims, self.weights
        if not isinstance(dims, (list, tuple)):
            raise ValueError(f"origin.latent_dims must be a list of integers, got {dims!r}")
        object.__setattr__(self, "latent_dims", tuple(
            _integer("origin.latent_dims", d, minimum=0) for d in dims))
        if not (isinstance(rows, (list, tuple)) and all(isinstance(r, (list, tuple)) for r in rows)):
            raise ValueError(f"origin.weights must be a list of rows, got {rows!r}")
        bad = [v for row in rows for v in row if not _finite(v)]
        if bad:
            raise ValueError(f"origin.weights must be finite numbers, got {bad[0]!r}")
        object.__setattr__(self, "weights", tuple(map(tuple, rows)))
        if not isinstance(self.nonlinear, bool):
            raise ValueError(f"origin.nonlinear must be true or false, got {self.nonlinear!r}")
        if not (_finite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"origin.noise_std must be a finite number >= 0, "
                             f"got {self.noise_std!r}")


@dataclass(frozen=True)
class TaskSpec:
    """One task: its ``kind`` fixes its loss (MSE, or cross-entropy over ``output_dim`` classes)."""
    name: str
    kind: str
    output_dim: int
    origin: LatentOrigin | None = None

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"task names must be non-empty strings, got {self.name!r}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "output_dim", _integer("output_dim", self.output_dim))
        minimum = 2 if self.kind == "classification" else 1
        if self.output_dim < minimum:
            raise ValueError(f"{self.kind} output_dim must be >= {minimum}, got {self.output_dim}")

    def to_json_dict(self) -> dict:
        d: dict = {"name": self.name, "kind": self.kind, "output_dim": self.output_dim}
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
                origin = LatentOrigin(o["latent_dims"], o["weights"],
                                      o["nonlinear"], o["noise_std"])
            else:
                raise ValueError(f"unknown origin type {o['type']!r}")
        return cls(d["name"], d["kind"], d["output_dim"], origin)


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
        for name in SPLIT_NAMES:
            if len(self.splits[name]) == 0:
                raise ValueError(f"split {name!r} is empty")
        seen = np.concatenate([self.splits[s] for s in SPLIT_NAMES])
        if len(np.unique(seen)) != len(seen) or len(seen) != n or seen.min() != 0 or seen.max() != n - 1:
            raise ValueError("splits must partition the example indices")

    @property
    def d_in(self) -> int:
        return self.inputs.shape[1]

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
    shared = int(round(overlap * size))
    private = size - shared
    subsets = []
    for i in range(n_tasks):
        start = shared + i * private
        subsets.append(tuple(range(shared)) + tuple(range(start, start + private)))
    return subsets


def check_suite_args(n_tasks: int, d_latent: int, d_in: int, n_examples: int,
                     overlap: float, noise_std: float, n_classes: int = 3) -> None:
    """Raise ValueError naming the first argument of the generator out of range.

    The counts must be integers (numpy's too, not bools); a NaN fails every
    range it is checked against.
    """
    for name, value in (("d_latent", d_latent), ("d_in", d_in), ("n_examples", n_examples)):
        _integer(name, value)
    _integer("n_tasks", n_tasks, minimum=1)
    _integer("n_classes", n_classes, minimum=2)
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap}")
    if not 0.0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    if d_latent > d_in:
        raise ValueError(f"d_latent ({d_latent}) must not exceed d_in ({d_in})")
    if d_latent < n_tasks:
        raise ValueError(f"d_latent must be at least n_tasks ({n_tasks}) to give each task "
                         f"disjoint latent dims, got {d_latent}")
    if n_examples < 30:
        raise ValueError(f"n_examples must be at least 30, got {n_examples}")


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
    ``seed`` must be an integer >= 0.
    """
    seed = _integer("seed", seed, minimum=0)
    check_suite_args(n_tasks, d_latent, d_in, n_examples, overlap, noise_std, n_classes)
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
                              bool(nonlinear) and kind == "regression", noise_std)
        specs.append(TaskSpec(name, kind, out_dim, origin=origin))

    dataset = MultiTaskDataset(inputs, labels, _split_indices(n_examples), seed)
    return TaskSuite(tuple(specs), dataset)


def load_taxonomy_distances(source: str | Path) -> TaskMatrix:
    """The off-diagonal cells of a taxonomy CSV file, tasks in header order.

    Raises:
        ValueError: naming the file, as :func:`matrices.parse_taxonomy` does.
    """
    path = Path(source)
    return parse_taxonomy(path.read_text(encoding="utf-8"), str(path))


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
    rows = [[split, int(i)] for split in SPLIT_NAMES for i in ds.splits[split]]
    (d / "splits.csv").write_text(write_table([["split", "index"], *rows]), encoding="utf-8")
    manifest = {"seed": ds.seed, "specs": [s.to_json_dict() for s in suite.specs]}
    (d / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def checked_labels(spec: TaskSpec, labels: np.ndarray) -> np.ndarray:
    """``labels`` in the canonical form for ``spec``; labels that misfit it raise ValueError.

    Classification: int64 ``(n,)`` class ids in [0, output_dim), from
    integer values shaped ``(n,)`` or ``(n, 1)``. Regression: float64
    ``(n, output_dim)``, also from ``(n,)`` when ``output_dim`` is 1.
    """
    raw = np.asarray(labels).reshape(len(labels), -1)
    columns = 1 if spec.kind == "classification" else spec.output_dim
    if raw.shape[1] != columns:
        problem = f"{raw.shape[1]} label columns, expected {columns}"
    elif raw.dtype.kind not in "iuf":
        problem = f"labels of dtype {raw.dtype}, expected numbers"
    elif spec.kind == "regression":
        return raw.astype(np.float64, copy=False)
    elif np.any(raw != np.floor(raw)) or np.any((raw < 0) | (raw >= spec.output_dim)):
        problem = f"class ids must be integers in [0, {spec.output_dim})"
    else:
        return raw.reshape(-1).astype(np.int64, copy=False)
    raise ValueError(f"task {spec.name!r}: {problem}")


def _load_array(path: Path, spec: TaskSpec | None = None) -> np.ndarray:
    """A numeric CSV file of a suite, checked as ``spec``'s labels if given; errors name it."""
    try:
        array = np.loadtxt(path, delimiter=",", ndmin=2)
        return array if spec is None else checked_labels(spec, array)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _index(cell: str) -> int:
    """An example index: ASCII digits only, so no sign, space or fraction."""
    if not (cell.isascii() and cell.isdigit()):
        raise ValueError(cell)
    return int(cell)


def load_dataset(directory: str | Path) -> TaskSuite:
    """Read a suite written by :func:`save_dataset`.

    A manifest that is not JSON, lacks a key, repeats a task name or holds a
    ``seed`` or ``origin`` field of the wrong type (checked, not coerced), a bad
    cell, or misfit labels or splits raise ValueError, led by the file's path.
    """
    d = Path(directory)
    path = d / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        specs = tuple(TaskSpec.from_json_dict(s) for s in manifest["specs"])
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"task names must be unique, got {names}")
        seed = _integer("seed", manifest["seed"], minimum=0)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    inputs = _load_array(d / "inputs.csv")
    labels = {spec.name: _load_array(d / f"labels_{spec.name}.csv", spec) for spec in specs}
    path = d / "splits.csv"
    splits: dict[str, list[int]] = {name: [] for name in SPLIT_NAMES}
    for split, index in read_table(path.read_text(encoding="utf-8"), f"{path}: splits",
                                   {"split": str, "index": _index})[1]:
        if split not in splits:
            raise ValueError(f"{path}: unknown split {split!r}; splits are {SPLIT_NAMES}")
        splits[split].append(index)
    split_arrays = {name: np.asarray(v, dtype=np.int64) for name, v in splits.items()}
    dataset = MultiTaskDataset(inputs, labels, split_arrays, seed)
    return TaskSuite(specs, dataset)

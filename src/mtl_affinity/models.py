"""Tiny MLP models and the training loop the affinity scores observe.

Three model families, one class. A :class:`Model` is a dense+ReLU
backbone with a linear latent and one dense head per task:

* single-task (STL): a model with one task;
* pairwise multi-task (MTL): a model with two tasks on the shared
  backbone, trained on the unweighted sum of the two task losses;
* label-injected STL: a one-task model for task ``a`` whose input is the
  original input followed by an encoding of task ``b``'s label
  (:func:`extend_inputs`), so its ``config.input_dim`` is widened by it.

Parameters are plain float64 ndarrays; every loss and gradient comes from
the explicit kernel in :mod:`autodiff`. Training is plain minibatch SGD
with an exponentially decaying learning rate, one ``ad.backward`` and one
``ad.sgd_step`` per step. A model's key (``model_key``: ``stl/a``,
``mtl/a/b``, ``inj/target/partner``) seeds its weights and batch order and
names it in a divergence error. Every epoch the trainer records per-task
validation losses and, for MTL runs that ask for them, the GS cosine
between the two tasks' backbone gradients and the GT look-ahead losses
after a simulated backbone step on the partner's loss alone. Both come
from the same two gradients on the fixed, deterministic ``eval_batch``.

The returned model carries the parameters of the epoch with the lowest
validation loss (combined loss for MTL; ties go to the earliest epoch).
The trainer keeps a copy of only that epoch's parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .seeding import BATCHING, INIT, model_stream
from .tasks import MultiTaskDataset, TaskSpec

__all__ = [
    "BackboneConfig",
    "TrainConfig",
    "TrainTrace",
    "TrainingDivergedError",
    "model_key",
    "eval_batch",
    "Model",
    "multiply_add_count",
    "half_capacity",
    "encode_labels",
    "extend_inputs",
    "train_stl",
    "train_mtl",
    "train_injected",
]


class TrainingDivergedError(RuntimeError):
    """A loss of model ``key`` became non-finite in 0-based epoch ``epoch``."""

    def __init__(self, key: str, epoch: int):
        super().__init__(f"training diverged for {key} at epoch {epoch}")
        self.key = key
        self.epoch = epoch


def model_key(family: str, tasks: Sequence[str]) -> str:
    """``stl/a``, ``mtl/a/b`` or ``inj/target/partner``: roster family, then tasks."""
    return "/".join((family, *tasks))


@dataclass(frozen=True)
class BackboneConfig:
    """Widths of the shared trunk: input -> hidden ... -> latent output.

    The latent output layer is linear; ReLU sits between dense layers only.
    """
    input_dim: int
    hidden_widths: tuple[int, ...]
    latent_dim: int

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError(f"hidden widths must be positive, got {self.hidden_widths}")
        for name in ("input_dim", "latent_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    def layer_widths(self) -> list[tuple[int, int]]:
        chain = [self.input_dim, *self.hidden_widths, self.latent_dim]
        return list(zip(chain[:-1], chain[1:]))


@dataclass(frozen=True)
class TrainConfig:
    seed: int
    epochs: int = 50
    initial_lr: float = 0.05
    lr_decay: float = 0.95
    batch_size: int = 32
    eval_batch_size: int = 256

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.initial_lr <= 0:
            raise ValueError(f"initial_lr must be > 0, got {self.initial_lr}")
        for name in ("batch_size", "eval_batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def lr_at(self, epoch: int) -> float:
        return self.initial_lr * self.lr_decay ** epoch


@dataclass
class TrainTrace:
    """Per-epoch record of one training run. Epoch indices are 0-based.

    ``lookahead`` maps a target task name to per-epoch (pre, post) losses:
    the target's evaluation-batch loss before and after a simulated
    backbone-only SGD step on the partner task's loss.
    """
    val_loss: list[dict[str, float]]
    combined_val: list[float]
    best_epoch: int
    gs_cosine: list[float] | None = None
    lookahead: dict[str, list[tuple[float, float]]] | None = None

    @property
    def epochs(self) -> int:
        return len(self.combined_val)


def encode_labels(spec: TaskSpec, labels: np.ndarray) -> np.ndarray:
    """Labels as network-ready floats: one-hot for classes, raw for regression."""
    if spec.kind == "classification":
        idx = np.asarray(labels).astype(np.int64).reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= spec.output_dim):
            raise ValueError(f"labels for {spec.name!r} outside [0, {spec.output_dim})")
        onehot = np.zeros((idx.shape[0], spec.output_dim))
        onehot[np.arange(idx.shape[0]), idx] = 1.0
        return onehot
    return np.asarray(labels, dtype=np.float64).reshape(len(labels), -1)


def extend_inputs(inputs: np.ndarray, partner: TaskSpec,
                  partner_labels: np.ndarray) -> np.ndarray:
    """An injected model's inputs: the raw inputs, then the partner's encoded labels."""
    return np.concatenate([inputs, encode_labels(partner, partner_labels)], axis=1)


def _he_init(rng: np.random.Generator,
             widths: Sequence[tuple[int, int]]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """He initialization: N(0, sqrt(2 / fan_in)) weights, zero biases."""
    ws, bs = [], []
    for fan_in, fan_out in widths:
        ws.append(rng.normal(0.0, math.sqrt(2.0 / fan_in), (fan_in, fan_out)))
        bs.append(np.zeros(fan_out))
    return ws, bs


class Model:
    """A dense ReLU backbone with a linear latent, and one dense head per task.

    ``specs`` maps each task name to its spec, in task order; ``weights``
    and ``biases`` are the backbone's layers and ``heads`` maps each task
    to its (weight, bias). Parameters are drawn from ``rng``: the backbone
    first, then each head in task order.
    """

    def __init__(self, specs: Sequence[TaskSpec], config: BackboneConfig,
                 rng: np.random.Generator):
        names = [s.name for s in specs]
        if not names or len(set(names)) != len(names):
            raise ValueError(f"a model needs one or more distinct task names, got {names}")
        self.specs = {s.name: s for s in specs}
        self.config = config
        self.weights, self.biases = _he_init(rng, config.layer_widths())
        self.heads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for spec in specs:
            [w], [b] = _he_init(rng, [(config.latent_dim, spec.output_dim)])
            for earlier_w, earlier_b in self.heads.values():
                if earlier_w.shape == w.shape:
                    # Same-shape heads start from identical weights so that a
                    # task paired with a copy of itself keeps bit-identical
                    # heads, which is what makes the duplicated-task gradient
                    # cosine exactly 1.
                    w[...], b[...] = earlier_w, earlier_b
                    break
            self.heads[spec.name] = (w, b)

    def params(self) -> list[np.ndarray]:
        """Every parameter, in the order of ``ad.Gradients.params``."""
        out = [*self.weights, *self.biases]
        for w, b in self.heads.values():
            out.extend((w, b))
        return out

    def _named_params(self) -> dict[str, np.ndarray]:
        named = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            named[f"backbone.w{i}"] = w
            named[f"backbone.b{i}"] = b
        for task, (w, b) in self.heads.items():
            named[f"head.{task}.w0"] = w
            named[f"head.{task}.b0"] = b
        return named

    def set_params(self, snapshot: Mapping[str, np.ndarray]) -> None:
        named = self._named_params()
        if set(named) != set(snapshot):
            raise ValueError(f"snapshot keys {sorted(snapshot)} != model keys {sorted(named)}")
        for name, param in named.items():
            if param.shape != snapshot[name].shape:
                raise ValueError(f"shape mismatch for {name}")
        for name, param in named.items():
            param[...] = snapshot[name]

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.copy() for name, p in self._named_params().items()}

    def _kernel_heads(self, labels: Mapping[str, np.ndarray]) -> list[ad.Head]:
        """One kernel head per task in ``labels``, scored by that task's loss."""
        heads = []
        for task, y in labels.items():
            if task not in self.specs:
                raise KeyError(f"model serves {list(self.specs)}, not {task!r}")
            if self.specs[task].kind == "classification":
                loss = partial(ad.softmax_cross_entropy, class_index=np.asarray(y).reshape(-1))
            else:
                loss = partial(ad.mse_loss, target=np.asarray(y, dtype=np.float64))
            heads.append(ad.Head(*self.heads[task], loss))
        return heads

    def latent(self, inputs: np.ndarray) -> np.ndarray:
        """Backbone output for raw inputs."""
        return ad.forward(self.weights, self.biases, inputs)

    def task_losses(self, inputs: np.ndarray,
                    labels: Mapping[str, np.ndarray]) -> dict[str, float]:
        """Each named task's loss on one batch, from one backbone pass."""
        values = ad.losses(self.weights, self.biases, self._kernel_heads(labels), inputs)
        return dict(zip(labels, values))

    def gradients(self, inputs: np.ndarray, labels: Mapping[str, np.ndarray],
                  input_grad: bool = False) -> ad.Gradients:
        """Losses and gradients of the summed losses of the named tasks."""
        return ad.backward(self.weights, self.biases, self._kernel_heads(labels), inputs,
                           input_grad=input_grad)


def multiply_add_count(obj) -> int:
    """Per-example multiply-adds: sum of in_width x out_width over dense layers.

    A bare config counts the backbone alone; a model counts its backbone
    plus every head it has.
    """
    if isinstance(obj, BackboneConfig):
        return sum(fi * fo for fi, fo in obj.layer_widths())
    if isinstance(obj, Model):
        return sum(w.size for w in obj.weights) + sum(w.size for w, _ in obj.heads.values())
    raise TypeError(f"expected BackboneConfig or a model, got {type(obj).__name__}")


def half_capacity(full: BackboneConfig) -> BackboneConfig:
    """Uniformly shrink hidden widths until the count is at most half.

    Searches integer numerators k = max_width .. 1, scaling every hidden
    width to max(1, floor(w * k / max_width)), and returns the first (i.e.
    largest-factor) config whose multiply-add count is <= 0.5x the full one.
    """
    if not full.hidden_widths:
        raise ValueError("half_capacity needs at least one hidden layer")
    budget = 0.5 * multiply_add_count(full)
    widest = max(full.hidden_widths)
    for k in range(widest, 0, -1):
        widths = tuple(max(1, w * k // widest) for w in full.hidden_widths)
        candidate = BackboneConfig(full.input_dim, widths, full.latent_dim)
        if multiply_add_count(candidate) <= budget:
            return candidate
    raise ValueError(f"no width assignment of {full} fits the half-capacity budget")


# --- training loop ---


def _epoch_batches(rng: np.random.Generator, n: int, batch_size: int):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def eval_batch(dataset: MultiTaskDataset, size: int,
               tasks: Sequence[str]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The fixed batch the GS/GT probes and IAS/RSA read: the first ``size`` test examples."""
    return dataset.batch(dataset.splits["test"][:size], tasks)


def _pair_probes(model: Model, lr: float, inputs: np.ndarray,
                 labels: Mapping[str, np.ndarray],
                 ) -> tuple[float, dict[str, tuple[float, float]]]:
    """The GS cosine and both look-ahead directions from one gradient per task.

    Returns the cosine between the two tasks' backbone gradients, and per
    target task its evaluation loss before and after one backbone-only SGD
    step on the partner's loss, as (pre, post). The "pre" loss is the one
    the gradient pass returns. The model's parameters are not changed.
    """
    a, b = model.specs
    grads = {t: model.gradients(inputs, {t: labels[t]}) for t in (a, b)}
    flat = {t: np.concatenate([g.ravel() for g in grads[t].backbone()]) for t in (a, b)}
    na, nb = np.linalg.norm(flat[a]), np.linalg.norm(flat[b])
    if na == 0.0 or nb == 0.0:
        cosine = 0.0  # no shared descent direction to speak of
    else:
        cosine = float(np.clip(flat[a] @ flat[b] / (na * nb), -1.0, 1.0))

    lookahead = {}
    for target, partner in ((a, b), (b, a)):
        step = grads[partner]
        moved_w = [w - lr * g for w, g in zip(model.weights, step.weights)]
        moved_b = [v - lr * g for v, g in zip(model.biases, step.biases)]
        [post] = ad.losses(moved_w, moved_b, model._kernel_heads({target: labels[target]}),
                           inputs)
        lookahead[target] = (grads[target].losses[0], post)
    return cosine, lookahead


def _job_key(family: str, dataset: MultiTaskDataset, specs: Sequence[TaskSpec]) -> str:
    """The job key for ``specs``, once ``dataset`` is known to label each of them."""
    names = [s.name for s in specs]
    missing = [n for n in names if n not in dataset.labels]
    if missing:
        raise KeyError(f"dataset lacks labels for {missing}; has {sorted(dataset.labels)}")
    return model_key(family, names)


def _train(key: str, specs: Sequence[TaskSpec], dataset: MultiTaskDataset,
           backbone: BackboneConfig, cfg: TrainConfig,
           probes: bool = False) -> tuple[Model, TrainTrace]:
    """Build the model for ``specs``, seeded by its job key, and train it on ``dataset``."""
    model = Model(specs, backbone, model_stream(cfg.seed, INIT, key))
    tasks = list(model.specs)
    batch_rng = model_stream(cfg.seed, BATCHING, key)
    train_idx = dataset.splits["train"]
    val_inputs, val_labels = dataset.batch(dataset.splits["val"], tasks)
    eval_inputs, eval_labels = eval_batch(dataset, cfg.eval_batch_size, tasks)

    trace = TrainTrace(val_loss=[], combined_val=[], best_epoch=0)
    if probes:
        trace.gs_cosine = []
        trace.lookahead = {t: [] for t in tasks}

    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        for batch in _epoch_batches(batch_rng, len(train_idx), cfg.batch_size):
            grads = model.gradients(*dataset.batch(train_idx[batch], tasks))
            if not math.isfinite(sum(grads.losses)):
                raise TrainingDivergedError(key, epoch)
            ad.sgd_step(model.params(), grads.params(), lr)

        epoch_val = model.task_losses(val_inputs, val_labels)
        if not all(map(math.isfinite, epoch_val.values())):
            raise TrainingDivergedError(key, epoch)
        trace.val_loss.append(epoch_val)
        trace.combined_val.append(sum(epoch_val.values()))
        # Strictly lower, so the earliest epoch wins ties.
        if epoch == 0 or trace.combined_val[-1] < trace.combined_val[trace.best_epoch]:
            trace.best_epoch = epoch
            best_params = model.snapshot()

        if probes:
            cosine, lookahead = _pair_probes(model, lr, eval_inputs, eval_labels)
            trace.gs_cosine.append(cosine)
            for target, pair in lookahead.items():
                trace.lookahead[target].append(pair)

    model.set_params(best_params)
    return model, trace


def train_stl(task: TaskSpec, dataset: MultiTaskDataset, backbone: BackboneConfig,
              cfg: TrainConfig) -> tuple[Model, TrainTrace]:
    """Train a single-task model; returns it at its best validation epoch."""
    return _train(_job_key("stl", dataset, [task]), [task], dataset, backbone, cfg)


def train_mtl(pair: tuple[TaskSpec, TaskSpec], dataset: MultiTaskDataset,
              backbone: BackboneConfig, cfg: TrainConfig,
              probes: bool = True) -> tuple[Model, TrainTrace]:
    """Train both tasks on a shared backbone, minimizing the plain loss sum.

    With ``probes`` the trace additionally carries, per epoch and measured
    on the fixed evaluation batch: the backbone-gradient cosine between the
    tasks, and look-ahead (pre, post) losses per direction. Probes change
    no parameter and draw no random numbers, so the trained model is the
    same either way.
    """
    return _train(_job_key("mtl", dataset, pair), pair, dataset, backbone, cfg, probes)


def train_injected(target: TaskSpec, partner: TaskSpec, dataset: MultiTaskDataset,
                   half_backbone: BackboneConfig, cfg: TrainConfig,
                   ) -> tuple[Model, TrainTrace]:
    """Train STL for ``target`` with ``partner``'s label appended to the input.

    The backbone keeps the half-capacity hidden widths; only the input layer
    widens by the label encoding (one-hot for classification, raw values for
    regression; see :func:`extend_inputs`). ``partner`` may equal
    ``target``: injecting a task's own label is the upper-bound case.
    """
    key = _job_key("inj", dataset, [target, partner])
    extended = extend_inputs(dataset.inputs, partner, dataset.labels[partner.name])
    backbone = replace(half_backbone, input_dim=half_backbone.input_dim + partner.output_dim)
    return _train(key, [target], replace(dataset, inputs=extended), backbone, cfg)

"""Tiny MLP models and the training loop the affinity scores observe.

Three model families, all sharing one dense+ReLU backbone shape:

* single-task (STL): backbone -> one head;
* pairwise multi-task (MTL): one shared backbone -> two heads, trained on
  the unweighted sum of the two task losses;
* label-injected STL: an STL model for task ``a`` whose input is the
  original input concatenated with an encoding of task ``b``'s label.

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
    "STLModel",
    "MTLModel",
    "InjectedSTLModel",
    "multiply_add_count",
    "half_capacity",
    "encode_labels",
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

    def with_input_dim(self, input_dim: int) -> "BackboneConfig":
        return BackboneConfig(input_dim, self.hidden_widths, self.latent_dim)


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


class _LayerStack:
    """Dense layers with ReLU between them; the final layer stays linear.

    A head is a stack of one layer.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray], prefix: str):
        self.weights = weights
        self.biases = biases
        self.prefix = prefix

    @classmethod
    def init(cls, rng: np.random.Generator, widths: Sequence[tuple[int, int]],
             prefix: str) -> "_LayerStack":
        # He initialization: N(0, sqrt(2 / fan_in)) weights, zero biases.
        ws, bs = [], []
        for fan_in, fan_out in widths:
            ws.append(rng.normal(0.0, math.sqrt(2.0 / fan_in), (fan_in, fan_out)))
            bs.append(np.zeros(fan_out))
        return cls(ws, bs, prefix)

    def copy_params_from(self, other: "_LayerStack") -> None:
        for mine, theirs in zip(self.params(), other.params()):
            mine[...] = theirs

    def params(self) -> list[np.ndarray]:
        return [*self.weights, *self.biases]

    def named_params(self) -> dict[str, np.ndarray]:
        named = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            named[f"{self.prefix}.w{i}"] = w
            named[f"{self.prefix}.b{i}"] = b
        return named

    def multiply_add_count(self) -> int:
        return sum(w.shape[0] * w.shape[1] for w in self.weights)


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


class _ModelBase:
    """Shared plumbing: parameter access, snapshots, losses and gradients."""

    backbone: _LayerStack
    config: BackboneConfig

    def _heads(self) -> dict[str, _LayerStack]:
        raise NotImplementedError

    def _spec(self, task: str) -> TaskSpec:
        raise NotImplementedError

    def params(self) -> list[np.ndarray]:
        """Every parameter, in the order of ``ad.Gradients.params``."""
        out = self.backbone.params()
        for head in self._heads().values():
            out.extend(head.params())
        return out

    def named_params(self) -> dict[str, np.ndarray]:
        named = self.backbone.named_params()
        for head in self._heads().values():
            named.update(head.named_params())
        return named

    def set_params(self, snapshot: Mapping[str, np.ndarray]) -> None:
        named = self.named_params()
        if set(named) != set(snapshot):
            raise ValueError(f"snapshot keys {sorted(snapshot)} != model keys {sorted(named)}")
        for name, param in named.items():
            if param.shape != snapshot[name].shape:
                raise ValueError(f"shape mismatch for {name}")
        for name, param in named.items():
            param[...] = snapshot[name]

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.copy() for name, p in self.named_params().items()}

    def _kernel_heads(self, labels: Mapping[str, np.ndarray]) -> list[ad.Head]:
        """One kernel head per task in ``labels``, scored by that task's loss."""
        heads = []
        for task, y in labels.items():
            head = self._heads()[task]
            if self._spec(task).kind == "classification":
                loss = partial(ad.softmax_cross_entropy, class_index=np.asarray(y).reshape(-1))
            else:
                loss = partial(ad.mse_loss, target=np.asarray(y, dtype=np.float64))
            heads.append(ad.Head(head.weights[0], head.biases[0], loss))
        return heads

    def latent(self, inputs: np.ndarray) -> np.ndarray:
        """Backbone output for raw inputs."""
        return ad.forward(self.backbone.weights, self.backbone.biases, inputs)

    def task_losses(self, inputs: np.ndarray,
                    labels: Mapping[str, np.ndarray]) -> dict[str, float]:
        """Each named task's loss on one batch, from one backbone pass."""
        values = ad.losses(self.backbone.weights, self.backbone.biases,
                           self._kernel_heads(labels), inputs)
        return dict(zip(labels, values))

    def task_loss_value(self, task: str, inputs: np.ndarray, labels: np.ndarray) -> float:
        return self.task_losses(inputs, {task: labels})[task]

    def gradients(self, inputs: np.ndarray, labels: Mapping[str, np.ndarray],
                  input_grad: bool = False) -> ad.Gradients:
        """Losses and gradients of the summed losses of the named tasks."""
        return ad.backward(self.backbone.weights, self.backbone.biases,
                           self._kernel_heads(labels), inputs, input_grad=input_grad)


class STLModel(_ModelBase):
    """One backbone, one head, one task."""

    def __init__(self, spec: TaskSpec, config: BackboneConfig,
                 backbone: _LayerStack, head: _LayerStack):
        self.spec = spec
        self.config = config
        self.backbone = backbone
        self.head = head

    @classmethod
    def init(cls, spec: TaskSpec, config: BackboneConfig, rng: np.random.Generator) -> "STLModel":
        backbone = _LayerStack.init(rng, config.layer_widths(), "backbone")
        head = _LayerStack.init(rng, [(config.latent_dim, spec.output_dim)], f"head.{spec.name}")
        return cls(spec, config, backbone, head)

    def _heads(self) -> dict[str, _LayerStack]:
        return {self.spec.name: self.head}

    def _spec(self, task: str) -> TaskSpec:
        if task != self.spec.name:
            raise KeyError(f"model serves {self.spec.name!r}, not {task!r}")
        return self.spec

    def loss_value(self, inputs: np.ndarray, labels: np.ndarray) -> float:
        return self.task_loss_value(self.spec.name, inputs, labels)


class MTLModel(_ModelBase):
    """Shared backbone, two heads; the objective is loss_a + loss_b."""

    def __init__(self, spec_a: TaskSpec, spec_b: TaskSpec, config: BackboneConfig,
                 backbone: _LayerStack, head_a: _LayerStack, head_b: _LayerStack):
        if spec_a.name == spec_b.name:
            raise ValueError("an MTL pair needs two distinct task names")
        self.spec_a = spec_a
        self.spec_b = spec_b
        self.config = config
        self.backbone = backbone
        self.head_a = head_a
        self.head_b = head_b

    @classmethod
    def init(cls, spec_a: TaskSpec, spec_b: TaskSpec, config: BackboneConfig,
             rng: np.random.Generator) -> "MTLModel":
        backbone = _LayerStack.init(rng, config.layer_widths(), "backbone")
        head_a = _LayerStack.init(rng, [(config.latent_dim, spec_a.output_dim)],
                                  f"head.{spec_a.name}")
        head_b = _LayerStack.init(rng, [(config.latent_dim, spec_b.output_dim)],
                                  f"head.{spec_b.name}")
        if spec_a.output_dim == spec_b.output_dim:
            # Same-shape heads start from identical weights so that a task
            # paired with a copy of itself keeps bit-identical heads, which
            # is what makes the duplicated-task gradient cosine exactly 1.
            head_b.copy_params_from(head_a)
        return cls(spec_a, spec_b, config, backbone, head_a, head_b)

    @property
    def pair(self) -> tuple[str, str]:
        return (self.spec_a.name, self.spec_b.name)

    def _heads(self) -> dict[str, _LayerStack]:
        return {self.spec_a.name: self.head_a, self.spec_b.name: self.head_b}

    def _spec(self, task: str) -> TaskSpec:
        for s in (self.spec_a, self.spec_b):
            if s.name == task:
                return s
        raise KeyError(f"model serves {self.pair}, not {task!r}")


class InjectedSTLModel(_ModelBase):
    """STL for a target task over inputs extended with a partner's label."""

    def __init__(self, spec: TaskSpec, partner: TaskSpec, config: BackboneConfig,
                 backbone: _LayerStack, head: _LayerStack):
        self.spec = spec
        self.partner = partner
        self.config = config  # input_dim already includes the encoding width
        self.backbone = backbone
        self.head = head

    @classmethod
    def init(cls, spec: TaskSpec, partner: TaskSpec, half_config: BackboneConfig,
             rng: np.random.Generator) -> "InjectedSTLModel":
        enc_width = partner.output_dim
        config = half_config.with_input_dim(half_config.input_dim + enc_width)
        backbone = _LayerStack.init(rng, config.layer_widths(), "backbone")
        head = _LayerStack.init(rng, [(config.latent_dim, spec.output_dim)], f"head.{spec.name}")
        return cls(spec, partner, config, backbone, head)

    def _heads(self) -> dict[str, _LayerStack]:
        return {self.spec.name: self.head}

    def _spec(self, task: str) -> TaskSpec:
        if task != self.spec.name:
            raise KeyError(f"model serves {self.spec.name!r}, not {task!r}")
        return self.spec

    def extend_inputs(self, inputs: np.ndarray, partner_labels: np.ndarray) -> np.ndarray:
        return np.concatenate([inputs, encode_labels(self.partner, partner_labels)], axis=1)

    def loss_value(self, inputs: np.ndarray, labels: np.ndarray,
                   partner_labels: np.ndarray) -> float:
        extended = self.extend_inputs(inputs, partner_labels)
        return self.task_loss_value(self.spec.name, extended, labels)


def multiply_add_count(obj) -> int:
    """Per-example multiply-adds: sum of in_width x out_width over dense layers.

    A bare config counts the backbone alone; a model counts its backbone
    plus every head it has.
    """
    if isinstance(obj, BackboneConfig):
        return sum(fi * fo for fi, fo in obj.layer_widths())
    if isinstance(obj, _ModelBase):
        total = obj.backbone.multiply_add_count()
        for head in obj._heads().values():
            total += head.multiply_add_count()
        return total
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


def _pair_probes(model: MTLModel, lr: float, inputs: np.ndarray,
                 labels: Mapping[str, np.ndarray],
                 ) -> tuple[float, dict[str, tuple[float, float]]]:
    """The GS cosine and both look-ahead directions from one gradient per task.

    Returns the cosine between the two tasks' backbone gradients, and per
    target task its evaluation loss before and after one backbone-only SGD
    step on the partner's loss, as (pre, post). The "pre" loss is the one
    the gradient pass returns. The model's parameters are not changed.
    """
    a, b = model.pair
    grads = {t: model.gradients(inputs, {t: labels[t]}) for t in (a, b)}
    flat = {t: np.concatenate([g.ravel() for g in grads[t].backbone()]) for t in (a, b)}
    na, nb = np.linalg.norm(flat[a]), np.linalg.norm(flat[b])
    if na == 0.0 or nb == 0.0:
        cosine = 0.0  # no shared descent direction to speak of
    else:
        cosine = float(np.clip(flat[a] @ flat[b] / (na * nb), -1.0, 1.0))

    weights, biases = model.backbone.weights, model.backbone.biases
    lookahead = {}
    for target, partner in ((a, b), (b, a)):
        step = grads[partner]
        moved_w = [w - lr * g for w, g in zip(weights, step.weights)]
        moved_b = [v - lr * g for v, g in zip(biases, step.biases)]
        [post] = ad.losses(moved_w, moved_b, model._kernel_heads({target: labels[target]}),
                           inputs)
        lookahead[target] = (grads[target].losses[0], post)
    return cosine, lookahead


def _run_training(model: _ModelBase, tasks: list[str], dataset: MultiTaskDataset,
                  cfg: TrainConfig, key: str,
                  record_pair_quantities: bool) -> TrainTrace:
    """The shared epoch loop over ``dataset``'s splits and labels."""
    batch_rng = model_stream(cfg.seed, BATCHING, key)
    train_idx = dataset.splits["train"]
    val_inputs, val_labels = dataset.batch(dataset.splits["val"], tasks)
    eval_inputs, eval_labels = eval_batch(dataset, cfg.eval_batch_size, tasks)

    trace = TrainTrace(val_loss=[], combined_val=[], best_epoch=0)
    if record_pair_quantities:
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

        if record_pair_quantities:
            assert isinstance(model, MTLModel)
            cosine, lookahead = _pair_probes(model, lr, eval_inputs, eval_labels)
            trace.gs_cosine.append(cosine)
            for target, pair in lookahead.items():
                trace.lookahead[target].append(pair)

    model.set_params(best_params)
    return trace


def _require_tasks(dataset: MultiTaskDataset, names: list[str]) -> None:
    missing = [n for n in names if n not in dataset.labels]
    if missing:
        raise KeyError(f"dataset lacks labels for {missing}; has {sorted(dataset.labels)}")


def train_stl(task: TaskSpec, dataset: MultiTaskDataset, backbone: BackboneConfig,
              cfg: TrainConfig) -> tuple[STLModel, TrainTrace]:
    """Train a single-task model; returns it at its best validation epoch."""
    _require_tasks(dataset, [task.name])
    key = model_key("stl", [task.name])
    model = STLModel.init(task, backbone, model_stream(cfg.seed, INIT, key))
    trace = _run_training(model, [task.name], dataset, cfg, key, record_pair_quantities=False)
    return model, trace


def train_mtl(pair: tuple[TaskSpec, TaskSpec], dataset: MultiTaskDataset,
              backbone: BackboneConfig, cfg: TrainConfig,
              probes: bool = True) -> tuple[MTLModel, TrainTrace]:
    """Train both tasks on a shared backbone, minimizing the plain loss sum.

    With ``probes`` the trace additionally carries, per epoch and measured
    on the fixed evaluation batch: the backbone-gradient cosine between the
    tasks, and look-ahead (pre, post) losses per direction. Probes change
    no parameter and draw no random numbers, so the trained model is the
    same either way.
    """
    spec_a, spec_b = pair
    _require_tasks(dataset, [spec_a.name, spec_b.name])
    key = model_key("mtl", [spec_a.name, spec_b.name])
    model = MTLModel.init(spec_a, spec_b, backbone, model_stream(cfg.seed, INIT, key))
    trace = _run_training(model, [spec_a.name, spec_b.name], dataset, cfg, key,
                          record_pair_quantities=probes)
    return model, trace


def train_injected(target: TaskSpec, partner: TaskSpec, dataset: MultiTaskDataset,
                   half_backbone: BackboneConfig, cfg: TrainConfig,
                   ) -> tuple[InjectedSTLModel, TrainTrace]:
    """Train STL for ``target`` with ``partner``'s label appended to the input.

    The backbone keeps the half-capacity hidden widths; only the input layer
    widens by the label encoding (one-hot for classification, raw values for
    regression). ``partner`` may equal ``target``: injecting a task's own
    label is the upper-bound case.
    """
    _require_tasks(dataset, [target.name, partner.name])
    key = model_key("inj", [target.name, partner.name])
    model = InjectedSTLModel.init(target, partner, half_backbone,
                                  model_stream(cfg.seed, INIT, key))
    extended = model.extend_inputs(dataset.inputs, dataset.labels[partner.name])
    injected_view = replace(dataset, inputs=extended)
    trace = _run_training(model, [target.name], injected_view, cfg, key,
                          record_pair_quantities=False)
    return model, trace


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
with an exponentially decaying learning rate. A model's key
(``model_key``: ``stl/a``, ``mtl/a/b``, ``inj/target/partner``) seeds its
weights and batch order and names it in a divergence error.

Each trainer (:func:`train_stl`, :func:`train_mtl`, :func:`train_injected`)
takes a sequence of models of its family and trains them as *stacks*: the
models that share a backbone shape keep their parameters on a leading
``(M, ...)`` axis, and each batch is one ``ad.backward`` and one
``ad.sgd_step`` for the whole stack. A head *slot* (the first or second
head of every model) holds one head group per output width and kind, over
the stack slices whose task has it. Every model is built exactly as it
would be alone and then pointed at views into the stack, and each slice
reads its own batches in its own order, so every model comes out bit for
bit as if trained on its own.

Every epoch the trainer records, per model, the per-task validation losses
and, for MTL runs that ask for them, the GS cosine between the two tasks'
backbone gradients and the GT look-ahead losses after a simulated backbone
step on the partner's loss alone. Both come from the same two gradients on
the fixed, deterministic ``eval_batch``.

The returned model carries the parameters of the epoch with the lowest
validation loss (combined loss for MTL; ties go to the earliest epoch).
The trainer keeps a copy of only that epoch's parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, NamedTuple, Sequence

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
            spec = self.specs[task]
            if spec.kind == "classification":
                y = np.asarray(y).reshape(-1)
            heads.append(ad.Head(*self.heads[task], _loss(spec, y)))
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


def _loss(spec: TaskSpec, labels: np.ndarray) -> ad.Loss:
    """The kernel loss of ``spec`` against ``labels`` (one batch, or one per stack slice)."""
    if spec.kind == "classification":
        return partial(ad.softmax_cross_entropy, class_index=labels)
    return partial(ad.mse_loss, target=np.asarray(labels, dtype=np.float64))


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


class _Job(NamedTuple):
    """One model to train: its key, its tasks in head order, its backbone and inputs."""
    key: str
    specs: tuple[TaskSpec, ...]
    backbone: BackboneConfig
    inputs: np.ndarray                     # every example's input row, as the model reads it


class _HeadGroup(NamedTuple):
    """The heads of one slot that share an output width and kind, over some slices."""
    spec: TaskSpec                         # the first member's task: width and kind
    slices: np.ndarray                     # stack slices, in stack order
    labels: np.ndarray                     # each member's task labels, stacked
    weight: np.ndarray                     # (len(slices), latent, width)
    bias: np.ndarray                       # (len(slices), width)

    def head(self, rows: np.ndarray, whole: bool) -> ad.Head:
        """The kernel head on the dataset rows ``rows`` of every stack slice."""
        picked = rows[self.slices]
        labels = self.labels[np.arange(len(self.slices))[:, None], picked]
        return ad.Head(self.weight, self.bias, _loss(self.spec, labels),
                       None if whole else self.slices)


class _Stack:
    """The models of one backbone shape, trained as one.

    Each backbone parameter is one ``(M, ...)`` array, and each head slot
    holds one :class:`_HeadGroup` per (output width, kind) of its slices'
    tasks. Every model's parameters are views into these arrays, so a step
    of the stack is a step of each model. ``members`` are the models' plan
    indices; slice ``i`` reads its inputs from ``sources[source[i]]``.
    """

    def __init__(self, members: Sequence[int], models: Sequence[Model],
                 jobs: Sequence[_Job], dataset: MultiTaskDataset):
        self.members = np.asarray(members)
        distinct = {id(job.inputs): job.inputs for job in jobs}
        position = {key: p for p, key in enumerate(distinct)}
        self.source = np.array([[position[id(job.inputs)]] for job in jobs])
        arrays = list(distinct.values())
        self.sources = arrays[0][None] if len(arrays) == 1 else np.stack(arrays)
        self.weights = [np.stack(ws) for ws in zip(*(m.weights for m in models))]
        self.biases = [np.stack(bs) for bs in zip(*(m.biases for m in models))]
        for k, model in enumerate(models):
            model.weights = [w[k] for w in self.weights]
            model.biases = [b[k] for b in self.biases]

        self.slots: list[list[_HeadGroup]] = []
        for slot in range(len(jobs[0].specs)):
            groups: dict[tuple[int, str], list[int]] = {}
            for k, job in enumerate(jobs):
                spec = job.specs[slot]
                groups.setdefault((spec.output_dim, spec.kind), []).append(k)
            self.slots.append([])
            for slices in groups.values():
                specs = [jobs[k].specs[slot] for k in slices]
                heads = [models[k].heads[s.name] for k, s in zip(slices, specs)]
                group = _HeadGroup(specs[0], np.asarray(slices),
                                   np.stack([dataset.labels[s.name] for s in specs]),
                                   np.stack([w for w, _ in heads]),
                                   np.stack([b for _, b in heads]))
                for i, (k, s) in enumerate(zip(slices, specs)):
                    models[k].heads[s.name] = (group.weight[i], group.bias[i])
                self.slots[-1].append(group)
        self.params = [*self.weights, *self.biases]
        for slot in self.slots:
            for group in slot:
                self.params.extend((group.weight, group.bias))

    def gradients(self, rows: np.ndarray) -> ad.Gradients:
        """One stacked backward pass; slice ``i`` trains on the dataset rows ``rows[i]``."""
        heads = [[g.head(rows, len(slot) == 1) for g in slot] for slot in self.slots]
        return ad.backward(self.weights, self.biases, heads, self.sources[self.source, rows])


def _train_jobs(jobs: Sequence[_Job], dataset: MultiTaskDataset, cfg: TrainConfig,
                probes: bool = False) -> list[tuple[Model, TrainTrace]]:
    """Build each job's model, seeded by its key, and train them all on ``dataset``.

    Jobs with the same backbone and head count share a :class:`_Stack`;
    the stacks take their steps in lockstep, so a divergence is reported
    for the model that went non-finite at the earliest (epoch, step), the
    first in ``jobs`` order on a tie. Each model keeps its own batch order,
    validation losses, probes and best epoch.
    """
    if not jobs:
        raise ValueError("no models to train")
    keys = [job.key for job in jobs]
    repeated = sorted({k for k in keys if keys.count(k) > 1})
    if repeated:
        raise ValueError(f"model keys must be unique, got {repeated} more than once")

    models = [Model(job.specs, job.backbone, model_stream(cfg.seed, INIT, job.key))
              for job in jobs]
    shapes: dict[tuple[BackboneConfig, int], list[int]] = {}
    for i, job in enumerate(jobs):
        shapes.setdefault((job.backbone, len(job.specs)), []).append(i)
    stacks = [_Stack(members, [models[i] for i in members], [jobs[i] for i in members],
                     dataset) for members in shapes.values()]

    batch_rngs = [model_stream(cfg.seed, BATCHING, key) for key in keys]
    train_idx = dataset.splits["train"]
    val_idx = dataset.splits["val"]
    val_batches = [(job.inputs[val_idx], dataset.batch(val_idx, list(model.specs))[1])
                   for job, model in zip(jobs, models)]
    traces = [TrainTrace(val_loss=[], combined_val=[], best_epoch=0) for _ in jobs]
    if probes:
        probe_batches = [eval_batch(dataset, cfg.eval_batch_size, list(model.specs))
                         for model in models]
        for trace, model in zip(traces, models):
            trace.gs_cosine = []
            trace.lookahead = {t: [] for t in model.specs}
    best_params: list[dict[str, np.ndarray]] = [{} for _ in jobs]

    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        order = train_idx[np.stack([rng.permutation(len(train_idx)) for rng in batch_rngs])]
        for start in range(0, len(train_idx), cfg.batch_size):
            rows = order[:, start:start + cfg.batch_size]
            diverged = []
            for stack in stacks:
                grads = stack.gradients(rows[stack.members])
                finite = np.isfinite(sum(grads.losses))
                if finite.all():
                    ad.sgd_step(stack.params, grads.params(), lr)
                else:
                    diverged.extend(stack.members[~finite])
            if diverged:
                raise TrainingDivergedError(keys[min(diverged)], epoch)

        for i, (model, trace) in enumerate(zip(models, traces)):
            epoch_val = model.task_losses(*val_batches[i])
            if not all(map(math.isfinite, epoch_val.values())):
                raise TrainingDivergedError(keys[i], epoch)
            trace.val_loss.append(epoch_val)
            trace.combined_val.append(sum(epoch_val.values()))
            # Strictly lower, so the earliest epoch wins ties.
            if epoch == 0 or trace.combined_val[-1] < trace.combined_val[trace.best_epoch]:
                trace.best_epoch = epoch
                best_params[i] = model.snapshot()

            if probes:
                cosine, lookahead = _pair_probes(model, lr, *probe_batches[i])
                trace.gs_cosine.append(cosine)
                for target, pair in lookahead.items():
                    trace.lookahead[target].append(pair)

    for model, best in zip(models, best_params):
        model.set_params(best)
    return list(zip(models, traces))


def _check_labels(dataset: MultiTaskDataset, specs: Sequence[TaskSpec]) -> None:
    missing = sorted({s.name for s in specs if s.name not in dataset.labels})
    if missing:
        raise KeyError(f"dataset lacks labels for {missing}; has {sorted(dataset.labels)}")


def train_stl(tasks: Sequence[TaskSpec], dataset: MultiTaskDataset,
              backbone: BackboneConfig, cfg: TrainConfig) -> list[tuple[Model, TrainTrace]]:
    """Train one single-task model per task, each returned at its best validation epoch."""
    _check_labels(dataset, tasks)
    return _train_jobs([_Job(model_key("stl", [t.name]), (t,), backbone, dataset.inputs)
                        for t in tasks], dataset, cfg)


def train_mtl(pairs: Sequence[tuple[TaskSpec, TaskSpec]], dataset: MultiTaskDataset,
              backbone: BackboneConfig, cfg: TrainConfig,
              probes: bool = True) -> list[tuple[Model, TrainTrace]]:
    """Train each pair's two tasks on a shared backbone, minimizing the plain loss sum.

    With ``probes`` each trace additionally carries, per epoch and measured
    on the fixed evaluation batch: the backbone-gradient cosine between the
    tasks, and look-ahead (pre, post) losses per direction. Probes change
    no parameter and draw no random numbers, so the trained models are the
    same either way.
    """
    _check_labels(dataset, [s for pair in pairs for s in pair])
    return _train_jobs([_Job(model_key("mtl", [a.name, b.name]), (a, b), backbone,
                             dataset.inputs) for a, b in pairs], dataset, cfg, probes)


def train_injected(pairs: Sequence[tuple[TaskSpec, TaskSpec]], dataset: MultiTaskDataset,
                   half_backbone: BackboneConfig, cfg: TrainConfig,
                   ) -> list[tuple[Model, TrainTrace]]:
    """Train, per (target, partner), STL for ``target`` with ``partner``'s label appended.

    The backbone keeps the half-capacity hidden widths; only the input layer
    widens by the label encoding (one-hot for classification, raw values for
    regression; see :func:`extend_inputs`). A partner may equal its target:
    injecting a task's own label is the upper-bound case. Models with the
    same partner share one extended-input array.
    """
    _check_labels(dataset, [s for pair in pairs for s in pair])
    extended: dict[str, np.ndarray] = {}
    jobs = []
    for target, partner in pairs:
        if partner.name not in extended:
            extended[partner.name] = extend_inputs(dataset.inputs, partner,
                                                   dataset.labels[partner.name])
        backbone = replace(half_backbone,
                           input_dim=half_backbone.input_dim + partner.output_dim)
        jobs.append(_Job(model_key("inj", [target.name, partner.name]), (target,), backbone,
                         extended[partner.name]))
    return _train_jobs(jobs, dataset, cfg)

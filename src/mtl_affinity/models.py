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

After every epoch each stack takes its validation losses from one forward
pass and, for MTL runs that ask for them, its GS/GT probes on the fixed
``eval_rows``: one backward pass per head slot gives the GS cosine between
the tasks' backbone gradients, and one forward pass per direction the GT
look-ahead loss after a backbone step on the partner's loss alone.

The returned model carries the parameters of the epoch with the lowest
validation loss (combined loss for MTL; ties go to the earliest epoch),
which its stack keeps in one stack-shaped copy.
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
    "eval_rows",
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


def eval_rows(dataset: MultiTaskDataset, size: int) -> np.ndarray:
    """The fixed rows the GS/GT probes and IAS/RSA read: the first ``size`` test examples."""
    return dataset.splits["test"][:size]


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
        """The kernel head, slice ``i`` on the dataset rows ``rows[i]`` or on a 1-D ``rows``."""
        picked = rows[self.slices] if rows.ndim == 2 else rows
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
    ``best`` holds each slice's parameters of its best epoch so far.
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
        self.param_slices = [np.arange(len(models))] * len(self.params)
        for slot in self.slots:
            for group in slot:
                self.params.extend((group.weight, group.bias))
                self.param_slices.extend((group.slices, group.slices))
        self.best = [p.copy() for p in self.params]

    def batch(self, rows: np.ndarray) -> tuple[list[list[ad.Head]], np.ndarray]:
        """Heads and inputs, slice ``i`` on rows ``rows[i]`` (every slice on a 1-D ``rows``)."""
        heads = [[g.head(rows, len(slot) == 1) for g in slot] for slot in self.slots]
        return heads, self.sources[self.source, rows]

    def keep(self, improved: np.ndarray) -> None:
        """Copy the parameters of the ``improved`` slices into ``best``."""
        for param, best, slices in zip(self.params, self.best, self.param_slices):
            mask = improved[slices]
            best[mask] = param[mask]

    def probe(self, lr: float, heads: list[list[ad.Head]], inputs: np.ndarray,
              traces: Sequence[TrainTrace]) -> None:
        """Append each slice's GS cosine and look-ahead (pre, post) losses to its trace.

        "post" follows one backbone-only SGD step at ``lr`` on the other slot's loss.
        """
        grads = [ad.backward(self.weights, self.biases, [slot], inputs) for slot in heads]
        flat = [np.concatenate([g.reshape(len(g), -1) for g in slot.backbone()], axis=1)
                for slot in grads]
        post = [ad.losses([w - lr * g for w, g in zip(self.weights, step.weights)],
                          [b - lr * g for b, g in zip(self.biases, step.biases)],
                          [slot], inputs)[0] for slot, step in zip(heads, grads[::-1])]
        for k, trace in enumerate(traces):
            trace.gs_cosine.append(_cosine(flat[0][k], flat[1][k]))
            for lookahead, step, moved in zip(trace.lookahead.values(), grads, post):
                lookahead.append((float(step.losses[0][k]), float(moved[k])))


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0  # no shared descent direction to speak of
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def _train_jobs(jobs: Sequence[_Job], dataset: MultiTaskDataset, cfg: TrainConfig,
                probes: bool = False) -> list[tuple[Model, TrainTrace]]:
    """Build each job's model, seeded by its key, and train them all on ``dataset``.

    Jobs with the same backbone and head count share a :class:`_Stack`;
    the stacks take their steps in lockstep, so a divergence is reported
    for the model that went non-finite at the earliest (epoch, step), the
    first in ``jobs`` order on a tie. Each model keeps its own batch order;
    validation, the best-epoch copy and the probes run per stack.
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
    val_batches = [stack.batch(dataset.splits["val"]) for stack in stacks]
    traces = [TrainTrace(val_loss=[], combined_val=[], best_epoch=0) for _ in jobs]
    if probes:
        probe_batches = [stack.batch(eval_rows(dataset, cfg.eval_batch_size)) for stack in stacks]
        for trace, model in zip(traces, models):
            trace.gs_cosine = []
            trace.lookahead = {t: [] for t in model.specs}

    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        order = train_idx[np.stack([rng.permutation(len(train_idx)) for rng in batch_rngs])]
        for start in range(0, len(train_idx), cfg.batch_size):
            rows = order[:, start:start + cfg.batch_size]
            diverged = []
            for stack in stacks:
                grads = ad.backward(stack.weights, stack.biases, *stack.batch(rows[stack.members]))
                finite = np.isfinite(sum(grads.losses))
                if finite.all():
                    ad.sgd_step(stack.params, grads.params(), lr)
                else:
                    diverged.extend(stack.members[~finite])
            if diverged:
                raise TrainingDivergedError(keys[min(diverged)], epoch)

        val = [np.array(ad.losses(stack.weights, stack.biases, *batch))
               for stack, batch in zip(stacks, val_batches)]
        diverged = [i for stack, losses in zip(stacks, val)
                    for i in stack.members[~np.isfinite(losses).all(axis=0)]]
        if diverged:
            raise TrainingDivergedError(keys[min(diverged)], epoch)

        for s, (stack, losses) in enumerate(zip(stacks, val)):
            for i, column in zip(stack.members, losses.T.tolist()):
                trace = traces[i]
                trace.val_loss.append(dict(zip(models[i].specs, column)))
                trace.combined_val.append(sum(column))
                # Strictly lower, so the earliest epoch wins ties.
                if epoch == 0 or trace.combined_val[-1] < trace.combined_val[trace.best_epoch]:
                    trace.best_epoch = epoch
            stack.keep(np.array([traces[i].best_epoch == epoch for i in stack.members]))
            if probes:
                stack.probe(lr, *probe_batches[s], [traces[i] for i in stack.members])

    for stack in stacks:
        for param, best in zip(stack.params, stack.best):
            param[...] = best
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

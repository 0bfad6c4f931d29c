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
the explicit kernel in :mod:`autodiff`, and every label reaches it through
:func:`encode_labels`, which checks it first. Training is plain minibatch SGD
with an exponentially decaying learning rate. A model's key
(``model_key``: ``stl/a``, ``mtl/a/b``, ``inj/target/partner``) seeds its
weights and batch order and names it in a divergence error.

Each trainer (:func:`train_stl`, :func:`train_mtl`, :func:`train_injected`)
takes a sequence of models of its family and trains them as one *stack*:
every backbone parameter of the models sits on a leading ``(M, ...)`` axis,
and each batch is one ``ad.backward`` and one ``ad.sgd_step`` for the whole
stack. Injected models differ in input width; the stack pads the narrower
inputs and first-layer weights with zeros to the widest. A head *slot* (the
first or second head of every model) holds one head group per output width
and kind, over the stack slices whose task has it. All of the stack's
parameters are views of one flat array, and the step updates that array
once. Every model is built exactly as it would be alone and then pointed
at views into the stack, and each slice reads its own batches in its own
order, so every model comes out bit for bit as if trained on its own.

After every epoch the stack takes its validation losses from one forward
pass and, for MTL runs that ask for them, its GS/GT probes on the fixed
``eval_rows``: one backward pass per head slot gives the GS cosine between
the tasks' backbone gradients, and one forward pass per direction the GT
look-ahead loss after a backbone step on the partner's loss alone.

The returned model carries the parameters of the epoch with the lowest
validation loss (combined loss for MTL; ties go to the earliest epoch),
which the stack keeps in one flat copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .seeding import BATCHING, INIT, model_stream
from .tasks import MultiTaskDataset, TaskSpec, _integer, checked_labels

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
        object.__setattr__(self, "hidden_widths", tuple(
            _integer(f"hidden_widths[{i}]", w) for i, w in enumerate(self.hidden_widths)))
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError(f"hidden widths must be positive, got {self.hidden_widths}")
        for name in ("input_dim", "latent_dim"):
            if _integer(name, getattr(self, name)) < 1:
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
        for name in ("seed", "epochs", "batch_size", "eval_batch_size"):
            _integer(name, getattr(self, name))
        for name in ("initial_lr", "lr_decay"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if not 0.0 < self.initial_lr < math.inf:
            raise ValueError(f"initial_lr must be finite and > 0, got {self.initial_lr}")
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
    """Labels as the network reads them, as injected input or as loss target.

    Float ``(n, output_dim)``: one-hot for classes, raw for regression.
    Labels that misfit ``spec`` raise ValueError (:func:`checked_labels`).
    """
    y = checked_labels(spec, labels)
    return np.eye(spec.output_dim)[y] if spec.kind == "classification" else y


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
            heads.append(ad.Head(*self.heads[task], _loss(spec, encode_labels(spec, y))))
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


def _loss(spec: TaskSpec, target: np.ndarray) -> ad.Loss:
    """The kernel loss of ``spec`` against encoded labels (one batch, or one per stack slice)."""
    kernel = ad.softmax_cross_entropy if spec.kind == "classification" else ad.mse_loss
    return partial(kernel, target=target)


def eval_rows(dataset: MultiTaskDataset, size: int) -> np.ndarray:
    """The fixed rows the GS/GT probes and IAS/RSA read: the first ``size`` test examples."""
    return dataset.splits["test"][:size]


class _Job(NamedTuple):
    """One model to train: its key, its tasks in head order, its backbone and inputs."""
    key: str
    specs: tuple[TaskSpec, ...]
    backbone: BackboneConfig
    source: int                            # its row of the trainer's (rows, examples, width) inputs


class _HeadGroup(NamedTuple):
    """The heads of one slot that share an output width and kind, over some slices."""
    spec: TaskSpec                         # the first member's task: width and kind
    slices: np.ndarray                     # stack slices, in stack order
    labels: np.ndarray                     # each member's encoded task labels, stacked
    weight: np.ndarray                     # (len(slices), latent, width)
    bias: np.ndarray                       # (len(slices), width)

    def head(self, rows: np.ndarray, whole: bool) -> ad.Head:
        """The kernel head, slice ``i`` on the dataset rows ``rows[i]`` or on a 1-D ``rows``."""
        picked = rows[self.slices] if rows.ndim == 2 else rows
        labels = self.labels[np.arange(len(self.slices))[:, None], picked]
        return ad.Head(self.weight, self.bias, _loss(self.spec, labels),
                       None if whole else self.slices)


class _Stack:
    """Models whose backbones differ at most in input width, trained as one.

    Each backbone parameter is one ``(M, ...)`` array, and each head slot
    holds one :class:`_HeadGroup` per (output width, kind) of its slices'
    tasks; all of them are views of the one array ``flat``, so one update
    of ``flat`` is a step of every model. The first weight has the widest
    input's rows: a narrower model's weight is a view of its first rows,
    the rows below stay zero, and so do the columns past its width in the
    block it reads, slice ``i`` reading ``inputs[source[i]]``. ``best``
    holds each slice's parameters of its best epoch so far, and ``owner``
    names the slice of each element of ``flat``. ``grads``, laid out like
    ``flat``, is the one gradient buffer that every training step overwrites.
    """

    def __init__(self, models: Sequence[Model], jobs: Sequence[_Job], inputs: np.ndarray,
                 dataset: MultiTaskDataset):
        self.inputs = inputs
        self.source = np.array([[job.source] for job in jobs])
        # Each slot's groups: (output width, kind) -> the slices whose task has it.
        slots: list[dict[tuple[int, str], list[int]]] = []
        for slot in range(len(jobs[0].specs)):
            slots.append({})
            for k, job in enumerate(jobs):
                spec = job.specs[slot]
                slots[-1].setdefault((spec.output_dim, spec.kind), []).append(k)
        n, m = len(models[0].weights), len(models)
        width = max(job.backbone.input_dim for job in jobs)
        latent = models[0].config.latent_dim
        shapes = ([(m, width if i == 0 else w.shape[0], w.shape[1])
                   for i, w in enumerate(models[0].weights)]
                  + [(m, *b.shape) for b in models[0].biases]
                  + [shape for groups in slots for (out, _), slices in groups.items()
                     for shape in ((len(slices), latent, out), (len(slices), out))])
        self.flat, views = ad.flat_views(shapes, np.zeros)
        self.grads = ad.Gradients.empty(shapes, n)
        self.weights, self.biases = views[:n], views[n:2 * n]
        for k, model in enumerate(models):
            for stacked, param in zip(views, (*model.weights, *model.biases)):
                stacked[k, :len(param)] = param
            model.weights = [w[k, :len(mine)] for w, mine in zip(self.weights, model.weights)]
            model.biases = [b[k] for b in self.biases]

        head_views = iter(views[2 * n:])
        owners = [np.arange(m)] * (2 * n)
        self.slots: list[list[_HeadGroup]] = []
        for slot, groups in enumerate(slots):
            self.slots.append([])
            for slices in groups.values():
                specs = [jobs[k].specs[slot] for k in slices]
                group = _HeadGroup(specs[0], np.asarray(slices),
                                   np.stack([encode_labels(s, dataset.labels[s.name])
                                             for s in specs]),
                                   next(head_views), next(head_views))
                for i, (k, s) in enumerate(zip(slices, specs)):
                    group.weight[i], group.bias[i] = models[k].heads[s.name]
                    models[k].heads[s.name] = (group.weight[i], group.bias[i])
                self.slots[-1].append(group)
                owners += [group.slices] * 2
        self.owner = np.concatenate([np.repeat(slices, view[0].size)
                                     for slices, view in zip(owners, views)])
        self.best = self.flat.copy()

    def batch(self, rows: np.ndarray) -> tuple[list[list[ad.Head]], np.ndarray]:
        """Heads and inputs, slice ``i`` on rows ``rows[i]`` (every slice on a 1-D ``rows``)."""
        heads = [[g.head(rows, len(slot) == 1) for g in slot] for slot in self.slots]
        return heads, self.inputs[self.source, rows]

    def keep(self, improved: np.ndarray) -> None:
        """Copy the parameters of the ``improved`` slices into ``best``."""
        np.copyto(self.best, self.flat, where=improved[self.owner])

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


def _train_jobs(jobs: Sequence[_Job], inputs: np.ndarray, dataset: MultiTaskDataset,
                cfg: TrainConfig, probes: bool = False) -> list[tuple[Model, TrainTrace]]:
    """Build each job's model, seeded by its key, and train them all on ``dataset``.

    The jobs share one head count and differ in backbone at most by input
    width, so they make one :class:`_Stack`, whose slices follow ``jobs``
    order. Each model keeps its own batch order; a divergence is reported
    for the first model in ``jobs`` order whose loss went non-finite at
    the earliest (epoch, step).
    """
    if not jobs:
        raise ValueError("no models to train")
    keys = [job.key for job in jobs]
    repeated = sorted({k for k in keys if keys.count(k) > 1})
    if repeated:
        raise ValueError(f"model keys must be unique, got {repeated} more than once")

    models = [Model(job.specs, job.backbone, model_stream(cfg.seed, INIT, job.key))
              for job in jobs]
    stack = _Stack(models, jobs, inputs, dataset)

    def check(finite: np.ndarray, epoch: int) -> None:
        if not finite.all():
            raise TrainingDivergedError(keys[np.flatnonzero(~finite)[0]], epoch)

    batch_rngs = [model_stream(cfg.seed, BATCHING, key) for key in keys]
    train_idx = dataset.splits["train"]
    val_batch = stack.batch(dataset.splits["val"])
    traces = [TrainTrace(val_loss=[], combined_val=[], best_epoch=0) for _ in jobs]
    if probes:
        probe_batch = stack.batch(eval_rows(dataset, cfg.eval_batch_size))
        for trace, model in zip(traces, models):
            trace.gs_cosine = []
            trace.lookahead = {t: [] for t in model.specs}

    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        order = train_idx[np.stack([rng.permutation(len(train_idx)) for rng in batch_rngs])]
        for start in range(0, len(train_idx), cfg.batch_size):
            grads = ad.backward(stack.weights, stack.biases,
                                *stack.batch(order[:, start:start + cfg.batch_size]),
                                out=stack.grads)
            check(np.isfinite(sum(grads.losses)), epoch)
            ad.sgd_step([stack.flat], [grads.flat], lr)

        val = np.array(ad.losses(stack.weights, stack.biases, *val_batch))
        check(np.isfinite(val).all(axis=0), epoch)
        for trace, model, column in zip(traces, models, val.T.tolist()):
            trace.val_loss.append(dict(zip(model.specs, column)))
            trace.combined_val.append(sum(column))
            # Strictly lower, so the earliest epoch wins ties.
            if epoch == 0 or trace.combined_val[-1] < trace.combined_val[trace.best_epoch]:
                trace.best_epoch = epoch
        stack.keep(np.array([trace.best_epoch == epoch for trace in traces]))
        if probes:
            stack.probe(lr, *probe_batch, traces)

    stack.flat[...] = stack.best
    return list(zip(models, traces))


def _check_labels(dataset: MultiTaskDataset, specs: Sequence[TaskSpec]) -> None:
    missing = sorted({s.name for s in specs if s.name not in dataset.labels})
    if missing:
        raise KeyError(f"dataset lacks labels for {missing}; has {sorted(dataset.labels)}")


def _check_input_dim(trainer: str, field: str, backbone: BackboneConfig,
                     dataset: MultiTaskDataset, jobs: Sequence[_Job]) -> None:
    """Fail before any model is built when ``backbone`` does not read the dataset's inputs."""
    width = dataset.inputs.shape[1]
    if jobs and backbone.input_dim != width:
        raise ValueError(f"{trainer}: {field}.input_dim is {backbone.input_dim}, but the "
                         f"dataset's inputs have width {width} (first model {jobs[0].key})")


def train_stl(tasks: Sequence[TaskSpec], dataset: MultiTaskDataset,
              backbone: BackboneConfig, cfg: TrainConfig) -> list[tuple[Model, TrainTrace]]:
    """Train one single-task model per task, each returned at its best validation epoch."""
    _check_labels(dataset, tasks)
    jobs = [_Job(model_key("stl", [t.name]), (t,), backbone, 0) for t in tasks]
    _check_input_dim("train_stl", "backbone", backbone, dataset, jobs)
    return _train_jobs(jobs, dataset.inputs[None], dataset, cfg)


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
    jobs = [_Job(model_key("mtl", [a.name, b.name]), (a, b), backbone, 0) for a, b in pairs]
    _check_input_dim("train_mtl", "backbone", backbone, dataset, jobs)
    return _train_jobs(jobs, dataset.inputs[None], dataset, cfg, probes)


def train_injected(pairs: Sequence[tuple[TaskSpec, TaskSpec]], dataset: MultiTaskDataset,
                   half_backbone: BackboneConfig, cfg: TrainConfig,
                   ) -> list[tuple[Model, TrainTrace]]:
    """Train, per (target, partner), STL for ``target`` with ``partner``'s label appended.

    The backbone keeps the half-capacity hidden widths; only the input layer
    widens by the label encoding (one-hot for classification, raw values for
    regression; see :func:`extend_inputs`). A partner may equal its target:
    injecting a task's own label is the upper-bound case. The inputs are one
    block with a row per partner, zero-padded to the widest encoding, which
    every model of that partner reads.
    """
    _check_labels(dataset, [s for pair in pairs for s in pair])
    partners = {partner.name: partner for _, partner in pairs}
    n, d_in = dataset.inputs.shape
    inputs = np.zeros((len(partners), n,
                       d_in + max((p.output_dim for p in partners.values()), default=0)))
    for block, partner in zip(inputs, partners.values()):
        block[:, :d_in + partner.output_dim] = extend_inputs(
            dataset.inputs, partner, dataset.labels[partner.name])
    source = {name: i for i, name in enumerate(partners)}
    jobs = [_Job(model_key("inj", [target.name, partner.name]), (target,),
                 replace(half_backbone, input_dim=half_backbone.input_dim + partner.output_dim),
                 source[partner.name]) for target, partner in pairs]
    _check_input_dim("train_injected", "half_backbone", half_backbone, dataset, jobs)
    return _train_jobs(jobs, inputs, dataset, cfg)

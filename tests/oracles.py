"""Independent reference implementations used to check the real code.

Everything here is deliberately naive: central finite differences for
gradients, O(n^2) pair counting for rank correlations, and exhaustive
enumeration (or, for the best total at larger n, a DP over task subsets)
for the grouping optimizer, and a trainer that trains one model at a
time, against which the stacked trainer must match bit for bit. Slow is
fine; these only run in tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import replace
from typing import Callable, Mapping, Sequence

import numpy as np

from mtl_affinity import autodiff as ad
from mtl_affinity.models import (
    BackboneConfig,
    Model,
    TrainConfig,
    TrainingDivergedError,
    TrainTrace,
    eval_rows,
    extend_inputs,
    model_key,
)
from mtl_affinity.seeding import BATCHING, INIT, model_stream
from mtl_affinity.tasks import MultiTaskDataset, TaskSpec


def finite_difference_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                           step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f at x, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + step
        hi = f(x)
        xf[i] = orig - step
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * step)
    return grad


def pearson_naive(x: Sequence[float], y: Sequence[float]) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc)) * math.sqrt(float(yc @ yc))
    if denom == 0.0:
        raise ZeroDivisionError("constant input")
    return float(xc @ yc) / denom


def rankdata_naive(values: Sequence[float]) -> list[float]:
    """Average ranks (1-based); ties share the mean of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman_naive(x: Sequence[float], y: Sequence[float]) -> float:
    return pearson_naive(rankdata_naive(list(x)), rankdata_naive(list(y)))


def kendall_tau_naive(x: Sequence[float], y: Sequence[float],
                      variant: str = "b") -> float:
    """Kendall tau by brute-force enumeration of all pairs.

    tau-a divides by the total pair count; tau-b corrects both
    denominators for ties.
    """
    n = len(x)
    if n != len(y) or n < 2:
        raise ValueError("need two same-length sequences of length >= 2")
    concordant = discordant = ties_x = ties_y = 0
    for i, j in itertools.combinations(range(n), 2):
        dx = (x[i] > x[j]) - (x[i] < x[j])
        dy = (y[i] > y[j]) - (y[i] < y[j])
        if dx == 0 and dy == 0:
            ties_x += 1
            ties_y += 1
        elif dx == 0:
            ties_x += 1
        elif dy == 0:
            ties_y += 1
        elif dx == dy:
            concordant += 1
        else:
            discordant += 1
    total = n * (n - 1) // 2
    if variant == "a":
        return (concordant - discordant) / total
    denom = math.sqrt((total - ties_x) * (total - ties_y))
    if denom == 0.0:
        raise ZeroDivisionError("all pairs tied in one input")
    return (concordant - discordant) / denom


def enumerate_groupings(task_names: Sequence[str], stl_cost: float,
                        budget: float, mtl_cost: float | None = None):
    """Yield every way to serve each task exactly once within the budget.

    Candidates are single-task models (cost ``stl_cost``) and one two-task
    model per unordered pair (cost ``mtl_cost``, default ``2 * stl_cost``)
    which may serve one or both of its tasks. A grouping is a set of
    (kind, tasks, serves) triples.
    """
    if mtl_cost is None:
        mtl_cost = 2.0 * stl_cost
    names = list(task_names)
    candidates = [("stl", (t,), (t,)) for t in names]
    for a, b in itertools.combinations(names, 2):
        for serves in ((a,), (b,), (a, b)):
            candidates.append(("mtl", (a, b), serves))

    def cost(c):
        return stl_cost if c[0] == "stl" else mtl_cost

    def rec(remaining: frozenset, chosen: tuple, spent: float):
        if not remaining:
            yield chosen
            return
        pivot = min(remaining)
        for c in candidates:
            if pivot not in c[2]:
                continue
            sset = set(c[2])
            if not sset <= remaining:
                continue
            if c[0] == "mtl" and any(d[0] == "mtl" and set(d[1]) == set(c[1]) for d in chosen):
                continue  # at most one model per pair
            new_spent = spent + cost(c)
            if new_spent > budget + 1e-9:
                continue
            yield from rec(remaining - sset, chosen + (c,), new_spent)

    yield from rec(frozenset(names), (), 0.0)


def best_grouping_naive(task_names: Sequence[str], gains: dict,
                        stl_cost: float, budget: float, mtl_cost: float | None = None):
    """Exhaustively maximize summed served-task gain; None when infeasible.

    ``gains[(a, b)]`` is the gain of task ``a`` served by the two-task
    model trained on {a, b}; STL-served tasks contribute 0. Ties are
    broken by the lexicographic encoding of the grouping (sorted candidate
    descriptions).
    """
    best = None
    best_key = None
    for grouping in enumerate_groupings(task_names, stl_cost, budget, mtl_cost):
        total = 0.0
        for kind, tasks, serves in grouping:
            if kind == "mtl":
                for t in serves:
                    other = tasks[0] if tasks[1] == t else tasks[1]
                    total += gains[(t, other)]
        key = tuple(sorted((tuple(sorted(tasks)), tuple(sorted(serves)))
                           for _, tasks, serves in grouping))
        if best is None or total > best[0] or (total == best[0] and key < best_key):
            best = (total, grouping)
            best_key = key
    return best


def best_total_by_subsets(task_names: Sequence[str], gains: dict, stl_cost: float,
                          budget: float, mtl_cost: float) -> float | None:
    """The best summed served-task gain by a DP over task subsets; None if infeasible.

    ``gains`` is keyed as in :func:`best_grouping_naive`. Each task is served
    by its single-task model (gain 0), alone by a two-task model with its
    best partner, or together with another task by one two-task model. The
    rule that a pair trains at most one model is dropped: two models of one
    pair that each serve one task are never better than one model serving
    both, so the best total is the same.
    """
    names = list(task_names)
    solo = [max(gains[(t, w)] for w in names if w != t) for t in names]

    @functools.lru_cache(maxsize=None)
    def table(mask: int) -> dict:
        """(two-task models, single-task models) -> best gain of serving ``mask``."""
        if not mask:
            return {(0, 0): 0.0}
        p = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << p)
        out: dict = {}

        def offer(key, value):
            if value > out.get(key, -math.inf):
                out[key] = value
        for (m, k), v in table(rest).items():
            offer((m, k + 1), v)
            offer((m + 1, k), v + solo[p])
        for q in range(len(names)):
            if rest >> q & 1:
                pair = gains[(names[p], names[q])] + gains[(names[q], names[p])]
                for (m, k), v in table(rest & ~(1 << q)).items():
                    offer((m + 1, k), v + pair)
        return out

    totals = [v for (m, k), v in table((1 << len(names)) - 1).items()
              if m * mtl_cost + k * stl_cost <= budget + 1e-9]
    return max(totals) if totals else None


# --- one model at a time: the reference for the stacked trainer ---


def _epoch_batches(rng: np.random.Generator, n: int, batch_size: int):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def pair_probes(model: Model, lr: float, inputs: np.ndarray,
                labels: Mapping[str, np.ndarray],
                ) -> tuple[float, dict[str, tuple[float, float]]]:
    """The GS cosine and both look-ahead directions of one pair model, from one gradient per task.

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


def reference_train(key: str, specs: Sequence[TaskSpec], dataset: MultiTaskDataset,
                    backbone: BackboneConfig, cfg: TrainConfig,
                    probes: bool = False) -> tuple[Model, TrainTrace]:
    """Build the model for ``specs``, seeded by its job key, and train it on ``dataset``.

    One ``backward`` and one ``sgd_step`` per model per batch; validation,
    the best-epoch copy and the probes also run for this model alone.
    """
    model = Model(specs, backbone, model_stream(cfg.seed, INIT, key))
    tasks = list(model.specs)
    batch_rng = model_stream(cfg.seed, BATCHING, key)
    train_idx = dataset.splits["train"]
    val_inputs, val_labels = dataset.batch(dataset.splits["val"], tasks)
    eval_inputs, eval_labels = dataset.batch(eval_rows(dataset, cfg.eval_batch_size), tasks)

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
            best_params = [p.copy() for p in model.params()]

        if probes:
            cosine, lookahead = pair_probes(model, lr, eval_inputs, eval_labels)
            trace.gs_cosine.append(cosine)
            for target, pair in lookahead.items():
                trace.lookahead[target].append(pair)

    for param, best in zip(model.params(), best_params):
        param[...] = best
    return model, trace


def reference_train_injected(target: TaskSpec, partner: TaskSpec, dataset: MultiTaskDataset,
                             half_backbone: BackboneConfig, cfg: TrainConfig,
                             ) -> tuple[Model, TrainTrace]:
    """The injected model for ``target`` with ``partner``'s label appended, alone."""
    key = model_key("inj", [target.name, partner.name])
    extended = extend_inputs(dataset.inputs, partner, dataset.labels[partner.name])
    backbone = replace(half_backbone, input_dim=half_backbone.input_dim + partner.output_dim)
    return reference_train(key, [target], replace(dataset, inputs=extended), backbone, cfg)

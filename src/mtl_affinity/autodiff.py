"""Explicit forward and backward passes for the one model family the lab trains.

Every model is a backbone, a stack of dense layers with ReLU between them
and a linear last layer (the latent), followed by one or more dense linear
heads, each scored by its own loss: mean squared error or softmax
cross-entropy. :func:`backward` runs the backbone forward once, each head
and its loss, then backpropagates each head's latent gradient through the
backbone separately and adds the parameter gradients head by head. It
returns the losses, every parameter gradient and, on request, the gradient
with respect to the input. :func:`sgd_step` applies one plain SGD update in
place. Parameters are plain float64 ndarrays owned by the caller.

The same calls serve a *stack* of M models of one backbone shape: every
backbone parameter and the input batch then carry a leading ``(M, ...)``
axis, and each head position (a *slot*) is a sequence of :class:`Head`
groups, one per (output width, loss) over the stack slices listed in its
``slices``. A slot's latent gradient is assembled over the whole stack from
its groups and backpropagated once; the losses come back per slice.

The arithmetic is fixed so that results repeat to the bit, and a stack
slice gets the bits its model would get on its own: a layer is
``x @ W + b``; ReLU is ``np.where(z > 0.0, z, 0.0)`` with derivative
``g * (z > 0.0)``, so 0 at the kink; a layer's gradients are
``a.swapaxes(-1, -2) @ g``, ``g.sum(axis=-2)`` and ``g @ W.swapaxes(-1, -2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Head",
    "Gradients",
    "mse_loss",
    "softmax_cross_entropy",
    "forward",
    "losses",
    "backward",
    "sgd_step",
]

# A loss maps (prediction, grad) to (mean loss, d loss / d prediction or None).
Loss = Callable[..., tuple[float, np.ndarray | None]]


class Head(NamedTuple):
    """One dense linear head on the latent, and the loss scoring its output.

    In a stack, ``weight`` and ``bias`` hold one head per slice in
    ``slices`` (all slices when None), in that order.
    """

    weight: np.ndarray
    bias: np.ndarray
    loss: Loss
    slices: np.ndarray | None = None


@dataclass
class Gradients:
    """Result of one :func:`backward` call.

    Attributes:
        losses: each head slot's loss, in head order; per slice in a stack.
        weights, biases: backbone gradients, layer by layer.
        heads: (weight, bias) gradient of each head, in head order; in a
            stack, of each group of each slot.
        inputs: gradient with respect to the input batch, when requested.
    """

    losses: list
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    heads: list[tuple[np.ndarray, np.ndarray]]
    inputs: np.ndarray | None = None

    def backbone(self) -> list[np.ndarray]:
        """Backbone gradients: every weight, then every bias."""
        return [*self.weights, *self.biases]

    def params(self) -> list[np.ndarray]:
        """All gradients: the backbone's, then each head's weight and bias."""
        out = self.backbone()
        for gw, gb in self.heads:
            out.extend((gw, gb))
        return out


def _swap(a: np.ndarray) -> np.ndarray:
    """The transpose of each matrix, stacked or not."""
    return a.swapaxes(-1, -2)


def mse_loss(pred: np.ndarray, target: np.ndarray,
             grad: bool = False) -> tuple[float | np.ndarray, np.ndarray | None]:
    """Mean squared error over all elements, and its gradient when ``grad``.

    A 3-D ``pred`` is a stack of M batches and gives M losses, each over
    its own batch's elements.
    """
    if pred.shape != target.shape:
        raise ValueError(f"mse_loss: shapes differ, {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ValueError("mse_loss: empty batch")
    diff = pred - target
    if pred.ndim == 3:
        loss, size = np.mean(diff * diff, axis=(-2, -1)), pred[0].size
    else:
        loss, size = float(np.mean(diff * diff)), pred.size
    return loss, ((2.0 / size) * diff if grad else None)


def softmax_cross_entropy(logits: np.ndarray, class_index: Sequence[int] | np.ndarray,
                          grad: bool = False) -> tuple[float | np.ndarray, np.ndarray | None]:
    """Mean negative log-softmax of the true class over the batch.

    Args:
        logits: m x C scores, or M x m x C for a stack, which gives M losses.
        class_index: integer class ids in [0, C), shaped like ``logits``
            without its last axis.
        grad: also return d loss / d logits, (softmax - onehot) / m.
    """
    if logits.ndim not in (2, 3):
        raise ValueError(f"softmax_cross_entropy needs 2-D or stacked logits, got {logits.shape}")
    *lead, m, c = logits.shape
    if m == 0:
        raise ValueError("softmax_cross_entropy: empty batch")
    idx = np.asarray(class_index)
    if idx.shape != (*lead, m):
        raise ValueError(f"class_index must have shape {(*lead, m)}, got {idx.shape}")
    if not np.issubdtype(idx.dtype, np.integer):
        if not np.all(idx == idx.astype(np.int64)):
            raise ValueError("class_index must be integers")
        idx = idx.astype(np.int64)
    if idx.min() < 0 or idx.max() >= c:
        raise ValueError(f"class_index out of range [0, {c})")

    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    picked = (*np.indices(idx.shape, sparse=True), idx)
    loss = -log_probs[picked].mean(axis=-1)
    loss = float(loss) if not lead else loss
    if not grad:
        return loss, None
    soft = np.exp(log_probs)
    soft[picked] -= 1.0
    return loss, soft / m


def _forward(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
             x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each layer's input, then the latent; and the ReLU mask of each hidden layer."""
    acts = [x]
    masks = []
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w + b[..., None, :]
        if i != last:
            mask = z > 0.0
            masks.append(mask)
            z = np.where(mask, z, 0.0)
        acts.append(z)
    return acts, masks


def forward(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
            x: np.ndarray) -> np.ndarray:
    """The backbone's latent for an input batch."""
    return _forward(weights, biases, np.ascontiguousarray(x, dtype=np.float64))[0][-1]


def _head_output(head: Head, latent: np.ndarray) -> np.ndarray:
    return latent @ head.weight + head.bias[..., None, :]


def losses(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
           heads: Sequence[Head | Sequence[Head]], x: np.ndarray) -> list:
    """Each head slot's loss (per slice in a stack) on one batch, from one forward pass."""
    latent = forward(weights, biases, x)
    return [_slot_pass(slot, latent)[0] for slot in heads]


def _slot_pass(slot: Head | Sequence[Head], latent: np.ndarray, grads: Gradients | None = None,
               ) -> tuple[float | np.ndarray, np.ndarray | None]:
    """One head slot's loss; with ``grads``, its head gradients (appended) and latent gradient."""
    groups = [slot] if isinstance(slot, Head) else list(slot)
    whole = len(groups) == 1 and groups[0].slices is None
    if not whole:
        slot_loss = np.empty(latent.shape[0])
        slot_grad = np.empty_like(latent) if grads is not None else None
    for h in groups:
        z = latent if h.slices is None else latent[h.slices]
        loss, g = h.loss(_head_output(h, z), grad=grads is not None)
        if g is not None:
            grads.heads.append((_swap(z) @ g, g.sum(axis=-2)))
            g = g @ _swap(h.weight)
        if whole:
            slot_loss, slot_grad = loss, g
        else:
            slot_loss[h.slices] = loss
            if g is not None:
                slot_grad[h.slices] = g
    return slot_loss, slot_grad


def backward(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
             heads: Sequence[Head | Sequence[Head]], x: np.ndarray,
             input_grad: bool = False) -> Gradients:
    """Losses and gradients of the summed head losses on one batch.

    ``heads`` lists the head slots in order: a :class:`Head`, or in a stack
    the head groups that together cover every slice once. Each slot's
    backbone gradients are computed on their own and then added, slot by
    slot; summing the latent gradients first would reorder float sums and
    change the results in the last bits.
    """
    acts, masks = _forward(weights, biases, np.ascontiguousarray(x, dtype=np.float64))
    out = Gradients(losses=[], weights=[], biases=[], heads=[])
    for slot in heads:
        loss, g = _slot_pass(slot, acts[-1], out)
        out.losses.append(loss)
        gws, gbs = [], []
        for i in range(len(weights) - 1, -1, -1):
            gws.append(_swap(acts[i]) @ g)
            gbs.append(g.sum(axis=-2))
            if i > 0:
                g = (g @ _swap(weights[i])) * masks[i - 1]
            elif input_grad:
                g = g @ _swap(weights[0])
                out.inputs = g if out.inputs is None else out.inputs + g
        gws.reverse()
        gbs.reverse()
        if out.weights:
            out.weights = [a + b for a, b in zip(out.weights, gws)]
            out.biases = [a + b for a, b in zip(out.biases, gbs)]
        else:
            out.weights, out.biases = gws, gbs
    return out


def sgd_step(params: Sequence[np.ndarray], grads: Sequence[np.ndarray], lr: float) -> None:
    """p <- p - lr * g for every parameter, in place."""
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    if len(params) != len(grads):
        raise ValueError(f"sgd_step: {len(params)} parameters but {len(grads)} gradients")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"sgd_step: gradient shape {g.shape} != parameter shape {p.shape}")
    for p, g in zip(params, grads):
        p -= lr * g

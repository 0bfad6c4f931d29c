"""Explicit forward and backward passes for the one model family the lab trains.

Every model is a backbone, a stack of dense layers with ReLU between them
and a linear last layer (the latent), followed by one or more dense linear
heads, each scored by its own loss against a target shaped like its
output, floats for mean squared error or one-hot rows for softmax
cross-entropy. :func:`backward` runs the backbone forward once, then each
head and its loss, adds the heads' latent gradients in head order and
backpropagates that sum through the backbone once. It returns the losses,
every parameter gradient and, on request, the gradient with respect to the
input, all gradients in one flat array, which a training loop may pass
back to be overwritten on its next step. :func:`sgd_step` applies one plain
SGD update in place. Parameters are plain float64 ndarrays owned by the
caller; :func:`flat_views` lays several out in one flat array, so that one
update covers them all.

The same calls serve a *stack* of M models of one backbone shape: every
backbone parameter and the input batch then carry a leading ``(M, ...)``
axis, and each head position (a *slot*) is a sequence of :class:`Head`
groups, one per (output width, loss) over the stack slices listed in its
``slices``. A slot's latent gradient is assembled over the whole stack from
its groups, the slots' latent gradients are summed in slot order, and the
sum is backpropagated once; the losses come back per slice.

The arithmetic is fixed so that results repeat to the bit, and a stack
slice gets the bits its model would get on its own: a layer is
``x @ W + b``; ReLU equals ``np.where(z > 0.0, z, 0.0)`` to the bit (so
0.0 for -0.0, NaN and -inf), computed in place as ``fmax(z, 0.0) + 0.0``,
with derivative ``g * (z > 0.0)``, so 0 at the kink; a layer's gradients are
``a.swapaxes(-1, -2) @ g``, ``g.sum(axis=-2)`` and ``g @ W.swapaxes(-1, -2)``.
The losses call ``np.add.reduce`` and ``np.maximum.reduce`` directly: the
ufuncs that ``np.mean``, ``.sum`` and ``.max`` call, in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
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
    "flat_views",
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
        flat: every parameter gradient in one array, in :meth:`params`
            order; each of those gradients is a view of it.
        inputs: gradient with respect to the input batch, when requested.
    """

    losses: list
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    heads: list[tuple[np.ndarray, np.ndarray]]
    flat: np.ndarray
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

    @classmethod
    def empty(cls, shapes: Sequence[tuple[int, ...]], layers: int) -> "Gradients":
        """Unfilled gradients for parameters of ``shapes``, in :meth:`params` order,
        for a backbone of ``layers`` layers; the buffer :func:`backward` fills."""
        flat, views = flat_views(shapes)
        return cls(losses=[], weights=views[:layers], biases=views[layers:2 * layers],
                   heads=list(zip(views[2 * layers::2], views[2 * layers + 1::2])), flat=flat)


def _swap(a: np.ndarray) -> np.ndarray:
    """The transpose of each matrix, stacked or not."""
    return a.swapaxes(-1, -2)


def flat_views(shapes: Sequence[tuple[int, ...]], alloc=np.empty,
               ) -> tuple[np.ndarray, list[np.ndarray]]:
    """One float64 array from ``alloc(size)``, and a view of it per shape, in order."""
    ends = [0, *accumulate(map(math.prod, shapes))]
    flat = alloc(ends[-1])
    return flat, [flat[a:b].reshape(shape) for a, b, shape in zip(ends, ends[1:], shapes)]


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
        loss, size = np.add.reduce(diff * diff, axis=(-2, -1)) / pred[0].size, pred[0].size
    else:
        loss, size = float(np.add.reduce(diff * diff, axis=None) / pred.size), pred.size
    return loss, ((2.0 / size) * diff if grad else None)


def softmax_cross_entropy(logits: np.ndarray, target: np.ndarray,
                          grad: bool = False) -> tuple[float | np.ndarray, np.ndarray | None]:
    """Mean cross-entropy of softmax(logits) against a one-hot ``target`` shaped like ``logits``.

    A 3-D ``logits`` is a stack of M batches and gives M losses. With
    ``grad``, also returns d loss / d logits, (softmax - target) / m.
    """
    if logits.shape != target.shape:
        raise ValueError(f"softmax_cross_entropy: shapes differ, {logits.shape} vs {target.shape}")
    if logits.size == 0:
        raise ValueError("softmax_cross_entropy: empty batch")
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    loss = -(np.add.reduce(np.add.reduce(target * log_probs, axis=-1), axis=-1)
             / logits.shape[-2])
    loss = loss if logits.ndim == 3 else float(loss)
    return loss, ((np.exp(log_probs) - target) / logits.shape[-2] if grad else None)


def _forward(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
             x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each layer's input, then the latent; and the ReLU mask of each hidden layer."""
    acts = [x]
    masks = []
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w
        z += b[..., None, :]
        if i != last:
            masks.append(z > 0.0)
            # fmax sends NaN and -inf to 0; + 0.0 turns -0.0 into +0.0.
            np.fmax(z, 0.0, out=z)
            z += 0.0
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


def _slot_pass(slot: Head | Sequence[Head], latent: np.ndarray, grads=None,
               ) -> tuple[float | np.ndarray, np.ndarray | None]:
    """One head slot's loss; with ``grads``, which yields a (weight, bias) gradient
    pair to fill per group, also its latent gradient."""
    groups = [slot] if isinstance(slot, Head) else list(slot)
    whole = len(groups) == 1 and groups[0].slices is None
    if not whole:
        slot_loss = np.empty(latent.shape[0])
        slot_grad = np.empty_like(latent) if grads is not None else None
    for h in groups:
        z = latent if h.slices is None else latent[h.slices]
        loss, g = h.loss(_head_output(h, z), grad=grads is not None)
        if g is not None:
            gw, gb = next(grads)
            np.matmul(_swap(z), g, out=gw)
            np.add.reduce(g, axis=-2, out=gb)
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
             input_grad: bool = False, out: Gradients | None = None) -> Gradients:
    """Losses and gradients of the summed head losses on one batch.

    ``heads`` lists the head slots in order: a :class:`Head`, or in a stack
    the head groups that together cover every slice once. The slots' latent
    gradients are added in slot order and the sum is backpropagated through
    the backbone once. That differs in the last bits from backpropagating
    each slot alone and adding the results; one slot takes no addition.

    ``out``, a :meth:`Gradients.empty` laid out for these parameters (or
    an earlier result for them), is overwritten in full and returned, so a
    training loop need not allocate its gradients on every step.
    """
    acts, masks = _forward(weights, biases, np.ascontiguousarray(x, dtype=np.float64))
    n = len(weights)
    slots = [[slot] if isinstance(slot, Head) else list(slot) for slot in heads]
    if out is None:
        out = Gradients.empty([p.shape for p in (*weights, *biases)] + [
            p.shape for slot in slots for h in slot for p in (h.weight, h.bias)], n)
    out.losses, out.inputs = [], None
    head_grads = iter(out.heads)
    g = None
    for slot in slots:
        loss, slot_grad = _slot_pass(slot, acts[-1], head_grads)
        out.losses.append(loss)
        g = slot_grad if g is None else g + slot_grad
    for i in range(n - 1, -1, -1):
        np.matmul(_swap(acts[i]), g, out=out.weights[i])
        np.add.reduce(g, axis=-2, out=out.biases[i])
        if i > 0:
            g = (g @ _swap(weights[i])) * masks[i - 1]
        elif input_grad:
            out.inputs = g @ _swap(weights[0])
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

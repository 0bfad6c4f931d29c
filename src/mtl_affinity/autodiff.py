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

The arithmetic is fixed so that results repeat to the bit: a layer is
``x @ W + b``; ReLU is ``np.where(z > 0.0, z, 0.0)`` with derivative
``g * (z > 0.0)``, so 0 at the kink; a layer's gradients are ``a.T @ g``,
``g.sum(axis=0)`` and ``g @ W.T``.
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
    """One dense linear head on the latent, and the loss scoring its output."""

    weight: np.ndarray
    bias: np.ndarray
    loss: Loss


@dataclass
class Gradients:
    """Result of one :func:`backward` call.

    Attributes:
        losses: each head's loss, in head order.
        weights, biases: backbone gradients, layer by layer.
        heads: (weight, bias) gradient of each head, in head order.
        inputs: gradient with respect to the input batch, when requested.
    """

    losses: list[float]
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


def mse_loss(pred: np.ndarray, target: np.ndarray,
             grad: bool = False) -> tuple[float, np.ndarray | None]:
    """Mean squared error over all elements, and its gradient when ``grad``."""
    if pred.shape != target.shape:
        raise ValueError(f"mse_loss: shapes differ, {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ValueError("mse_loss: empty batch")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, ((2.0 / pred.size) * diff if grad else None)


def softmax_cross_entropy(logits: np.ndarray, class_index: Sequence[int] | np.ndarray,
                          grad: bool = False) -> tuple[float, np.ndarray | None]:
    """Mean negative log-softmax of the true class over the batch.

    Args:
        logits: m x C scores.
        class_index: m integer class ids in [0, C).
        grad: also return d loss / d logits, (softmax - onehot) / m.
    """
    if logits.ndim != 2:
        raise ValueError(f"softmax_cross_entropy needs 2-D logits, got {logits.shape}")
    m, c = logits.shape
    if m == 0:
        raise ValueError("softmax_cross_entropy: empty batch")
    idx = np.asarray(class_index)
    if idx.shape != (m,):
        raise ValueError(f"class_index must have shape ({m},), got {idx.shape}")
    if not np.issubdtype(idx.dtype, np.integer):
        if not np.all(idx == idx.astype(np.int64)):
            raise ValueError("class_index must be integers")
        idx = idx.astype(np.int64)
    if idx.min() < 0 or idx.max() >= c:
        raise ValueError(f"class_index out of range [0, {c})")

    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    rows = np.arange(m)
    loss = float(-log_probs[rows, idx].mean())
    if not grad:
        return loss, None
    soft = np.exp(log_probs)
    soft[rows, idx] -= 1.0
    return loss, soft / m


def _forward(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
             x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each layer's input, then the latent; and the ReLU mask of each hidden layer."""
    acts = [x]
    masks = []
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w + b
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


def losses(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
           heads: Sequence[Head], x: np.ndarray) -> list[float]:
    """Each head's loss on one batch, from a single backbone forward pass."""
    latent = forward(weights, biases, x)
    return [h.loss(latent @ h.weight + h.bias)[0] for h in heads]


def backward(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
             heads: Sequence[Head], x: np.ndarray, input_grad: bool = False) -> Gradients:
    """Losses and gradients of the summed head losses on one batch.

    Each head's backbone gradients are computed on their own and then
    added, head by head; summing the latent gradients first would reorder
    float sums and change the results in the last bits.
    """
    acts, masks = _forward(weights, biases, np.ascontiguousarray(x, dtype=np.float64))
    latent = acts[-1]
    out = Gradients(losses=[], weights=[], biases=[], heads=[])
    for h in heads:
        loss, g = h.loss(latent @ h.weight + h.bias, grad=True)
        out.losses.append(loss)
        out.heads.append((latent.T @ g, g.sum(axis=0)))
        g = g @ h.weight.T
        gws, gbs = [], []
        for i in range(len(weights) - 1, -1, -1):
            gws.append(acts[i].T @ g)
            gbs.append(g.sum(axis=0))
            if i > 0:
                g = (g @ weights[i].T) * masks[i - 1]
            elif input_grad:
                g = g @ weights[0].T
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

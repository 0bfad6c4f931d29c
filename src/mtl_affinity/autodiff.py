"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

Just enough machinery for small MLPs: matrix products, elementwise sum and
product, ReLU, the two losses, and plain SGD. Operations record nodes on
the currently active :class:`Tape` (opened as a context manager) whenever
an input requires gradients; :func:`backward` replays the tape once in
reverse.

A tape and the tensors recorded on it belong to one thread; independent
tapes may run concurrently.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "GradientError",
    "matmul",
    "add",
    "mul",
    "relu",
    "mse_loss",
    "softmax_cross_entropy",
    "backward",
    "sgd_step",
    "zero_grads",
]


class GradientError(RuntimeError):
    """Misuse of the tape machinery (missing grads, non-scalar root, ...)."""


class Tensor:
    """A dense row-major float64 array, optionally tracked for gradients.

    Attributes:
        data: the values, a C-contiguous float64 ndarray.
        requires_grad: whether backward should produce a gradient for it.
        grad: accumulated gradient of the last backward root, same shape
            as ``data``; ``None`` until populated.
    """

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._tape: "Tape | None" = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise GradientError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class _Node:
    """One tape record: inputs, the produced tensor, and its backward rule."""

    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs: tuple[Tensor, ...], output: Tensor,
                 backward_fn: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


_ACTIVE = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_ACTIVE, "tape", None)


class Tape:
    """An ordered record (Wengert list) of differentiable operations.

    Nodes are appended in execution order, which is a topological order of
    the computation graph; backward walks the list once in reverse.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise GradientError("a tape is already recording on this thread")
        _ACTIVE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.tape = None


def _record(inputs: tuple[Tensor, ...], out_data: np.ndarray,
            backward_fn: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]) -> Tensor:
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape
        tape.nodes.append(_Node(inputs, out, backward_fn))
    return out


def _check_tensor(x, name: str) -> Tensor:
    if not isinstance(x, Tensor):
        raise TypeError(f"{name} must be a Tensor, got {type(x).__name__}")
    return x


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a 2-D ``a`` (m x k) and 2-D ``b`` (k x n)."""
    _check_tensor(a, "a")
    _check_tensor(b, "b")
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    a_grad, b_grad = a.requires_grad, b.requires_grad

    def backward_fn(g: np.ndarray):
        return (g @ b.data.T if a_grad else None,
                a.data.T @ g if b_grad else None)

    return _record((a, b), a.data @ b.data, backward_fn)


def _elementwise_shapes(a: Tensor, b: Tensor, op: str) -> bool:
    """Validate shapes; returns True when ``b`` is a bias vector over a batch.

    The only broadcast allowed anywhere is adding a length-n vector to an
    m x n matrix (a bias over the batch dimension).
    """
    if a.shape == b.shape:
        return False
    if op == "add" and a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        return True
    raise ValueError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts matrix + bias-vector (broadcast over rows)."""
    _check_tensor(a, "a")
    _check_tensor(b, "b")
    bias = _elementwise_shapes(a, b, "add")
    a_grad, b_grad = a.requires_grad, b.requires_grad

    def backward_fn(g: np.ndarray):
        gb = None
        if b_grad:
            gb = g.sum(axis=0) if bias else g
        return (g if a_grad else None, gb)

    return _record((a, b), a.data + b.data, backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_tensor(a, "a")
    _check_tensor(b, "b")
    _elementwise_shapes(a, b, "mul")
    a_grad, b_grad = a.requires_grad, b.requires_grad

    def backward_fn(g: np.ndarray):
        return (g * b.data if a_grad else None,
                g * a.data if b_grad else None)

    return _record((a, b), a.data * b.data, backward_fn)


def relu(a: Tensor) -> Tensor:
    """max(0, x); the derivative at exactly 0 is 0."""
    _check_tensor(a, "a")
    mask = a.data > 0.0
    a_grad = a.requires_grad

    def backward_fn(g: np.ndarray):
        return (g * mask if a_grad else None,)

    return _record((a,), np.where(mask, a.data, 0.0), backward_fn)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements, as a scalar tensor."""
    _check_tensor(pred, "pred")
    _check_tensor(target, "target")
    if pred.shape != target.shape:
        raise ValueError(f"mse_loss: shapes differ, {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ValueError("mse_loss: empty batch")
    diff = pred.data - target.data
    n = pred.size
    p_grad, t_grad = pred.requires_grad, target.requires_grad

    def backward_fn(g: np.ndarray):
        base = (2.0 / n) * diff * g
        return (base if p_grad else None, -base if t_grad else None)

    return _record((pred, target), np.array(np.mean(diff * diff)), backward_fn)


def softmax_cross_entropy(logits: Tensor, class_index: Sequence[int] | np.ndarray) -> Tensor:
    """Mean negative log-softmax of the true class over the batch.

    Args:
        logits: m x C scores.
        class_index: m integer class ids in [0, C).
    """
    _check_tensor(logits, "logits")
    if logits.data.ndim != 2:
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

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -log_probs[np.arange(m), idx].mean()
    l_grad = logits.requires_grad

    def backward_fn(g: np.ndarray):
        if not l_grad:
            return (None,)
        soft = np.exp(log_probs)
        soft[np.arange(m), idx] -= 1.0
        return (g * soft / m,)

    return _record((logits,), np.array(loss), backward_fn)


def backward(root: Tensor) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``root``.

    ``root`` must be a scalar produced under a tape. Gradients accumulate:
    calling backward twice without clearing doubles the leaf grads.
    """
    _check_tensor(root, "root")
    if root.data.size != 1:
        raise GradientError(f"backward root must be scalar, got shape {root.shape}")
    tape = root._tape
    if tape is None:
        if root.requires_grad:
            # A bare leaf: its gradient with respect to itself is 1.
            root.grad = (np.zeros_like(root.data) if root.grad is None else root.grad) + 1.0
        return
    flowing: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    if root.requires_grad:
        root.grad = (np.zeros_like(root.data) if root.grad is None else root.grad) + 1.0
    for node in reversed(tape.nodes):
        g = flowing.pop(id(node.output), None)
        if g is None:
            continue  # not on a path to the root
        for tensor, piece in zip(node.inputs, node.backward_fn(g)):
            if piece is None or not tensor.requires_grad:
                continue
            if tensor.grad is None:
                tensor.grad = np.zeros_like(tensor.data)
            tensor.grad += piece
            if tensor._tape is tape:
                prior = flowing.get(id(tensor))
                flowing[id(tensor)] = piece if prior is None else prior + piece


def sgd_step(params: Sequence[Tensor], lr: float) -> None:
    """p <- p - lr * grad(p) for every parameter, then zero the grads."""
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    for p in params:
        _check_tensor(p, "param")
        if p.grad is None:
            raise GradientError("sgd_step: a parameter has no gradient (run backward first)")
    for p in params:
        p.data -= lr * p.grad
        p.grad = None


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None

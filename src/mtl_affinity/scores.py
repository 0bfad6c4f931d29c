"""The six pairwise task-affinity scores and the matrices they fill.

Higher always means "more affine". Four scores are symmetric in the pair
(TD, IAS, RSA, GS); two depend on direction (LI, GT). The directional
convention throughout: a value "for target a with partner b" lands in
matrix cell (row b, column a).

Score summary:

* TD: negated taxonomy-tree distance, read from a user-supplied table.
* IAS: mean cosine between the models' input-times-gradient attribution
  maps over a batch.
* RSA: Spearman correlation between the two backbones' representation
  dissimilarity matrices on a batch.
* LI: relative test-loss drop when the partner's label is injected as an
  extra input.
* GS: per-epoch cosine between the two tasks' backbone gradients in a
  joint run, averaged over all epochs.
* GT: per-epoch relative loss change of the target after a simulated
  backbone step on the partner's loss alone, averaged over all epochs.

GS values are kept in their natural [-1, 1] units here; any x100
presentation is a formatting concern. GT uses the "1 - ratio" form so
positive means the partner helps; the bare look-ahead ratio is recoverable
as 1 - score. The kind table (``SCORE_KINDS``) lives in :mod:`evaluation`.
Degenerate inputs raise :class:`stats.DegenerateInputError`, as the statistics do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .stats import DegenerateInputError, spearman

if TYPE_CHECKING:
    from .models import Model, TrainTrace

__all__ = [
    "ScoreValue",
    "input_x_gradient",
    "input_attribution_similarity",
    "representation_dissimilarity",
    "rsa",
    "label_injection",
    "gradient_similarity",
    "gradient_transference",
]

class ScoreValue(float):
    """A score that also remembers how many examples/epochs went into it."""

    skipped: int
    used: int

    def __new__(cls, value: float, skipped: int = 0, used: int = 0) -> "ScoreValue":
        obj = super().__new__(cls, value)
        obj.skipped = skipped
        obj.used = used
        return obj


def input_x_gradient(model: Model, inputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Attribution maps of a single-task model: input elementwise times d(loss)/d(input).

    One row per example. The batch-mean loss is differentiated, which
    scales every row by the same positive constant relative to per-example
    losses; direction-based uses (cosines, zero checks) are unaffected.
    """
    [task] = model.specs
    x = np.asarray(inputs, dtype=np.float64)
    return x * model.gradients(x, {task: labels}, input_grad=True).inputs


def input_attribution_similarity(
    model_a: Model,
    model_b: Model,
    inputs: np.ndarray,
    labels_a: np.ndarray,
    labels_b: np.ndarray,
) -> ScoreValue:
    """Mean per-example cosine between two single-task models' attribution maps.

    Symmetric, in [-1, 1]. Examples where either map has zero norm are
    skipped; the returned value records how many.

    Raises:
        DegenerateInputError: every example was skipped.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] == 0:
        raise ValueError(f"need a non-empty 2-D batch, got shape {inputs.shape}")
    for name, model in (("first", model_a), ("second", model_b)):
        if model.config.input_dim != inputs.shape[1]:
            raise ValueError(f"{name} model expects input width {model.config.input_dim}, "
                             f"batch has {inputs.shape[1]}")
    attr_a = input_x_gradient(model_a, inputs, labels_a)
    attr_b = input_x_gradient(model_b, inputs, labels_b)
    norm_a = np.linalg.norm(attr_a, axis=1)
    norm_b = np.linalg.norm(attr_b, axis=1)
    usable = (norm_a > 0.0) & (norm_b > 0.0)
    skipped = int(np.sum(~usable))
    if not np.any(usable):
        raise DegenerateInputError(
            f"all {inputs.shape[0]} examples had a zero-norm attribution map")
    cosines = (np.sum(attr_a[usable] * attr_b[usable], axis=1)
               / (norm_a[usable] * norm_b[usable]))
    value = float(np.clip(np.mean(np.clip(cosines, -1.0, 1.0)), -1.0, 1.0))
    return ScoreValue(value, skipped=skipped, used=int(np.sum(usable)))


def representation_dissimilarity(latents: np.ndarray) -> np.ndarray:
    """RDM of a latent batch: entry (i, j) is 1 - Pearson(z_i, z_j).

    Raises:
        DegenerateInputError: some example's latent vector is constant, so
            its correlations are undefined; the message names the example.
    """
    z = np.asarray(latents, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] < 2:
        raise ValueError(f"need (m, latent_dim >= 2) latents, got shape {z.shape}")
    centered = z - z.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    flat = np.flatnonzero(norms == 0.0)
    if flat.size:
        raise DegenerateInputError(
            f"latent vector of example {int(flat[0])} is constant; "
            f"its correlation distance is undefined")
    corr = (centered @ centered.T) / np.outer(norms, norms)
    return 1.0 - np.clip(corr, -1.0, 1.0)


def rsa(model_a: Model, model_b: Model, inputs: np.ndarray) -> float:
    """Spearman correlation of the two backbones' RDM upper triangles.

    Symmetric, in [-1, 1]. Needs at least 3 examples so the triangles have
    3 or more entries.

    Raises:
        DegenerateInputError: a latent vector, or either RDM triangle, is constant.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] < 3:
        raise ValueError(f"rsa needs a batch of at least 3 examples, got shape {inputs.shape}")
    rdm_a = representation_dissimilarity(model_a.latent(inputs))
    rdm_b = representation_dissimilarity(model_b.latent(inputs))
    iu = np.triu_indices(inputs.shape[0], k=1)
    return spearman(rdm_a[iu], rdm_b[iu])


def label_injection(loss_stl: float, loss_injected: float) -> float:
    """Relative loss improvement from injecting the partner's label.

    (loss_stl - loss_injected) / loss_injected for one (target, partner)
    direction. Positive means the injected label helped.

    Raises:
        DegenerateInputError: either loss is <= 0; losses here are
            non-negative by construction and a zero denominator marks a
            degenerate task.
    """
    if loss_stl <= 0.0 or loss_injected <= 0.0:
        raise DegenerateInputError(f"label injection needs positive losses, got "
                                   f"stl={loss_stl}, injected={loss_injected}")
    return (loss_stl - loss_injected) / loss_injected


def gradient_similarity(trace: TrainTrace) -> float:
    """Mean of the per-epoch backbone-gradient cosines over all epochs."""
    if trace.gs_cosine is None or not trace.gs_cosine:
        raise ValueError("trace has no recorded gradient cosines; was this an MTL run?")
    return float(np.mean(trace.gs_cosine))


def gradient_transference(trace: TrainTrace, target: str) -> ScoreValue:
    """Mean over epochs of 1 - (target loss after partner step) / (before).

    Positive means the partner's backbone updates helped the target.
    Epochs with a zero pre-update loss are skipped and counted.

    Raises:
        DegenerateInputError: every epoch was skipped.
    """
    if trace.lookahead is None or target not in trace.lookahead:
        have = sorted(trace.lookahead) if trace.lookahead else []
        raise ValueError(f"trace has no look-ahead record for {target!r}; has {have}")
    pairs = trace.lookahead[target]
    if not pairs:
        raise ValueError(f"look-ahead record for {target!r} is empty")
    values = [1.0 - post / pre for pre, post in pairs if pre != 0.0]
    skipped = len(pairs) - len(values)
    if not values:
        raise DegenerateInputError(
            f"all {len(pairs)} epochs had zero pre-update loss for {target!r}")
    return ScoreValue(float(np.mean(values)), skipped=skipped, used=len(values))


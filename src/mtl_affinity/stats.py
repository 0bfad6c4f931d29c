"""Correlation statistics: Pearson, Spearman, and Kendall's tau.

Self-contained implementations (no scipy at runtime) so the evaluation
pipeline has a single, fixed definition of each statistic. Inputs are
1-D sequences of finite numbers; every function validates before
computing. numpy is imported in the functions that build arrays, so
importing this module does not load it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = ["DegenerateInputError", "pearson", "spearman", "kendall_tau", "rankdata"]


class DegenerateInputError(ValueError):
    """An input admits no well-defined correlation (constant, too short, ...)."""


def _as_clean_pair(x: Sequence[float], y: Sequence[float], min_len: int) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1:
        raise ValueError(f"inputs must be 1-D, got shapes {xa.shape} and {ya.shape}")
    if xa.shape[0] != ya.shape[0]:
        raise ValueError(f"length mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    if xa.shape[0] < min_len:
        raise DegenerateInputError(f"need at least {min_len} observations, got {xa.shape[0]}")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise ValueError("inputs must be finite")
    return xa, ya


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient.

    Raises:
        DegenerateInputError: if either input is constant or shorter than 2.
    """
    xa, ya = _as_clean_pair(x, y, min_len=2)
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    nx = math.sqrt(float(xc @ xc))
    ny = math.sqrt(float(yc @ yc))
    if nx == 0.0 or ny == 0.0:
        raise DegenerateInputError("correlation undefined for a constant input")
    r = float(xc @ yc) / (nx * ny)
    return min(1.0, max(-1.0, r))


def rankdata(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    import numpy as np
    va = np.asarray(values, dtype=np.float64)
    if va.ndim != 1:
        raise ValueError(f"values must be 1-D, got shape {va.shape}")
    if not np.all(np.isfinite(va)):
        raise ValueError("values must be finite")
    n = va.shape[0]
    order = np.argsort(va, kind="stable")
    ranked = va[order]
    # Tie groups are the runs of equal values in sorted order; positions
    # start..end of a group all get the rank (start + end) / 2 + 1.
    first = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    last = np.append(first[1:], n) - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson applied to average ranks."""
    xa, ya = _as_clean_pair(x, y, min_len=2)
    return pearson(rankdata(xa), rankdata(ya))


def kendall_tau(x: Sequence[float], y: Sequence[float], variant: str = "b") -> float:
    """Kendall rank correlation over all observation pairs.

    Args:
        variant: "b" (the default) corrects both denominators for ties;
            "a" divides the concordant/discordant difference by the raw
            pair count n(n-1)/2.

    Raises:
        DegenerateInputError: fewer than 2 observations, or (tau-b) an
            input whose pairs are all tied.
    """
    import numpy as np
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    xa, ya = _as_clean_pair(x, y, min_len=2)
    n = xa.shape[0]
    dx = np.sign(xa[:, None] - xa[None, :])
    dy = np.sign(ya[:, None] - ya[None, :])
    iu = np.triu_indices(n, k=1)
    sx, sy = dx[iu], dy[iu]
    concordant = int(np.sum((sx * sy) > 0))
    discordant = int(np.sum((sx * sy) < 0))
    total = n * (n - 1) // 2
    if variant == "a":
        return (concordant - discordant) / total
    ties_x = int(np.sum(sx == 0))
    ties_y = int(np.sum(sy == 0))
    denom = math.sqrt(float(total - ties_x) * float(total - ties_y))
    if denom == 0.0:
        raise DegenerateInputError("tau-b undefined: an input has all pairs tied")
    t = (concordant - discordant) / denom
    return min(1.0, max(-1.0, t))

"""Exact reference computations that the tests compare the fused kernels against.

`per_example_gradients` materialises one flattened gradient row per example,
and `score_batch` scores candidates from such rows. The package never builds
these rows: it works from `model.Backprop.gram` and `selection.score_gram`.
"""

from __future__ import annotations

import numpy as np

from coresel.errors import DimensionError
from coresel.model import GradSelector, ParamSet, backprop
from coresel.selection import ScoreBreakdown, score_gram


def per_example_gradients(params: ParamSet, x, y, selector: GradSelector | None = None) -> np.ndarray:
    """(B, P) rows: the exact gradient of each example's own loss, flattened per `selector`."""
    bp = backprop(params, x, y)
    b = bp.deltas[0].shape[0]
    layers = range(params.n_layers) if selector is None else selector.resolve(params.n_layers)
    blocks = []
    for l in layers:
        blocks += [np.einsum("bo,bi->boi", bp.deltas[l], bp.acts[l]).reshape(b, -1), bp.deltas[l]]
    return np.concatenate(blocks, axis=1)


def score_batch(grads, ref_mean_grad, tau: float) -> ScoreBreakdown:
    """`score_gram` over materialised gradient rows M, with the reference r stacked as one more row.

    The Gram matrix of [M; r] holds M M^T, the dots M r and |r|^2; `score_gram` reads r as a one-row replay batch.
    """
    rows = np.asarray(grads, dtype=np.float64)
    b = rows.shape[0]
    if ref_mean_grad is not None:
        ref = np.asarray(ref_mean_grad, dtype=np.float64)
        if rows.ndim != 2 or ref.shape != (rows.shape[1],):
            raise DimensionError(f"reference shape {ref.shape} does not match gradient rows {rows.shape}")
        rows = np.vstack([rows, ref])
    return score_gram(rows @ rows.T, b, tau)

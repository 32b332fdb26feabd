"""Evaluation metrics over the task-accuracy matrix, plus a gradient diagnostic.

The accuracy matrix is lower-triangular: entry (t, i) is the test accuracy on
task i measured after finishing task t, so row t exists only for i <= t.
Average accuracy is a row mean; average forgetting compares each task's peak
accuracy before the final row against its final-row accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, IncompleteMatrixError
from .model import ParamSet, mean_gradient
from .seeds import derive
from .selection import cosines_to_vector

_CHUNK_ROWS = 2048  # rows per mean_gradient call of a whole-dataset gradient


class AccuracyMatrix:
    """T x T grid holding a_{t,i} for i <= t; unset entries are NaN."""

    def __init__(self, num_tasks: int):
        self.num_tasks = int(num_tasks)
        self.values = np.full((num_tasks, num_tasks), np.nan)

    def set(self, t: int, i: int, value: float) -> None:
        if not (0 <= i <= t < self.num_tasks):
            raise DimensionError(f"entry ({t}, {i}) outside the lower triangle of T={self.num_tasks}")
        if not (0.0 <= value <= 1.0):
            raise DimensionError(f"accuracy {value} outside [0, 1]")
        self.values[t, i] = float(value)

    def get(self, t: int, i: int) -> float:
        if not (0 <= i <= t < self.num_tasks):
            raise DimensionError(f"entry ({t}, {i}) outside the lower triangle of T={self.num_tasks}")
        v = self.values[t, i]
        if np.isnan(v):
            raise IncompleteMatrixError(f"entry ({t}, {i}) was never filled")
        return float(v)

    def row(self, t: int) -> np.ndarray:
        """Entries a_{t,0..t}; raises if any is missing."""
        if not 0 <= t < self.num_tasks:
            raise DimensionError(f"row {t} outside 0..{self.num_tasks - 1}")
        values = self.values[t, : t + 1]
        if np.isnan(values).any():
            missing = int(np.flatnonzero(np.isnan(values))[0])
            raise IncompleteMatrixError(f"row {t} is missing entry for task {missing}")
        return values.copy()


def average_accuracy(matrix: AccuracyMatrix, t: int) -> float:
    """A_t: mean accuracy over tasks 0..t after finishing task t."""
    return float(matrix.row(t).mean())


def average_forgetting(matrix: AccuracyMatrix) -> float:
    """F: mean over earlier tasks of (peak accuracy before the final row) - (final accuracy).

    A single-task matrix has nothing to forget; 0 by convention.
    """
    T = matrix.num_tasks
    if T == 1:
        matrix.row(0)  # still insist the run produced its one entry
        return 0.0
    final = matrix.row(T - 1)
    total = 0.0
    for i in range(T - 1):
        peak = max(matrix.get(t, i) for t in range(i, T - 1))
        total += peak - final[i]
    return total / (T - 1)


@dataclass(frozen=True)
class DiagnosticRow:
    batch_size: int
    mean_l2: float
    mean_cosine: float
    cross_l2: float | None
    cross_cosine: float | None


def _full_mean_gradient(params: ParamSet, x, y) -> np.ndarray:
    """Whole-dataset mean loss gradient, accumulated in chunks of _CHUNK_ROWS rows."""
    n = x.shape[0]
    total = None
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        g = mean_gradient(params, x[start:stop], y[start:stop]) * (stop - start)
        total = g if total is None else total + g
    return total / n


def grad_approx_diagnostic(
    params: ParamSet,
    dataset,
    batch_sizes,
    *,
    n_batches: int = 20,
    seed: int = 0,
    other_dataset=None,
) -> list[DiagnosticRow]:
    """How well random-batch mean gradients approximate the full-dataset one.

    For each batch size, over `n_batches` seeded uniform batches: the mean l2
    distance and cosine similarity between the batch gradient and the
    full-dataset gradient; when `other_dataset` is given, the same figures
    against that dataset's full gradient for contrast. A batch size >= the
    dataset uses the whole dataset once.
    """
    x, y = dataset.x, dataset.y
    n = x.shape[0]
    # Row 0: this dataset's full gradient; row 1 (optional): the other dataset's.
    targets = [_full_mean_gradient(params, x, y)]
    if other_dataset is not None:
        targets.append(_full_mean_gradient(params, other_dataset.x, other_dataset.y))
    targets = np.stack(targets)
    cross = other_dataset is not None

    rows = []
    for b_idx, batch_size in enumerate(batch_sizes):
        batch_size = int(batch_size)
        l2s, cosines = [], []
        for k in range(1 if batch_size >= n else n_batches):
            if batch_size >= n:
                idx = np.arange(n)
            else:
                rng = np.random.default_rng(derive(seed, "diagnose_batch", b_idx, k))
                idx = rng.choice(n, size=batch_size, replace=False)
            g = mean_gradient(params, x[idx], y[idx])
            l2s.append(np.linalg.norm(targets - g, axis=1))
            cosines.append(cosines_to_vector(targets, g))
        l2 = np.mean(l2s, axis=0)
        cos = np.mean(cosines, axis=0)
        rows.append(
            DiagnosticRow(
                batch_size=batch_size,
                mean_l2=float(l2[0]),
                mean_cosine=float(cos[0]),
                cross_l2=float(l2[1]) if cross else None,
                cross_cosine=float(cos[1]) if cross else None,
            )
        )
    return rows

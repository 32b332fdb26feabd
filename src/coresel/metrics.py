"""Evaluation metrics over the task-accuracy matrix, plus a gradient diagnostic.

The accuracy matrix is lower-triangular: entry (t, i) is the test accuracy on
task i measured after finishing task t, so row t exists only for i <= t.
Average accuracy is a row mean; average forgetting compares each task's peak
accuracy before the final row against its final-row accuracy.

The diagnostic reads every gradient, full-dataset or batch, in chunks of at
most 2,048 rows, so over a view it builds one chunk's float64 pixels at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyInputError, IncompleteMatrixError
from .model import ParamSet, mean_gradient
from .seeds import derive
from .selection import cosines_to_vector

_CHUNK_ROWS = 2048  # the most rows one mean_gradient call of the diagnostic reads


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


def _mean_gradient(params: ParamSet, rows) -> np.ndarray:
    """Mean loss gradient over a Dataset or view, read in chunks of at most _CHUNK_ROWS rows.

    Each chunk's mean is weighted by its share of the rows, so a one-chunk read is mean_gradient's own value.
    """
    n = len(rows)
    if n == 0:
        raise EmptyInputError("no rows to take a mean gradient over")
    total = 0.0
    for start in range(0, n, _CHUNK_ROWS):
        chunk = rows.subset(np.arange(start, min(start + _CHUNK_ROWS, n)))
        total = total + mean_gradient(params, chunk.x, chunk.y) * (len(chunk) / n)
    return total


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
    against that dataset's full gradient for contrast. A batch size of n or
    more is the full-dataset row: it is labelled n and its gradient is the
    full gradient itself, so its l2 is 0 and its cosine 1. Each dataset is a
    Dataset or a TaskView, and every gradient is read in chunks of at most
    _CHUNK_ROWS rows.
    """
    n = len(dataset)
    # Row 0: this dataset's full gradient; row 1 (optional): the other dataset's.
    targets = np.stack([_mean_gradient(params, d) for d in (dataset, other_dataset) if d is not None])
    cross = other_dataset is not None

    rows = []
    for b_idx, batch_size in enumerate(batch_sizes):
        batch_size = min(int(batch_size), n)
        l2s, cosines = [], []
        for k in range(1 if batch_size == n else n_batches):
            if batch_size == n:
                g = targets[0]
            else:
                rng = np.random.default_rng(derive(seed, "diagnose_batch", b_idx, k))
                g = _mean_gradient(params, dataset.subset(rng.choice(n, size=batch_size, replace=False)))
            l2s.append(np.linalg.norm(targets - g, axis=1))
            cosines.append(cosines_to_vector(targets, g))
        l2, cos = np.mean(l2s, axis=0), np.mean(cosines, axis=0)
        cross_l2, cross_cosine = (float(l2[1]), float(cos[1])) if cross else (None, None)
        rows.append(DiagnosticRow(batch_size=batch_size, mean_l2=float(l2[0]), mean_cosine=float(cos[0]),
                                  cross_l2=cross_l2, cross_cosine=cross_cosine))
    return rows

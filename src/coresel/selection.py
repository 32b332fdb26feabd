"""Candidate scoring and top-k selection over per-example gradients.

Three per-candidate criteria, each a cosine against the candidate's gradient
row: similarity to the minibatch mean gradient, (negative) average similarity
to every other row, and similarity to a replay-buffer reference gradient. The
selection rule ranks rows by their sum — similarity + diversity when no
buffer exists yet, plus tau * affinity once it does — and keeps the top
kappa. Baseline selectors (uniform, reservoir, k-means on embeddings) live
here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, EmptyInputError
from .model import PerExampleGrads

STRATEGIES = ("ocs", "uniform", "reservoir", "kmeans_embedding")


@dataclass(frozen=True)
class SelectionConfig:
    kappa: int = 10
    tau: float = 1000.0
    strategy: str = "ocs"

    def __post_init__(self):
        if self.kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        if self.tau < 0:
            raise ValueError(f"tau must be nonnegative, got {self.tau}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")


def _grad_matrix(grads) -> np.ndarray:
    m = grads.matrix if isinstance(grads, PerExampleGrads) else np.asarray(grads, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"expected a (batch, params) gradient matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise EmptyInputError("empty gradient batch")
    return m


def cosines_to_vector(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise cosine against one vector: 0 for a zero-norm operand, else clamped into [-1, 1].

    The package's one cosine: scores, commit ranking and the gradient diagnostic all use it.
    """
    if v.shape != (rows.shape[1],):
        raise DimensionError(f"reference length {v.shape} does not match gradient width {rows.shape[1]}")
    row_norms = np.linalg.norm(rows, axis=1)
    v_norm = float(np.linalg.norm(v))
    denom = row_norms * v_norm
    safe = denom > 0.0
    out = np.zeros(rows.shape[0])
    np.divide(rows @ v, denom, out=out, where=safe)
    return np.clip(out, -1.0, 1.0)


def _in_range(name: str, values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """`values` unchanged, or ContractError naming the first entry outside [lo, hi] (NaN included)."""
    bad = np.flatnonzero(~((values >= lo) & (values <= hi)))
    if bad.size:
        n = int(bad[0])
        raise ContractError(
            f"{name} of row {n} is {values[n]}, outside [{lo:g}, {hi:g}]; is that gradient row non-finite?"
        )
    return values


def minibatch_similarity(grads) -> np.ndarray:
    """S_n: cosine between row n and the mean gradient of its batch."""
    rows = _grad_matrix(grads)
    return _in_range("similarity", cosines_to_vector(rows, rows.mean(axis=0)), -1.0, 1.0)


def sample_diversity(grads) -> np.ndarray:
    """V_n: negative mean cosine between row n and every other row, in [-1, 0].

    Computed in O(B*P) without the BxB gram: with unit rows g, the cosine sum
    for n is g_n . sum(g) minus the self term. The raw average lands in
    [-1, 1]; values above 0 (a row anti-aligned with all peers) are clamped to
    the documented [-1, 0] range.
    """
    rows = _grad_matrix(grads)
    b = rows.shape[0]
    if b == 1:
        return np.zeros(1)  # no peers to differ from
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    unit = np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 0.0)
    total = unit.sum(axis=0)
    self_sim = np.einsum("ij,ij->i", unit, unit)
    v = -(unit @ total - self_sim) / (b - 1)
    return _in_range("diversity", np.clip(v, -1.0, 0.0), -1.0, 0.0)


def coreset_affinity(grads, ref_mean_grad) -> np.ndarray:
    """A_n: cosine between row n and the buffer-batch mean gradient."""
    rows = _grad_matrix(grads)
    ref = np.asarray(ref_mean_grad, dtype=np.float64)
    if ref.ndim != 1:
        raise DimensionError(f"reference gradient must be a vector, got shape {ref.shape}")
    return _in_range("affinity", cosines_to_vector(rows, ref), -1.0, 1.0)


@dataclass(frozen=True)
class ScoreBreakdown:
    similarity: np.ndarray
    diversity: np.ndarray
    affinity: np.ndarray | None
    combined: np.ndarray = field(compare=False)


def score_batch(grads, ref_mean_grad, tau: float) -> ScoreBreakdown:
    """All criteria plus their weighted sum; affinity only when a reference exists."""
    s = minibatch_similarity(grads)
    v = sample_diversity(grads)
    if ref_mean_grad is None:
        return ScoreBreakdown(s, v, None, s + v)
    a = coreset_affinity(grads, ref_mean_grad)
    return ScoreBreakdown(s, v, a, s + v + tau * a)


def select_topk(scores, kappa: int) -> np.ndarray:
    """Indices of the kappa largest scores, ties to the lower index, ascending."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise DimensionError(f"scores must be a vector, got shape {scores.shape}")
    if scores.shape[0] == 0:
        raise EmptyInputError("empty score vector")
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    if kappa >= scores.shape[0]:
        return np.arange(scores.shape[0], dtype=np.int64)
    order = np.argsort(-scores, kind="stable")  # stable: equal scores keep index order
    return np.sort(order[:kappa]).astype(np.int64)


# ---------------------------------------------------------------------------
# Baselines


def uniform_select(batch_size: int, kappa: int, seed) -> np.ndarray:
    """kappa distinct uniform indices (all of them when kappa saturates)."""
    if batch_size < 1:
        raise EmptyInputError("empty candidate batch")
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    if kappa >= batch_size:
        return np.arange(batch_size, dtype=np.int64)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(batch_size, size=kappa, replace=False)).astype(np.int64)


@dataclass
class ReservoirState:
    """Classical bounded reservoir; `seen` counts stream items offered so far."""

    capacity: int
    items: list = field(default_factory=list)
    seen: int = 0

    def all_examples(self) -> list:
        return list(self.items)


def reservoir_update(state: ReservoirState, item, seed) -> ReservoirState:
    """Offer the next stream item: item i enters a full reservoir with probability J/i."""
    state.seen += 1
    i = state.seen
    if state.capacity == 0:
        return state
    if len(state.items) < state.capacity:
        state.items.append(item)
        return state
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
    j = int(rng.integers(0, i))
    if j < state.capacity:
        state.items[j] = item
    return state


def kmeans_embedding_select(embeddings, kappa: int, seed) -> np.ndarray:
    """One representative per k-means cluster of the embedding rows.

    k-means++ seeding, Lloyd iterations capped at 100 with tolerance 1e-6 on
    center movement; each final center maps to its nearest row (ties to the
    lower index, duplicates to the next-nearest row).
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"embeddings must be a matrix, got shape {x.shape}")
    n = x.shape[0]
    if n == 0:
        raise EmptyInputError("empty embedding matrix")
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    if kappa >= n:
        return np.arange(n, dtype=np.int64)

    rng = np.random.default_rng(seed)
    sq = (x * x).sum(axis=1)

    def dist2_to(center):
        return np.maximum(sq - 2.0 * (x @ center) + center @ center, 0.0)

    # k-means++ seeding: next center drawn proportionally to squared distance.
    centers = [x[int(rng.integers(n))]]
    d2 = dist2_to(centers[0])
    for _ in range(kappa - 1):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers.append(x[idx])
        d2 = np.minimum(d2, dist2_to(centers[-1]))
    centers = np.array(centers)

    for _ in range(100):
        d2_all = np.maximum(sq[:, None] - 2.0 * (x @ centers.T) + (centers * centers).sum(axis=1)[None, :], 0.0)
        assign = np.argmin(d2_all, axis=1)
        new_centers = centers.copy()  # empty clusters keep their center
        for k in range(kappa):
            members = assign == k
            if members.any():
                new_centers[k] = x[members].mean(axis=0)
        movement = np.linalg.norm(new_centers - centers, axis=1).max()
        centers = new_centers
        if movement <= 1e-6:
            break

    taken: list[int] = []
    for k in range(kappa):
        order = np.argsort(dist2_to(centers[k]), kind="stable")
        for idx in order:
            if int(idx) not in taken:
                taken.append(int(idx))
                break
    return np.sort(np.array(taken, dtype=np.int64))

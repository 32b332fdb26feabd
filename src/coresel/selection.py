"""Candidate scoring and top-k selection over per-example gradients, and the per-step baselines.

Three per-candidate criteria, each a cosine against the candidate's gradient:
similarity to the minibatch mean gradient, (negative) average similarity to
every other candidate, and similarity to a replay batch's mean gradient.
`score_gram` computes all three from one Gram matrix over the candidates'
and the replay rows' gradients. The selection rule ranks rows by S + V, plus
tau * A once a buffer exists (`rank`), and keeps the top kappa. `take_ranked`
is the one top-k cut of a ranking: the OCS pick calls it, and so does every
coreset commit (`replay.Coreset.commit_task`), with labels for its per-class
tiers. The baseline per-step picks, uniform and k-means on embeddings, live
here too; the reservoir is replay storage (`replay.ReservoirState`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datastream import NUM_CLASSES
from .errors import ContractError, DimensionError, DivergenceError, EmptyInputError


@dataclass(frozen=True)
class SelectionConfig:
    """The per-step selection settings, a plain record: `trainer.TrainConfig`, which holds it, checks them."""

    kappa: int = 10
    tau: float = 1000.0
    strategy: str = "ocs"  # a name in trainer.REGISTRY


def _cosine(dots, norms, other_norms) -> np.ndarray:
    """dots / (norms * other_norms): 0 where either norm is 0, else clamped into [-1, 1]."""
    denom = norms * other_norms
    out = np.zeros(np.broadcast(dots, denom).shape)
    np.divide(dots, denom, out=out, where=denom > 0.0)
    return np.clip(out, -1.0, 1.0)


def cosines_to_vector(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise cosine against one vector: 0 for a zero-norm operand, else clamped into [-1, 1].

    Shares its zero-norm and clamping convention with every score in `score_gram`.
    """
    if v.shape != (rows.shape[1],):
        raise DimensionError(f"reference length {v.shape} does not match gradient width {rows.shape[1]}")
    return _cosine(rows @ v, np.linalg.norm(rows, axis=1), float(np.linalg.norm(v)))


def _in_range(name: str, values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """`values` unchanged, or ContractError naming the first entry outside [lo, hi] (NaN included)."""
    bad = np.flatnonzero(~((values >= lo) & (values <= hi)))
    if bad.size:
        n = int(bad[0])
        raise ContractError(f"{name} of row {n} is {values[n]}, outside [{lo:g}, {hi:g}]")
    return values


@dataclass(frozen=True)
class ScoreBreakdown:
    similarity: np.ndarray
    diversity: np.ndarray
    affinity: np.ndarray | None
    combined: np.ndarray = field(compare=False)


def score_gram(gram, b: int, tau: float) -> ScoreBreakdown:
    """Similarity, diversity, affinity and S + V (+ tau * A) from gradient inner products alone.

    gram[n, k] = g_n . g_k over b candidates, then m >= 0 replay rows with mean gradient r
    (no reference when m = 0). With K = gram[:b, :b], g_n . mean = (K 1)_n / b and
    |mean| = sqrt(1^T K 1) / b; g_n . r = (gram[:b, b:] 1)_n / m and |r| = sqrt(1^T gram[b:, b:] 1) / m.
    S_n = cos(g_n, mean); V_n = -mean over k != n of cos(g_n, g_k), clamped
    into [-1, 0] (0 when b = 1); A_n = cos(g_n, r).
    """
    gram = np.asarray(gram, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise DimensionError(f"expected a square Gram matrix, got shape {gram.shape}")
    if b < 1:
        raise EmptyInputError("empty gradient batch")
    m = gram.shape[0] - b
    if m < 0:
        raise DimensionError(f"{b} candidates in a Gram matrix of {gram.shape[0]} rows")
    cand = gram[:b, :b]
    sq_norms = np.diag(cand)
    bad = np.flatnonzero(~np.isfinite(sq_norms))
    if bad.size:
        raise DivergenceError(f"gradient row {bad[0]} is non-finite: its squared norm is {sq_norms[bad[0]]}")
    norms = np.sqrt(np.maximum(sq_norms, 0.0))
    row_sums = cand.sum(axis=1)
    mean_norm = np.sqrt(max(float(row_sums.sum()), 0.0)) / b
    s = _in_range("similarity", _cosine(row_sums / b, norms, mean_norm), -1.0, 1.0)
    if b == 1:
        v = np.zeros(1)  # no peers to differ from
    else:
        pair = _cosine(cand, norms[:, None], norms[None, :])
        v = np.clip(-(pair.sum(axis=1) - np.diag(pair)) / (b - 1), -1.0, 0.0)
    v = _in_range("diversity", v, -1.0, 0.0)
    if m == 0:
        return ScoreBreakdown(s, v, None, s + v)
    ref_dots = gram[:b, b:].sum(axis=1) / m
    ref_norm = float(np.sqrt(max(float(gram[b:, b:].sum()), 0.0)) / m)
    if not (np.isfinite(ref_dots).all() and np.isfinite(ref_norm)):
        raise DivergenceError(f"the replay reference is non-finite: norm {ref_norm}")
    a = _in_range("affinity", _cosine(ref_dots, norms, ref_norm), -1.0, 1.0)
    return ScoreBreakdown(s, v, a, s + v + tau * a)


def rank(scores) -> np.ndarray:
    """Indices best score first; tied scores keep index order.

    A score within 1e-12 * max|score| of the one ranked above it counts as
    tied with it: rows whose scores are equal in exact arithmetic but differ
    in their last bits keep index order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    drops = np.diff(ranked, prepend=ranked[:1])  # each score minus the one ranked above it
    tie_group = np.cumsum(drops < -1e-12 * np.abs(scores).max(initial=0.0))
    return order[np.lexsort((order, tie_group))].astype(np.int64)


def take_ranked(ranking, k: int, labels=None) -> np.ndarray:
    """The first k positions of `ranking` (best first), ascending.

    With `labels`, positions are taken tier by tier, each tier in ranking order. With r
    better-ranked positions of its class and base = k // NUM_CLASSES, a position's tier is
    0 when r < base, 1 when r == base, else 2: each class gets its base share, the
    remainder goes at most one per class, and a class-poor ranking still fills k.
    """
    ranking = np.asarray(ranking, dtype=np.int64)
    if labels is not None:
        base = k // NUM_CLASSES
        seen: dict[int, int] = {}
        tiers = []
        for label in np.asarray(labels)[ranking].tolist():
            r = seen.get(label, 0)
            seen[label] = r + 1
            tiers.append(min(max(r - base + 1, 0), 2))
        ranking = ranking[np.argsort(tiers, kind="stable")]
    return np.sort(ranking[:k])


# ---------------------------------------------------------------------------
# Baselines


def uniform_select(batch_size: int, kappa: int, seed) -> np.ndarray:
    """kappa distinct uniform indices (all of them when kappa saturates)."""
    if kappa >= batch_size:
        return np.arange(batch_size, dtype=np.int64)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(batch_size, size=kappa, replace=False)).astype(np.int64)


def kmeans_embedding_select(embeddings, kappa: int, seed) -> np.ndarray:
    """One representative per k-means cluster of the embedding rows.

    k-means++ seeding, Lloyd iterations capped at 100 with tolerance 1e-6 on
    center movement; each final center maps to its nearest row not yet taken
    (distances within 1e-9 of the squared-norm scale tie, ties to the lower index).
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"embeddings must be a matrix, got shape {x.shape}")
    n = x.shape[0]
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
        d2 = dist2_to(centers[k])
        d2[taken] = np.inf
        # Distances within rounding of the nearest count as tied: a two-member cluster's mean is
        # equidistant from both rows, and summation order alone must not pick one.
        taken.append(int(np.flatnonzero(d2 <= d2.min() + 1e-9 * (sq.max() + centers[k] @ centers[k]))[0]))
    return np.sort(np.array(taken, dtype=np.int64))

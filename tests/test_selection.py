import itertools
import math

import numpy as np
import pytest

from coresel.errors import ContractError, DimensionError, EmptyInputError
from coresel.selection import (
    SelectionConfig,
    kmeans_embedding_select,
    rank,
    score_gram,
    take_ranked,
    uniform_select,
)
from oracles import score_batch

# ---------------------------------------------------------------------------
# Independent oracles built from pairwise cosine loops.


def oracle_cosine(u, v):
    # Scalar-loop reference, no numpy vector ops: 0 for a zero-norm operand,
    # otherwise u.v / (|u| |v|) clamped into [-1, 1].
    dot = sum(float(a) * float(b) for a, b in zip(u, v))
    nu = math.sqrt(sum(float(a) ** 2 for a in u))
    nv = math.sqrt(sum(float(b) ** 2 for b in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return max(-1.0, min(1.0, dot / (nu * nv)))


def oracle_similarity(rows):
    mean = rows.mean(axis=0)
    return np.array([oracle_cosine(rows[n], mean) for n in range(rows.shape[0])])


def oracle_diversity(rows):
    b = rows.shape[0]
    if b == 1:
        return np.zeros(1)
    out = []
    for n in range(b):
        total = sum(oracle_cosine(rows[n], rows[p]) for p in range(b) if p != n)
        out.append(min(0.0, max(-1.0, -total / (b - 1))))
    return np.array(out)


def oracle_affinity(rows, ref):
    return np.array([oracle_cosine(rows[n], ref) for n in range(rows.shape[0])])


def oracle_topk(scores, kappa):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(order[: min(kappa, len(scores))])


def random_grad_batch(rng, max_rows=10, max_cols=6, zero_row_prob=0.15):
    b = int(rng.integers(1, max_rows + 1))
    d = int(rng.integers(1, max_cols + 1))
    rows = rng.normal(size=(b, d)) * 10.0 ** rng.integers(-2, 3)
    for n in range(b):
        if rng.uniform() < zero_row_prob:
            rows[n] = 0.0
    return rows


# ---------------------------------------------------------------------------
# scoring criteria


def similarity(rows):
    return score_batch(rows, None, 0.0).similarity


def diversity(rows):
    return score_batch(rows, None, 0.0).diversity


def affinity(rows, ref):
    return score_batch(rows, ref, 0.0).affinity


def test_similarity_worked_examples():
    assert similarity(np.array([[3.0, 4.0]])) == pytest.approx([1.0])
    assert np.array_equal(similarity(np.array([[1.0, 0.0], [-1.0, 0.0]])), [0.0, 0.0])
    # Oracle: mean of (1,0),(0,1) is (0.5,0.5); both cosines are 1/sqrt(2).
    got = similarity(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert got == pytest.approx([0.70710678, 0.70710678], abs=1e-8)


def test_diversity_worked_examples():
    row = np.array([2.0, 1.0])
    assert diversity(np.stack([row, row])) == pytest.approx([-1.0, -1.0], abs=1e-12)
    assert diversity(np.array([[1.0, 0.0], [0.0, 1.0]])) == pytest.approx([0.0, 0.0], abs=1e-12)
    # Oracle: peers of (1,0) are (0,1) and (1,1)/sqrt(2); cosines 0 and
    # 0.70710678, so V_0 = -(0 + 0.70710678)/2 = -0.35355339.
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0 / np.sqrt(2), 1.0 / np.sqrt(2)]])
    assert diversity(rows)[0] == pytest.approx(-0.35355339, abs=1e-8)
    assert np.array_equal(diversity(np.array([[5.0, 5.0]])), [0.0])


def test_affinity_worked_examples():
    rows = np.array([[1.0, 0.0]])
    assert affinity(rows, np.array([2.0, 0.0])) == pytest.approx([1.0])
    assert affinity(rows, np.array([-3.0, 0.0])) == pytest.approx([-1.0])
    assert affinity(rows, np.array([1.0, 1.0])) == pytest.approx([0.70710678], abs=1e-8)
    with pytest.raises(DimensionError):
        affinity(rows, np.array([1.0, 1.0, 1.0]))


def test_scores_match_pairwise_oracles():
    rng = np.random.default_rng(20240813)
    for _ in range(300):
        rows = random_grad_batch(rng)
        ref = rng.normal(size=rows.shape[1])
        assert similarity(rows) == pytest.approx(oracle_similarity(rows), abs=1e-10)
        assert diversity(rows) == pytest.approx(oracle_diversity(rows), abs=1e-10)
        assert affinity(rows, ref) == pytest.approx(oracle_affinity(rows, ref), abs=1e-10)


def test_score_ranges_over_random_batches():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        rows = random_grad_batch(rng)
        ref = rng.normal(size=rows.shape[1])
        breakdown = score_batch(rows, ref, tau=1000.0)
        assert np.all(breakdown.similarity >= -1.0) and np.all(breakdown.similarity <= 1.0)
        assert np.all(breakdown.diversity >= -1.0) and np.all(breakdown.diversity <= 0.0)
        assert np.all(breakdown.affinity >= -1.0) and np.all(breakdown.affinity <= 1.0)


def test_non_finite_gradient_row_raises():
    rows = np.random.default_rng(3).normal(size=(4, 3))
    rows[1, 0] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(ContractError, match="gradient row 1 is non-finite"):
            score_batch(rows, None, tau=1.0)
        with pytest.raises(ContractError, match="gradient row 1 is non-finite"):
            score_batch(rows, np.ones(3), tau=1.0)
    finite = np.random.default_rng(4).normal(size=(4, 3))
    with pytest.raises(ContractError, match="reference is non-finite"):
        score_batch(finite, np.array([np.nan, 0.0, 0.0]), tau=1.0)


def test_empty_batch_rejected():
    with pytest.raises(EmptyInputError):
        similarity(np.empty((0, 3)))
    with pytest.raises(EmptyInputError):
        score_gram(np.empty((0, 0)), 0, 1.0)
    with pytest.raises(EmptyInputError):
        score_gram(np.eye(2), 0, 1.0)
    with pytest.raises(DimensionError):
        score_gram(np.ones((2, 3)), 2, 1.0)
    with pytest.raises(DimensionError):
        score_gram(np.eye(2), 3, 1.0)


# ---------------------------------------------------------------------------
# take_ranked: the top-k cut of a ranking


def test_topk_worked_examples():
    assert list(take_ranked(rank([3.0, 1.0, 2.0]), 2)) == [0, 2]
    assert list(take_ranked(rank([5.0, 5.0, 5.0]), 2)) == [0, 1]
    assert list(take_ranked(rank([1.0, 2.0, 3.0]), 5)) == [0, 1, 2]


def test_rounding_never_orders_equal_scores():
    # Scores within 1e-12 * max|score| of the one ranked above them are tied: index order decides.
    scores = [0.5, 0.25, np.nextafter(0.5, 1.0)]
    assert list(take_ranked(rank(scores), 1)) == [0]
    assert list(rank(scores)) == [0, 2, 1]
    assert list(rank([np.nextafter(2.0, 0.0), 2.0, 1.0])) == [0, 1, 2]
    assert list(rank([1.0 - 2e-13, 1.0 - 1e-13, 1.0, 0.9])) == [0, 1, 2, 3]  # ties chain down the ranking
    assert list(rank([0.0, 1e-3, 0.0, -1.0])) == [1, 0, 2, 3]


def test_topk_matches_sort_oracle():
    rng = np.random.default_rng(515)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        scores = np.round(rng.normal(size=n), 1)  # coarse values force ties
        kappa = int(rng.integers(1, n + 2))
        got = list(take_ranked(rank(scores), kappa))
        assert got == oracle_topk(list(scores), kappa)
        assert len(set(got)) == len(got) == min(kappa, n)


# ---------------------------------------------------------------------------
# OCS selection: top-kappa of the combined score


def ocs_topk(rows, ref, cfg):
    """Top-kappa of the combined OCS score, as the trainer selects."""
    return take_ranked(rank(score_batch(rows, ref, cfg.tau).combined), cfg.kappa)


def test_ocs_select_no_buffer_is_topk_of_s_plus_v():
    rng = np.random.default_rng(7)
    cfg = SelectionConfig(kappa=3, tau=1000.0)
    for _ in range(50):
        rows = rng.normal(size=(8, 5))
        want = take_ranked(rank(oracle_similarity(rows) + oracle_diversity(rows)), 3)
        assert np.array_equal(ocs_topk(rows, None, cfg), want)


def test_ocs_select_tau_zero_ignores_reference():
    rng = np.random.default_rng(8)
    for _ in range(50):
        rows = rng.normal(size=(9, 4))
        ref = rng.normal(size=4)
        no_ref = ocs_topk(rows, None, SelectionConfig(kappa=4, tau=0.0))
        with_ref = ocs_topk(rows, ref, SelectionConfig(kappa=4, tau=0.0))
        assert np.array_equal(no_ref, with_ref)


def test_ocs_select_matches_exhaustive_subset_oracle():
    rng = np.random.default_rng(20240814)
    for trial in range(60):
        b = int(rng.integers(5, 13))
        rows = rng.normal(size=(b, 6))
        ref = rng.normal(size=6) if trial % 2 else None
        kappa = int(rng.integers(1, 6))
        tau = [0.0, 1.0, 1000.0][trial % 3]
        combined = score_batch(rows, ref, tau).combined
        best = max(itertools.combinations(range(b), kappa), key=lambda s: sum(combined[i] for i in s))
        got = ocs_topk(rows, ref, SelectionConfig(kappa=kappa, tau=tau))
        assert sorted(best) == list(got)


def test_ocs_select_single_candidate():
    cfg = SelectionConfig(kappa=10, tau=1000.0)
    assert list(ocs_topk(np.array([[1.0, 2.0]]), None, cfg)) == [0]


def test_ocs_select_dyadic_scale_invariance():
    # Powers of two rescale every float exactly, so the cosines are
    # bit-identical and the selected set must not move.
    rng = np.random.default_rng(11)
    cfg = SelectionConfig(kappa=3, tau=1000.0)
    for _ in range(200):
        rows = rng.normal(size=(8, 5))
        ref = rng.normal(size=5)
        alpha = 2.0 ** int(rng.integers(-3, 4))
        assert np.array_equal(ocs_topk(rows, ref, cfg), ocs_topk(alpha * rows, ref, cfg))


def test_ocs_select_permutation_equivariance():
    rng = np.random.default_rng(12)
    cfg = SelectionConfig(kappa=3, tau=1.0)
    for _ in range(50):
        rows = rng.normal(size=(7, 4))
        ref = rng.normal(size=4)
        base = set(int(i) for i in ocs_topk(rows, ref, cfg))
        perm = rng.permutation(7)
        permuted = ocs_topk(rows[perm], ref, cfg)
        want = sorted(j for j in range(7) if int(perm[j]) in base)
        assert list(permuted) == want


# ---------------------------------------------------------------------------
# uniform_select


def test_uniform_select_saturation_and_determinism():
    assert list(uniform_select(4, 4, 0)) == [0, 1, 2, 3]
    assert list(uniform_select(3, 9, 0)) == [0, 1, 2]
    assert np.array_equal(uniform_select(50, 5, 123), uniform_select(50, 5, 123))
    picked = uniform_select(50, 5, 123)
    assert len(set(int(i) for i in picked)) == 5
    assert np.all(np.diff(picked) > 0)


def test_uniform_select_frequencies():
    counts = np.zeros(10)
    trials = 10_000
    for t in range(trials):
        counts[int(uniform_select(10, 1, t)[0])] += 1
    freq = counts / trials
    sigma = np.sqrt(0.1 * 0.9 / trials)
    assert np.abs(freq - 0.1).max() < 4 * sigma


# ---------------------------------------------------------------------------
# k-means embedding selection


def test_kmeans_saturation_and_determinism():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 3))
    assert list(kmeans_embedding_select(x, 6, 0)) == [0, 1, 2, 3, 4, 5]
    assert list(kmeans_embedding_select(x, 9, 0)) == [0, 1, 2, 3, 4, 5]
    x2 = np.random.default_rng(33).normal(size=(40, 4))
    assert np.array_equal(kmeans_embedding_select(x2, 5, 7), kmeans_embedding_select(x2, 5, 7))


def test_kmeans_separated_clusters():
    rng = np.random.default_rng(6)
    left = rng.normal(size=(10, 2)) * 0.1 - 10.0
    right = rng.normal(size=(10, 2)) * 0.1 + 10.0
    x = np.vstack([left, right])
    picked = kmeans_embedding_select(x, 2, 3)
    assert len(picked) == 2
    sides = {int(i) < 10 for i in picked}
    assert sides == {True, False}


def test_kmeans_single_cluster_picks_nearest_to_centroid():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(30, 3))
    picked = kmeans_embedding_select(x, 1, 4)
    centroid = x.mean(axis=0)
    want = int(np.argmin(((x - centroid) ** 2).sum(axis=1)))
    assert list(picked) == [want]


def test_kmeans_near_tied_rows_go_to_lower_index():
    # Row 2 is nearer the centroid than row 1 by 2e-12 in squared distance, far below the 1e-9 tie
    # tolerance: the rows tie and the lower index wins, as for a two-member cluster's mean, whose
    # members differ only by rounding.
    x = np.array([[2.0, 0.0], [-1.0 - 1e-12, 0.0], [-1.0, 0.0]])
    assert list(kmeans_embedding_select(x, 1, 0)) == [1]
    assert list(kmeans_embedding_select(x + [0.0, 1e-3], 1, 0)) == [1]


def test_kmeans_duplicate_points_yield_distinct_indices():
    x = np.ones((5, 2))
    picked = kmeans_embedding_select(x, 3, 0)
    assert len(set(int(i) for i in picked)) == 3


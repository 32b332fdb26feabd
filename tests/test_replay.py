import numpy as np
import pytest

from coresel.errors import DimensionError, EmptyInputError
from coresel.replay import Coreset, dump_csv, examples_as_arrays, sample_items


def stage_labeled(coreset, task_id, labels, start_src=0):
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    x = np.full((n, 784), 0.5)
    x[:, 0] = np.arange(start_src, start_src + n)  # make rows distinguishable
    coreset.stage_candidates(task_id, x, labels, np.arange(start_src, start_src + n))
    return n


def ranking_by_seed(n, seed):
    return np.random.default_rng(seed).permutation(n)


def class_counts(examples, num_classes=10):
    counts = np.zeros(num_classes, dtype=int)
    for e in examples:
        counts[e.y] += 1
    return counts


# ---------------------------------------------------------------------------
# staging


def test_staging_accumulates_and_allows_duplicates():
    c = Coreset(capacity=50, seed=0)
    for it in range(7):
        stage_labeled(c, 0, np.arange(10) % 10, start_src=0)  # same sources every time
    x, y, src = c.staged_pool(0)
    assert x.shape == (70, 784)
    assert list(src[:10]) == list(src[10:20])


def test_staged_examples_are_copies():
    c = Coreset(capacity=10, seed=0)
    x = np.zeros((1, 784))
    c.stage_candidates(0, x, [3], [0])
    x[0, 0] = 99.0
    pool_x, _, _ = c.staged_pool(0)
    assert pool_x[0, 0] == 0.0


def test_empty_pool_rejected():
    c = Coreset(capacity=10, seed=0)
    with pytest.raises(EmptyInputError):
        c.staged_pool(0)
    with pytest.raises(EmptyInputError):
        c.commit_task(0, [])


# ---------------------------------------------------------------------------
# commit quotas


def test_first_commit_fills_capacity_class_balanced():
    c = Coreset(capacity=200, seed=1)
    n = stage_labeled(c, 0, np.arange(400) % 10)
    record = c.commit_task(0, ranking_by_seed(n, 5))
    assert record.quota == 200 and record.stored_new == 200 and record.total == 200
    assert np.all(class_counts(c.stored(0)) == 20)


def test_second_and_third_commit_rebalance():
    c = Coreset(capacity=200, seed=2)
    for task in range(3):
        n = stage_labeled(c, task, np.arange(300) % 10, start_src=1000 * task)
        record = c.commit_task(task, ranking_by_seed(n, task))
        if task == 0:
            assert record.per_task_counts == (200,)
        elif task == 1:
            assert record.quota == 100 and record.per_task_counts == (100, 100)
        else:
            assert record.quota == 66 and record.per_task_counts == (66, 66, 66)
            assert record.total == 198 <= 200
    assert c.total_stored == 198


def test_capacity_bound_holds_over_many_commits():
    c = Coreset(capacity=37, seed=3)
    rng = np.random.default_rng(44)
    for task in range(7):
        labels = rng.integers(0, 10, size=int(rng.integers(5, 120)))
        n = stage_labeled(c, task, labels, start_src=1000 * task)
        c.commit_task(task, rng.permutation(n))
        assert c.total_stored <= 37
        quota = 37 // (task + 1)
        for prior in range(task + 1):
            assert len(c.stored(prior)) <= quota


def test_small_pool_stores_everything():
    c = Coreset(capacity=200, seed=4)
    n = stage_labeled(c, 0, [0, 1, 2])
    record = c.commit_task(0, np.arange(n))
    assert record.stored_new == 3


# ---------------------------------------------------------------------------
# class balance and ranking semantics


def test_balance_within_one_when_pool_is_rich():
    rng = np.random.default_rng(9)
    for trial in range(30):
        capacity = int(rng.integers(5, 60))
        c = Coreset(capacity=capacity, seed=trial)
        labels = np.repeat(np.arange(10), capacity)  # plenty of every class
        n = stage_labeled(c, 0, rng.permutation(labels))
        c.commit_task(0, rng.permutation(n))
        counts = class_counts(c.stored(0))
        assert counts.sum() == capacity
        assert counts.max() - counts.min() <= 1


def test_remainder_follows_preference_order():
    # Quota 23 over 10 classes: base 2 each, remainder 3 goes to the classes
    # holding the best-ranked leftover candidates.
    c = Coreset(capacity=23, seed=5)
    labels = np.repeat(np.arange(10), 5)
    n = stage_labeled(c, 0, labels)
    ranking = np.arange(n)  # preference = staging order = class blocks 0,1,2,...
    c.commit_task(0, ranking)
    counts = class_counts(c.stored(0))
    assert list(counts) == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]


def test_class_poor_pool_does_not_waste_quota():
    c = Coreset(capacity=20, seed=6)
    n = stage_labeled(c, 0, [0] * 30)  # single class only
    c.commit_task(0, np.arange(n))
    assert len(c.stored(0)) == 20


def test_unbalanced_commit_takes_order_prefix():
    c = Coreset(capacity=4, seed=7)
    n = stage_labeled(c, 0, [0, 0, 0, 1, 2, 3])
    c.commit_task(0, np.arange(n), class_balanced=False)
    assert list(class_counts(c.stored(0))[:4]) == [3, 1, 0, 0]


def test_duplicates_keep_best_ranked_copy():
    c = Coreset(capacity=2, seed=8)
    x = np.zeros((4, 784))
    x[:, 0] = [10.0, 10.0, 20.0, 20.0]
    c.stage_candidates(0, x, [0, 0, 1, 1], [7, 7, 9, 9])  # two sources, staged twice
    c.commit_task(0, np.array([1, 3, 0, 2]))  # copies at positions 1 and 3 rank best
    stored = c.stored(0)
    assert sorted(e.source_index for e in stored) == [7, 9]
    assert len(stored) == 2


def test_commit_is_deterministic():
    def build():
        c = Coreset(capacity=30, seed=10)
        rng = np.random.default_rng(3)
        for task in range(3):
            labels = rng.integers(0, 10, size=80)
            stage_labeled(c, task, labels, start_src=100 * task)
            c.commit_task(task, rng.permutation(80))
        return [(e.task_id, e.source_index) for e in c.all_examples()]

    assert build() == build()


def test_commit_rejects_bad_ranking_and_recommit():
    c = Coreset(capacity=10, seed=11)
    n = stage_labeled(c, 0, [0, 1, 2])
    with pytest.raises(DimensionError):
        c.commit_task(0, [0, 1])
    c.commit_task(0, np.arange(n))
    stage_labeled(c, 0, [3])
    with pytest.raises(ValueError):
        c.commit_task(0, [0])


# ---------------------------------------------------------------------------
# sampling


def test_sample_batch_small_buffer_returns_everything():
    c = Coreset(capacity=5, seed=12)
    stage_labeled(c, 0, [0, 1, 2, 3, 4])
    c.commit_task(0, np.arange(5))
    batch = sample_items(c.all_examples(), 5, seed=1)
    assert sorted(e.source_index for e in batch) == [0, 1, 2, 3, 4]


def test_sample_batch_with_replacement_when_short():
    c = Coreset(capacity=3, seed=13)
    stage_labeled(c, 0, [0, 1, 2])
    c.commit_task(0, np.arange(3))
    batch = sample_items(c.all_examples(), 10, seed=2)
    assert len(batch) == 10
    assert {e.source_index for e in batch} <= {0, 1, 2}


def test_sample_items_deterministic_and_rejects_empty():
    c = Coreset(capacity=5, seed=14)
    with pytest.raises(EmptyInputError):
        sample_items(c.all_examples(), 3, seed=0)
    stage_labeled(c, 0, [0, 1, 2, 3, 4])
    c.commit_task(0, np.arange(5))
    a = [e.source_index for e in sample_items(c.all_examples(), 3, seed=9)]
    b = [e.source_index for e in sample_items(c.all_examples(), 3, seed=9)]
    assert a == b
    assert len(set(a)) == 3  # without replacement when the buffer is large enough


def test_sample_items_frequency():
    items = list(range(10))
    counts = np.zeros(10)
    trials = 10_000
    for t in range(trials):
        counts[sample_items(items, 1, t)[0]] += 1
    freq = counts / trials
    sigma = np.sqrt(0.1 * 0.9 / trials)
    assert np.abs(freq - 0.1).max() < 4 * sigma


def test_examples_as_arrays():
    c = Coreset(capacity=4, seed=15)
    stage_labeled(c, 0, [1, 2, 3, 4])
    c.commit_task(0, np.arange(4))
    x, y = examples_as_arrays(c.all_examples())
    assert x.shape == (4, 784)
    assert sorted(y) == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# dump


def test_dump_csv_layout():
    c = Coreset(capacity=3, seed=16)
    stage_labeled(c, 0, [4, 5, 6])
    c.commit_task(0, np.arange(3))
    text = dump_csv(c.all_examples())
    lines = text.strip().splitlines()
    assert lines[0].startswith("task_id,class,example_index_in_source,px0,")
    assert lines[0].count(",") == 3 + 784 - 1
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] in {"4", "5", "6"}
    assert first[3 + 1] == "0.5"  # px1 carries the 0.5 fill value

import numpy as np
import pytest

from coresel.datastream import Dataset
from coresel.errors import DimensionError, EmptyInputError
from coresel.replay import (
    Coreset,
    ReservoirState,
    StoredExample,
    dump_csv,
    examples_as_arrays,
    format_sig,
    sample_items,
)
from coresel.selection import take_ranked


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
    pool = c.staged_pool(0)
    assert pool.x.shape == (70, 784)
    assert list(pool.source_index[:10]) == list(pool.source_index[10:20])


def test_staged_examples_are_copies():
    c = Coreset(capacity=10, seed=0)
    x = np.zeros((1, 784))
    c.stage_candidates(0, x, [3], [0])
    x[0, 0] = 99.0
    assert c.staged_pool(0).x[0, 0] == 0.0


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


def test_commits_cut_to_next_quota_and_read_back_in_commit_order():
    c = Coreset(capacity=25, seed=6)
    for k, task in enumerate((3, 0, 2)):  # out of task-id order
        quota = c.next_quota
        assert quota == 25 // (k + 1)
        n = stage_labeled(c, task, np.arange(30) % 10, start_src=100 * task)
        record = c.commit_task(task, np.arange(n))
        assert record.quota == quota and record.tasks_seen == k + 1
    assert record.per_task_counts == (8, 8, 8)
    assert [e.task_id for e in c.all_examples()] == [3] * 8 + [0] * 8 + [2] * 8


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


def test_num_classes_is_read_only():
    with pytest.raises(AttributeError):
        Coreset(capacity=10, seed=0).num_classes = 5  # take_ranked splits by NUM_CLASSES, whatever this says


def test_commit_rejects_bad_ranking_and_recommit():
    c = Coreset(capacity=10, seed=11)
    n = stage_labeled(c, 0, [0, 1, 2])
    with pytest.raises(DimensionError):
        c.commit_task(0, [0, 1])
    c.commit_task(0, np.arange(n))
    stage_labeled(c, 0, [3])
    with pytest.raises(ValueError):
        c.commit_task(0, [0])


# The commit's quota fill as it was written before it became one pass: a dedup
# pass, then three passes over the ranking (per-class base share, the
# remainder capped at base + 1, then uncapped). Both commit_task and
# selection.take_ranked, the one cut it calls, are checked against it.
def oracle_dedup(pool, ranking):
    seen, out = set(), []
    for i in ranking:
        if pool[i].source_index not in seen:
            seen.add(pool[i].source_index)
            out.append(i)
    return out


def oracle_take_quota(pool, order, quota, class_balanced, num_classes=10):
    if not class_balanced:
        return sorted(order[:quota])
    base = quota // num_classes
    counts, taken, in_taken = {}, [], set()
    for cap in (base, base + 1, None):
        for i in order:
            if len(taken) == quota:
                break
            if i in in_taken:
                continue
            label = pool[i].y
            if cap is None or counts.get(label, 0) < cap:
                counts[label] = counts.get(label, 0) + 1
                taken.append(i)
                in_taken.add(i)
    return sorted(taken)


def test_one_pass_quota_matches_three_pass_oracle():
    rng = np.random.default_rng(2024)
    cases = 0
    for trial in range(3000):
        n = int(rng.integers(1, 90))
        classes = rng.choice(10, size=int(rng.integers(1, 11)), replace=False)  # class-poor pools too
        labels = rng.choice(classes, size=n)
        sources = rng.integers(0, max(1, int(n * rng.uniform(0.3, 1.5))), size=n)  # duplicate sources
        quota = int(rng.choice([0, int(rng.integers(1, 10)), int(rng.integers(10, 60))]))  # 0, below and above classes
        balanced = bool(trial % 2)
        c = Coreset(capacity=quota, seed=trial)
        x = np.arange(n, dtype=np.float64)[:, None]  # x[0] is the staging position
        c.stage_candidates(0, x, labels, sources)
        pool = [StoredExample(0, row, int(label), int(src)) for row, label, src in zip(x, labels, sources)]
        ranking = rng.permutation(n)
        want = oracle_take_quota(pool, oracle_dedup(pool, ranking.tolist()), quota, balanced)
        record = c.commit_task(0, ranking, class_balanced=balanced)
        assert [int(e.x[0]) for e in c.stored(0)] == want, (trial, quota, balanced)
        assert record.stored_new == len(want)
        cases += quota > 0 and len(want) < min(quota, n)
    assert cases > 0  # some pools ran short of distinct sources


def test_take_ranked_matches_three_pass_oracle():
    rng = np.random.default_rng(2025)
    edges = set()
    for trial in range(3000):
        n = int(rng.integers(0, 60))
        classes = rng.choice(10, size=int(rng.integers(1, 11)), replace=False)
        labels = rng.choice(classes, size=n)
        ranking = rng.permutation(n)
        k = int(rng.choice([0, int(rng.integers(1, 10)), int(rng.integers(10, 60)), n, n + 3]))
        balanced = bool(trial % 2)
        pool = [StoredExample(0, None, int(label), i) for i, label in enumerate(labels)]
        want = oracle_take_quota(pool, ranking.tolist(), k, balanced)
        got = take_ranked(ranking, k, labels if balanced else None)
        assert got.dtype == np.int64 and got.tolist() == want, (trial, k, balanced)
        edges.add((k == 0, k >= n, balanced))
    assert {(True, False, False), (True, False, True), (False, True, False), (False, True, True)} <= edges


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


def test_sample_items_deterministic():
    c = Coreset(capacity=5, seed=14)
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


def test_dump_csv_formats_each_pixel_like_format_sig():
    rng = np.random.default_rng(3)
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308, 1e-310, 1e16, 123456.5, 1 / 3]
    rows = rng.standard_normal((3, 784)) * 10.0 ** rng.integers(-8, 8, size=(3, 784))
    rows[0, : len(special)] = special
    rows[1, -len(special) :] = special[::-1]
    examples = [StoredExample(task_id=t, y=t + 1, source_index=10 * t, x=row) for t, row in enumerate(rows)]
    body = dump_csv(examples).splitlines()[1:]
    assert body == [f"{t},{t + 1},{10 * t}," + ",".join(format_sig(v) for v in row) for t, row in enumerate(rows)]
    assert body[0].split(",")[3:6] == ["-0", "0", "nan"]


# ---------------------------------------------------------------------------
# reservoir


def nothing_built(width):
    """The (positions, pixels) of no built rows, for an offer whose caller has built none."""
    return np.arange(0), np.empty((0, width))


def offer_stream(state, n, batch_size, start=0):
    """Offer stream rows start..start+n-1 in batches; row r has label r % 10 and source index r."""
    for lo in range(start, start + n, batch_size):
        src = np.arange(lo, min(lo + batch_size, start + n))
        state.offer(0, Dataset(src[:, None].astype(np.float64), src % 10, src), nothing_built(1))


def test_reservoir_short_stream_keeps_everything():
    state = ReservoirState(capacity=5, seed=0)
    offer_stream(state, 3, batch_size=2)
    assert state.seen == 3
    assert [e.source_index for e in state.items] == [0, 1, 2]


def test_reservoir_zero_capacity():
    state = ReservoirState(capacity=0, seed=1)
    offer_stream(state, 19, batch_size=4)
    assert state.items == [] and state.seen == 19


def test_reservoir_seen_counts_every_offered_row():
    state = ReservoirState(capacity=7, seed=2)
    for n, batch_size in [(5, 5), (30, 4), (1, 1), (64, 64)]:
        before = state.seen
        offer_stream(state, n, batch_size, start=before)
        assert state.seen == before + n
        assert len(state.items) == min(7, state.seen)


def test_batched_integers_match_scalar_draws():
    # offer draws a whole batch with one integers(0, highs) call; numpy gives the
    # same values as scalar draws in order, however the highs are split.
    highs = np.arange(11, 211)
    for seed in range(20):
        scalar_rng = np.random.default_rng(seed)
        scalar = [int(scalar_rng.integers(0, h)) for h in highs]
        split_rng = np.random.default_rng(seed)
        split = np.concatenate([split_rng.integers(0, part) for part in np.split(highs, [1, 8, 60, 61, 150])])
        assert np.random.default_rng(seed).integers(0, highs).tolist() == scalar == split.tolist()


def test_reservoir_rows_do_not_depend_on_batching():
    kept = []
    for batch_size in (1, 7, 100):
        state = ReservoirState(capacity=20, seed=3)
        offer_stream(state, 250, batch_size)
        kept.append([(e.source_index, e.y) for e in state.items])
    assert kept[0] == kept[1] == kept[2]
    assert len(kept[0]) == 20 and kept[0] != [(r, r % 10) for r in range(20)]  # rows past the fill entered


def test_reservoir_inclusion_frequency():
    n, capacity, trials = 12, 4, 10_000
    p = capacity / n
    sigma = np.sqrt(p * (1 - p) / trials)
    for batch_size in (1, 5, 12):
        counts = np.zeros(n)
        for t in range(trials):
            state = ReservoirState(capacity=capacity, seed=[batch_size, t])
            offer_stream(state, n, batch_size)
            for e in state.items:
                counts[e.source_index] += 1
        assert np.abs(counts / trials - p).max() < 4 * sigma, batch_size


def test_reservoir_reads_only_the_rows_that_enter():
    # Offered one at a time, a row enters exactly when it is held right after its offer.
    class Source(Dataset):
        def subset(self, indices):
            asked.append(np.asarray(indices).tolist())
            return super().subset(indices)

    state = ReservoirState(capacity=3, seed=5)
    for r in range(40):
        asked = []
        state.offer(0, Source(np.full((1, 2), float(r)), np.array([r % 10]), np.array([r])), nothing_built(2))
        held = any(e.source_index == r for e in state.items)
        assert asked == [[0] if held else []]
    assert state.seen == 40 and len(state.items) == 3


def test_reservoir_copies_the_rows_it_keeps():
    state = ReservoirState(capacity=2, seed=4)
    x = np.zeros((3, 784))
    state.offer(1, Dataset(x, np.array([3, 4, 5]), np.array([10, 11, 12])), nothing_built(784))
    x[:] = 9.0
    assert all(e.x.max() == 0.0 and e.task_id == 1 for e in state.items)
    assert state.all_examples() == state.items and state.all_examples() is not state.items


def test_reservoir_copies_built_rows_and_reads_the_others():
    # Built rows are taken from the pixels handed in, marked here by their sign; the others are read from the rows.
    src = np.arange(12)
    rows = Dataset(src[:, None] + 1.0, src % 10, src)
    positions = np.array([1, 4, 5, 9])
    plain, state = ReservoirState(capacity=6, seed=6), ReservoirState(capacity=6, seed=6)
    plain.offer(0, rows, nothing_built(1))
    state.offer(0, rows, (positions, -rows.x[positions]))
    assert [e.source_index for e in state.items] == [e.source_index for e in plain.items]
    assert any(e.source_index in positions for e in plain.items)
    assert [e.x[0] for e in state.items] == [-e.x[0] if e.source_index in positions else e.x[0] for e in plain.items]

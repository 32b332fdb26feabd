import tracemalloc

import numpy as np
import pytest

from coresel.datastream import NUM_CLASSES, PIXELS, Dataset, corpus_view, make_synthetic_corpus
from coresel import metrics
from coresel.errors import DimensionError, EmptyInputError, IncompleteMatrixError
from coresel.metrics import AccuracyMatrix, average_accuracy, average_forgetting, grad_approx_diagnostic
from coresel.model import init_params, mean_gradient


def full_matrix(values):
    values = np.asarray(values, dtype=np.float64)
    m = AccuracyMatrix(values.shape[0])
    for t in range(values.shape[0]):
        for i in range(t + 1):
            m.set(t, i, values[t, i])
    return m


def random_matrix(rng, T):
    return full_matrix(np.tril(rng.uniform(size=(T, T))))


def oracle_average_accuracy(values, t):
    return sum(values[t][: t + 1]) / (t + 1)


def oracle_average_forgetting(values):
    T = len(values)
    if T == 1:
        return 0.0
    total = 0.0
    for i in range(T - 1):
        peak = max(values[t][i] for t in range(i, T - 1))
        total += peak - values[T - 1][i]
    return total / (T - 1)


# ---------------------------------------------------------------------------
# matrix container


def test_matrix_bounds_and_triangle():
    m = AccuracyMatrix(3)
    m.set(1, 0, 0.5)
    with pytest.raises(DimensionError):
        m.set(0, 1, 0.5)  # upper triangle
    with pytest.raises(DimensionError):
        m.set(1, 0, 1.5)
    with pytest.raises(IncompleteMatrixError):
        m.row(1)  # (1,1) missing
    m.set(1, 1, 0.25)
    assert list(m.row(1)) == [0.5, 0.25]
    with pytest.raises(IncompleteMatrixError):
        m.get(0, 0)


# ---------------------------------------------------------------------------
# average accuracy


def test_average_accuracy_examples():
    assert average_accuracy(full_matrix([[0.9, 0.0], [0.9, 0.7]]), 1) == pytest.approx(0.8)
    assert average_accuracy(full_matrix([[0.93]]), 0) == pytest.approx(0.93)
    ones = full_matrix(np.tril(np.ones((4, 4))))
    for t in range(4):
        assert average_accuracy(ones, t) == 1.0


def test_average_accuracy_matches_brute_force():
    rng = np.random.default_rng(20240815)
    for _ in range(1000):
        T = int(rng.integers(1, 9))
        m = random_matrix(rng, T)
        t = int(rng.integers(0, T))
        want = oracle_average_accuracy(m.values.tolist(), t)
        assert abs(average_accuracy(m, t) - want) < 1e-12


# ---------------------------------------------------------------------------
# average forgetting


def test_forgetting_two_task_example():
    # Oracle: peak of task 0 before the final row is 0.9; final is 0.8.
    m = full_matrix([[0.9, 0.0], [0.8, 0.85]])
    assert average_forgetting(m) == pytest.approx(0.1, abs=1e-12)


def test_forgetting_conventions():
    assert average_forgetting(full_matrix([[0.7]])) == 0.0
    constant = full_matrix(np.tril(np.full((5, 5), 0.6)))
    assert average_forgetting(constant) == pytest.approx(0.0, abs=1e-15)
    # Columns that only improve give nonpositive forgetting (backward transfer).
    rng = np.random.default_rng(1)
    vals = np.zeros((4, 4))
    for i in range(4):
        col = np.sort(rng.uniform(size=4 - i))
        vals[i:, i] = col
    assert average_forgetting(full_matrix(vals)) <= 0.0


def test_forgetting_matches_brute_force():
    rng = np.random.default_rng(20240816)
    for _ in range(1000):
        T = int(rng.integers(2, 9))
        m = random_matrix(rng, T)
        want = oracle_average_forgetting(m.values.tolist())
        assert abs(average_forgetting(m) - want) < 1e-12


def test_forgetting_requires_complete_matrix():
    m = AccuracyMatrix(2)
    m.set(0, 0, 0.9)
    m.set(1, 1, 0.8)
    with pytest.raises(IncompleteMatrixError):
        average_forgetting(m)


# ---------------------------------------------------------------------------
# gradient-approximation diagnostic


def tiny_dataset(seed, n=120):
    rng = np.random.default_rng(seed)
    return Dataset(rng.uniform(size=(n, 12)), rng.integers(0, 4, size=n).astype(np.int64), np.arange(n, dtype=np.int64))


def test_diagnostic_full_batch_row():
    params = init_params([12, 8, 4], np.random.default_rng(0))
    ds = tiny_dataset(5)
    rows = grad_approx_diagnostic(params, ds, [len(ds)], seed=3)
    assert rows[0].batch_size == 120
    assert rows[0].mean_l2 == pytest.approx(0.0, abs=1e-10)
    assert rows[0].mean_cosine == pytest.approx(1.0, abs=1e-10)
    assert rows[0].cross_l2 is None
    assert rows[0].mean_l2 == 0.0  # its gradient is the full gradient itself, not a second read of it


def test_a_batch_size_above_the_dataset_is_labelled_with_the_rows_it_averages():
    params = init_params([12, 8, 4], np.random.default_rng(0))
    ds, other = tiny_dataset(5), tiny_dataset(6)
    rows = grad_approx_diagnostic(params, ds, [len(ds) + 1, 10_000, len(ds)], seed=3, other_dataset=other)
    assert [row.batch_size for row in rows] == [120] * 3
    assert rows[0] == rows[1] == rows[2]


def test_an_empty_dataset_has_no_mean_gradient():
    params = init_params([12, 8, 4], np.random.default_rng(0))
    empty = Dataset(np.zeros((0, 12)), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    with pytest.raises(EmptyInputError, match="^no rows to take a mean gradient over$"):
        grad_approx_diagnostic(params, empty, [10], seed=3)
    with pytest.raises(EmptyInputError, match="^no rows to take a mean gradient over$"):
        grad_approx_diagnostic(params, tiny_dataset(5), [10], seed=3, other_dataset=empty)


def test_every_gradient_is_read_in_chunks_and_the_full_row_reads_nothing(monkeypatch):
    # 5,000 rows are three chunks and the 2,100-row other dataset two; a 3,000-row batch is two chunks. Sizes of n
    # or more read no row beyond the two target passes.
    params = init_params([12, 8, 4], np.random.default_rng(4))
    ds, other = tiny_dataset(9, n=5000), tiny_dataset(10, n=2100)
    read = []

    def counting(params, x, y):
        read.append(len(x))
        return mean_gradient(params, x, y)

    monkeypatch.setattr(metrics, "mean_gradient", counting)
    grad_approx_diagnostic(params, ds, [10, 3000, 5000, 9000], n_batches=3, seed=4, other_dataset=other)
    assert max(read) <= metrics._CHUNK_ROWS == 2048
    assert read == [2048, 2048, 904, 2048, 52] + [10] * 3 + [2048, 952] * 3


def test_a_chunked_mean_gradient_weights_each_chunk_by_its_share():
    # Up to one chunk, the read is mean_gradient's own value bit for bit; over more, it is the one-pass mean.
    params = init_params([12, 8, 4], np.random.default_rng(5))
    small, large = tiny_dataset(11, n=2048), tiny_dataset(12, n=5000)
    assert metrics._mean_gradient(params, small).tobytes() == mean_gradient(params, small.x, small.y).tobytes()
    assert np.allclose(metrics._mean_gradient(params, large), mean_gradient(params, large.x, large.y),
                       rtol=0, atol=1e-15)


def test_diagnostic_cross_dataset_and_determinism():
    params = init_params([12, 8, 4], np.random.default_rng(1))
    ds = tiny_dataset(6)
    other = tiny_dataset(7)
    a = grad_approx_diagnostic(params, ds, [5, 20], seed=9, other_dataset=other)
    b = grad_approx_diagnostic(params, ds, [5, 20], seed=9, other_dataset=other)
    assert a == b
    for row in a:
        assert row.cross_l2 is not None and row.cross_cosine is not None
        assert -1.0 <= row.cross_cosine <= 1.0
        assert row.mean_l2 >= 0.0


def test_diagnostic_larger_batches_track_full_gradient_closer():
    # Aggregate trend over many batches; tiny sizes keep it a smoke check.
    params = init_params([12, 10, 4], np.random.default_rng(2))
    ds = tiny_dataset(8, n=200)
    rows = grad_approx_diagnostic(params, ds, [2, 100], n_batches=40, seed=11)
    assert rows[0].mean_l2 > rows[1].mean_l2
    assert rows[0].mean_cosine < rows[1].mean_cosine


def test_diagnostic_over_corpus_views_holds_no_whole_corpus_copy():
    # It reads at most a 2,048-row chunk at a time, for a batch longer than one chunk (3,000) and the whole corpus
    # (8,000) too: its peak stays below one float64 copy of the corpus, and its figures are those over the scaled
    # corpus held whole.
    corpus = make_synthetic_corpus(8000, 12)
    params = init_params([PIXELS, 256, 256, NUM_CLASSES], np.random.default_rng(12))
    sizes = (10, 100, 3000, 8000)
    tracemalloc.start()
    try:
        rows = grad_approx_diagnostic(params, corpus_view(corpus), sizes, n_batches=2, seed=12,
                                      other_dataset=corpus_view(corpus, 13))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(corpus) * PIXELS * 8
    whole, permuted = (Dataset(view.x, corpus.y, corpus.source_index) for view in (corpus_view(corpus),
                                                                                corpus_view(corpus, 13)))
    assert rows == grad_approx_diagnostic(params, whole, sizes, n_batches=2, seed=12, other_dataset=permuted)

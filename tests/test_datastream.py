import dataclasses
import math
import os
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import oracles
from coresel import datastream
from coresel.datastream import (
    Dataset,
    TaskView,
    apply_imbalance,
    build_permuted_stream,
    build_rotated_stream,
    corpus_view,
    load_idx,
    make_synthetic_corpus,
    stream_manifest,
)
from coresel.errors import DimensionError, EmptyInputError, FormatError
from coresel.seeds import derive

MNIST_DIR = os.environ.get("MNIST_DIR", "")


def write_idx_pair(tmp_path, images, labels, image_magic=0x00000803, label_magic=0x00000801, tag=""):
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / f"images{tag}-idx3-ubyte"
    lab_path = tmp_path / f"labels{tag}-idx1-ubyte"
    img_path.write_bytes(struct.pack(">iiii", image_magic, n, rows, cols) + images.tobytes())
    lab_path.write_bytes(struct.pack(">ii", label_magic, len(labels)) + bytes(int(l) for l in labels))
    return str(img_path), str(lab_path)


def imbalanced(ds, reduced_classes, keep_fraction, seed):
    """`ds` cut to the survivors `apply_imbalance` draws from its labels."""
    return ds.subset(apply_imbalance(ds.y, reduced_classes, keep_fraction, seed))


def rotated(ds, angle):
    """The corpus `ds`, scaled to pixels, under the rotation kernel that streams use."""
    x = np.empty(ds.x.shape)
    datastream._transform_rows(datastream._rotator(angle), ds.x, np.arange(len(ds)), x)
    return Dataset(x, ds.y, ds.source_index)


def small_dataset(n=60, seed=0):
    """A corpus of n rows of uniformly drawn uint8 levels."""
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.integers(0, 256, size=(n, 784), dtype=np.uint8),
        rng.integers(0, 10, size=n).astype(np.int64),
        np.arange(n, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# load_idx


def test_load_idx_round_trip(tmp_path):
    # The corpus keeps the file's bytes as its levels, with no float copy; a view reads each pixel as level / 255.0,
    # the value the loader itself once stored, bit for bit.
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(200, 28, 28)).astype(np.uint8)
    labels = rng.integers(0, 10, size=200)
    paths = write_idx_pair(tmp_path, images, labels)
    ds, peak = traced_peak(lambda: load_idx(*paths))
    assert len(ds) == 200
    assert np.array_equal(ds.y, labels)
    assert ds.x.dtype == np.uint8 and np.array_equal(ds.x, images.reshape(200, 784))
    assert peak < 2 * images.nbytes  # a float64 copy alone would take 8 times the image bytes
    assert np.array_equal(ds.source_index, np.arange(200))
    scaled = images.reshape(200, 784).astype(np.float64) / 255.0
    assert corpus_view(ds).x.tobytes() == scaled.tobytes()
    assert corpus_view(ds).subset([5, 0]).x.tobytes() == scaled[[5, 0]].tobytes()


@pytest.mark.parametrize("dtype", ["float64", "int64"])
def test_a_corpus_view_refuses_a_corpus_that_is_not_uint8_levels(dtype):
    # A view casts a corpus's values to uint8 levels as it gathers them: float pixels would all read 0.
    corpus = small_dataset(5)
    values = corpus.x / 255.0 if dtype == "float64" else corpus.x.astype(np.int64)
    with pytest.raises(FormatError, match=f"^a corpus view reads uint8 pixel levels, but the corpus holds {dtype}$"):
        corpus_view(Dataset(values, corpus.y, corpus.source_index))
    assert corpus_view(corpus).x.tobytes() == (corpus.x / 255.0).tobytes()


def test_load_idx_bad_magic(tmp_path):
    imgs, labs = write_idx_pair(tmp_path, np.zeros((2, 28, 28)), [0, 1], image_magic=0x00000804)
    with pytest.raises(FormatError, match="magic"):
        load_idx(imgs, labs)
    imgs, labs = write_idx_pair(tmp_path, np.zeros((2, 28, 28)), [0, 1], label_magic=0x00000800)
    with pytest.raises(FormatError, match="magic"):
        load_idx(imgs, labs)


def test_load_idx_truncation_names_offset(tmp_path):
    imgs, labs = write_idx_pair(tmp_path, np.zeros((3, 28, 28)), [0, 1, 2])
    with open(imgs, "rb") as fh:
        blob = fh.read()
    short = tmp_path / "short"
    short.write_bytes(blob[:-100])
    with pytest.raises(FormatError, match="offset 16"):
        load_idx(str(short), labs)
    empty = tmp_path / "empty"
    empty.write_bytes(b"")
    with pytest.raises(FormatError, match="offset 0"):
        load_idx(str(empty), labs)


def test_load_idx_count_mismatch(tmp_path):
    imgs, _ = write_idx_pair(tmp_path, np.zeros((3, 28, 28)), [0, 1, 2], tag="-a")
    _, labs = write_idx_pair(tmp_path, np.zeros((2, 28, 28)), [0, 1], tag="-b")
    with pytest.raises(FormatError, match="counts must match"):
        load_idx(imgs, labs)


def test_load_idx_rejects_images_that_are_not_28x28(tmp_path):
    # Such a corpus would load and then fail every run: in rotation, or at the model's first layer.
    for shape in ((2, 16, 16), (2, 28, 20)):
        imgs, labs = write_idx_pair(tmp_path, np.zeros(shape), [0, 1])
        with pytest.raises(FormatError, match=f"{imgs}: images are {shape[1]}x{shape[2]}, expected 28x28"):
            load_idx(imgs, labs)


@pytest.mark.parametrize("side, fields, payload, declared, present", [
    ("image", (0x803, 0x80000002, 28, 28), bytes(2 * 784), 0x80000002 * 784, 1568),  # negative as a signed count
    ("image", (0x803, 2**31 - 1, 28, 28), b"", (2**31 - 1) * 784, 0),  # read() would be asked for 1.7 TB
    ("label", (0x801, 0xFFFFFFFF), bytes([0, 1]), 0xFFFFFFFF, 2),  # -1 as a signed count
], ids=["image-count-high-bit", "image-count-2^31-1", "label-count-minus-one"])
def test_load_idx_checks_declared_sizes_before_reading(tmp_path, side, fields, payload, declared, present):
    imgs, labs = write_idx_pair(tmp_path, np.zeros((2, 28, 28)), [0, 1])
    bad = tmp_path / "bad-header"
    bad.write_bytes(struct.pack(f">{len(fields)}I", *fields) + payload)
    offset = 4 * len(fields)
    want = f"{bad}: {side} data at offset {offset}: the header declares {declared} bytes, {present} are present"
    with pytest.raises(FormatError, match=want):
        load_idx(str(bad), labs) if side == "image" else load_idx(imgs, str(bad))


@pytest.mark.skipif(not MNIST_DIR, reason="set MNIST_DIR to a directory holding the MNIST IDX files")
def test_load_idx_official_train_files():
    ds = load_idx(
        os.path.join(MNIST_DIR, "train-images-idx3-ubyte"),
        os.path.join(MNIST_DIR, "train-labels-idx1-ubyte"),
    )
    assert len(ds) == 60000
    assert int(ds.y[0]) == 5


@pytest.mark.skipif(not MNIST_DIR, reason="set MNIST_DIR to a directory holding the MNIST IDX files")
def test_imbalance_counts_on_official_files():
    ds = load_idx(
        os.path.join(MNIST_DIR, "train-images-idx3-ubyte"),
        os.path.join(MNIST_DIR, "train-labels-idx1-ubyte"),
    )
    reduced = tuple(c for c in range(10) if c not in (0, 5))
    out = imbalanced(ds, reduced, 0.10, 7)
    for c in range(10):
        base = int((ds.y == c).sum())
        kept = int((out.y == c).sum())
        want = base if c in (0, 5) else 0.10 * base
        assert abs(kept - want) <= 1


# ---------------------------------------------------------------------------
# rotation


def rotate_image(pixels, angle):
    """One image of float pixels through the rotation kernel."""
    block = np.asarray(pixels, dtype=np.float64).reshape(1, -1)
    out, scratch = np.empty((2, *block.shape))
    datastream._rotator(angle)(block, out, scratch)
    return out[0].reshape(pixels.shape)


def test_rotate_identity_angle():
    rng = np.random.default_rng(2)
    img = rng.uniform(size=(28, 28))
    assert np.allclose(rotate_image(img, 0.0), img, atol=1e-12)


def test_rotate_zero_image_and_range():
    assert np.all(rotate_image(np.zeros((28, 28)), 77.0) == 0.0)
    rng = np.random.default_rng(3)
    for angle in (13.0, 45.0, 90.0, 179.0):
        out = rotate_image(rng.uniform(size=(28, 28)), angle)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_rotate_180_twice_restores_interior():
    rng = np.random.default_rng(4)
    img = rng.uniform(size=(28, 28))
    twice = rotate_image(rotate_image(img, 180.0), 180.0)
    assert np.abs(twice[1:-1, 1:-1] - img[1:-1, 1:-1]).max() <= 2e-2


def test_rotate_preserves_center_pixel():
    img = np.zeros((28, 28))
    img[14, 14] = 1.0
    for angle in (0.0, 30.0, 90.0, 117.5, 180.0):
        assert rotate_image(img, angle)[14, 14] == pytest.approx(1.0, abs=1e-6)


def test_rotate_dataset_matches_per_image():
    ds = small_dataset(5)
    out = rotated(ds, 33.0)
    for i in range(5):
        assert np.array_equal(out.x[i], rotate_image(ds.x[i].reshape(28, 28) / 255.0, 33.0).ravel())
    assert np.array_equal(out.y, ds.y)
    assert np.array_equal(out.source_index, ds.source_index)


# ---------------------------------------------------------------------------
# permutation


def test_permute_pixels_is_seeded_bijection():
    ds = small_dataset(4)
    a = corpus_view(ds, 9)
    b = corpus_view(ds, 9)
    c = corpus_view(ds, 10)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)
    assert np.array_equal(np.sort(a.x, axis=1), np.sort(ds.x / 255.0, axis=1))
    # C order, as on rotated streams: a row subset of a Fortran-ordered array is many times slower.
    assert a.x.flags.c_contiguous


# ---------------------------------------------------------------------------
# imbalance


def test_imbalance_identity_when_keeping_everything():
    ds = small_dataset(80)
    out = imbalanced(ds, range(10), 1.0, 5)
    order = np.argsort(out.source_index)
    assert np.array_equal(out.x[order], ds.x)
    assert np.array_equal(out.y[order], ds.y)


def test_imbalance_floor_counts_and_untouched_classes():
    y = np.repeat(np.arange(10), 10)  # 10 per class
    ds = Dataset(np.random.default_rng(0).uniform(size=(100, 784)), y.astype(np.int64), np.arange(100, dtype=np.int64))
    reduced = (1, 2, 3)
    out = imbalanced(ds, reduced, 0.5, 11)
    for c in range(10):
        assert int((out.y == c).sum()) == (5 if c in reduced else 10)
    # Survivors keep their exact pixels and labels.
    for row, src in zip(out.x, out.source_index):
        assert np.array_equal(row, ds.x[src])
    assert np.array_equal(out.y, ds.y[out.source_index])


def test_imbalance_deterministic():
    ds = small_dataset(100, seed=8)
    a = imbalanced(ds, (0, 1), 0.3, 42)
    b = imbalanced(ds, (0, 1), 0.3, 42)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.source_index, b.source_index)


# ---------------------------------------------------------------------------
# noise


def test_noise_zero_fraction_is_identity():
    ds = corpus_view(small_dataset(30))
    out, positions = oracles.noised(ds, 0.0, 1)
    assert positions.size == 0
    assert np.array_equal(out.x, ds.x)


def test_noise_exact_count_and_label_preservation():
    ds = corpus_view(small_dataset(100, seed=3))
    out, positions = oracles.noised(ds, 0.6, 2)
    assert positions.shape == (60,)
    assert np.array_equal(out.y, ds.y)
    untouched = np.setdiff1d(np.arange(100), positions)
    assert np.array_equal(out.x[untouched], ds.x[untouched])
    assert not np.array_equal(out.x[positions], ds.x[positions])


def test_noise_full_replacement_is_standard_normal():
    ds = corpus_view(small_dataset(50, seed=4))
    out, positions = oracles.noised(ds, 1.0, 3)
    assert positions.shape == (50,)
    # Per-image mean and variance within 4 sigma of N(0,1) moments (784 draws).
    mean_bound = 4.0 / np.sqrt(784)
    var_bound = 4.0 * np.sqrt(2.0 / 783)
    for row in out.x:
        assert abs(row.mean()) < mean_bound
        assert abs(row.var(ddof=1) - 1.0) < var_bound


# ---------------------------------------------------------------------------
# streams


def test_rotated_stream_is_bit_reproducible():
    train = small_dataset(120, seed=5)
    test = small_dataset(40, seed=6)
    kwargs = dict(train_per_task=50, test_per_task=20, noise_fraction=0.2)
    a = build_rotated_stream(train, test, 4, 99, **kwargs)
    b = build_rotated_stream(train, test, 4, 99, **kwargs)
    for ta, tb in zip(a.tasks, b.tasks):
        assert ta.spec.angle == tb.spec.angle
        assert np.array_equal(ta.train.x, tb.train.x)
        assert np.array_equal(ta.test.x, tb.test.x)
        assert ta.noisy_source == tb.noisy_source


def test_rotated_stream_draws_distinct_angles():
    train = small_dataset(20, seed=9)
    test = small_dataset(10, seed=10)
    stream = build_rotated_stream(train, test, 20, 1234)
    angles = [t.spec.angle for t in stream.tasks]
    assert len(set(angles)) == 20
    assert all(0.0 <= a <= 180.0 for a in angles)


def test_noisy_stream_records_noise_identity():
    train = small_dataset(100, seed=11)
    test = small_dataset(20, seed=12)
    stream = build_rotated_stream(train, test, 2, 5, train_per_task=50, noise_fraction=0.5)
    for task in stream.tasks:
        assert len(task.noisy_source) == 25
        noisy_rows = [i for i, s in enumerate(task.train.source_index) if int(s) in task.noisy_source]
        assert len(noisy_rows) == 25
        # Noise replaces pixels after rotation, so values spill outside [0,1].
        assert task.train.x[noisy_rows].min() < 0.0


def test_permuted_stream_reproducible_and_distinct():
    train = small_dataset(40, seed=13)
    test = small_dataset(12, seed=14)
    a = build_permuted_stream(train, test, 3, 77)
    b = build_permuted_stream(train, test, 3, 77)
    assert all(np.array_equal(x.train.x, y.train.x) for x, y in zip(a.tasks, b.tasks))
    assert not np.array_equal(a.tasks[0].train.x, a.tasks[1].train.x)
    assert all(task.train.x.flags.c_contiguous and task.test.x.flags.c_contiguous for task in a.tasks)


def test_a_view_makes_its_corpus_read_only():
    # A later write to a corpus would change every task's train or test set built from it: it raises instead.
    train = small_dataset(40, seed=19)
    test = small_dataset(12, seed=20)
    stream = build_permuted_stream(train, test, 2, 3, train_per_task=20)
    for corpus, view in ((train, stream.tasks[0].train), (test, stream.tasks[0].test)):
        before = view.x
        with pytest.raises(ValueError, match="read-only"):
            corpus.x[view.source_index[0]] = 0.0
        assert np.array_equal(view.x, before)


def test_both_kinds_draw_the_same_rows():
    # One protocol: the subsample, imbalance and noise draws depend on (seed, task, tag), not on the kind.
    train = small_dataset(120, seed=17)
    test = small_dataset(40, seed=18)
    kwargs = dict(train_per_task=80, test_per_task=30, imbalance=((1, 2, 3), 0.5), noise_fraction=0.25)
    rotated = build_rotated_stream(train, test, 3, 8, **kwargs)
    permuted = build_permuted_stream(train, test, 3, 8, **kwargs)
    for r, p in zip(rotated.tasks, permuted.tasks):
        assert np.array_equal(r.train.source_index, p.train.source_index)
        assert np.array_equal(r.test.source_index, p.test.source_index)
        assert r.noisy_source == p.noisy_source and len(p.noisy_source) > 0
        assert (r.spec.kind, p.spec.kind, p.spec.angle) == ("rotate", "permute", None)
    details = [line.split()[2] for line in stream_manifest(permuted).splitlines()[1:]]
    assert details == ["permute_seed=0", "permute_seed=1", "permute_seed=2"]


@pytest.mark.parametrize("build", [build_rotated_stream, build_permuted_stream])
def test_a_task_without_test_rows_fails_the_stream(build):
    # No evaluation could score the task; a run would train through it first and fail on an empty batch.
    empty = Dataset(np.zeros((0, 784), np.uint8), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    with pytest.raises(EmptyInputError, match="^task 0 has no test rows: 0 in the test corpus$"):
        build(small_dataset(), empty, 2, 0, train_per_task=20, test_per_task=10)


@pytest.mark.parametrize("build", [build_rotated_stream, build_permuted_stream])
@pytest.mark.parametrize("narrow", ["train", "test"])
def test_a_corpus_without_784_pixel_rows_fails_the_stream_before_any_task(monkeypatch, build, narrow):
    # The one check of row width: the kernels, the noise rows, the network and the coreset dump take 784 pixels.
    for kernel in ("_rotator", "_permuter"):
        monkeypatch.setattr(datastream, kernel, lambda *args: pytest.fail("a task was drawn"))
    corpora = {"train": small_dataset(), "test": small_dataset(20)}
    corpora[narrow] = Dataset(np.zeros((60, 12), np.uint8), np.zeros(60, dtype=np.int64), np.arange(60))
    train_width, test_width = (12, 784) if narrow == "train" else (784, 12)
    with pytest.raises(DimensionError, match=f"^a stream needs 784-pixel rows: the train corpus has {train_width}, "
                                             f"the test corpus {test_width}$"):
        build(corpora["train"], corpora["test"], 2, 0, train_per_task=20, test_per_task=10)


@pytest.mark.parametrize("build", [build_rotated_stream, build_permuted_stream])
@pytest.mark.parametrize("floating", ["train", "test"])
def test_a_corpus_of_float_pixels_fails_the_stream_before_any_task(monkeypatch, build, floating):
    # A view scales each corpus value by 1/255: a corpus already scaled to float pixels would be scaled twice.
    for kernel in ("_rotator", "_permuter"):
        monkeypatch.setattr(datastream, kernel, lambda *args: pytest.fail("a task was drawn"))
    corpora = {"train": small_dataset(), "test": small_dataset(20)}
    corpus = corpora[floating]
    corpora[floating] = Dataset(corpus_view(corpus).x, corpus.y, corpus.source_index)
    train_type, test_type = ("float64", "uint8") if floating == "train" else ("uint8", "float64")
    with pytest.raises(FormatError, match=f"^a stream needs corpora of uint8 pixel levels: the train corpus holds "
                                          f"{train_type}, the test corpus {test_type}$"):
        build(corpora["train"], corpora["test"], 2, 0, train_per_task=20, test_per_task=10)


@pytest.mark.parametrize("imbalance", [None, ((1, 2), 0.5)])
def test_a_task_without_train_rows_names_its_cause(imbalance):
    # An empty train corpus draws no rows; class imbalance is not what lost them, set or not.
    empty = Dataset(np.zeros((0, 784), np.uint8), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    with pytest.raises(EmptyInputError, match="^task 0 has no training rows: 0 drawn of 0$"):
        build_rotated_stream(empty, small_dataset(), 2, 0, train_per_task=20, test_per_task=10, imbalance=imbalance)


def test_stream_manifest_lists_every_task():
    train = small_dataset(30, seed=15)
    test = small_dataset(10, seed=16)
    stream = build_rotated_stream(train, test, 3, 21, imbalance=((1, 2), 0.1), noise_fraction=0.3)
    text = stream_manifest(stream)
    lines = text.strip().splitlines()
    assert lines[0] == "master_seed = 21"
    assert len(lines) == 4
    assert all("kind=rotate" in line and "angle=" in line for line in lines[1:])
    assert all("classes:1|2;keep:0.1" in line and "noise=0.3" in line for line in lines[1:])


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synthetic_corpus_shape_range_and_determinism():
    a = make_synthetic_corpus(500, 42)
    b = make_synthetic_corpus(500, 42)
    assert a.x.shape == (500, 784) and a.x.dtype == np.uint8
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert set(np.unique(a.y)) == set(range(10))
    c = make_synthetic_corpus(500, 43)
    assert not np.array_equal(a.x, c.x)


def test_every_synthetic_pixel_read_is_a_level_over_255():
    # The synthetic corpus has MNIST's pixel alphabet: every pixel read untransformed or permuted is k / 255 for a
    # whole k in 0..255, bit for bit.
    corpus = make_synthetic_corpus(300, 81)
    task = build_permuted_stream(corpus, make_synthetic_corpus(60, 82), 1, 5, train_per_task=100,
                                 test_per_task=40).tasks[0]
    levels = np.arange(256) / 255.0
    for x in (corpus_view(corpus).x, corpus_view(corpus, 3).x, task.train.x, task.test.x):
        assert x.dtype == np.float64 and x.tobytes() == levels[np.rint(x * 255.0).astype(np.int64)].tobytes()
    assert np.unique(corpus.x).size > 200  # the quantisation keeps the corpus's range of values


# ---------------------------------------------------------------------------
# row-block builds against the per-row, whole-array and transform-then-drop oracles


def assert_same_dataset(got, want):
    for a, b in ((got.x, want.x), (got.y, want.y), (got.source_index, want.source_index)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_stream(got, want):
    assert got.master_seed == want.master_seed and len(got) == len(want)
    for t, (g, w) in enumerate(zip(got.tasks, want.tasks)):
        assert g.spec == w.spec and g.noisy_source == w.noisy_source
        assert isinstance(g.train, TaskView) and isinstance(g.test, TaskView)
        assert_same_dataset(g.train, w.train)
        assert_same_dataset(g.test, w.test)
        assert g.train.x.flags.c_contiguous
        # Batches as the trainer takes them: a shuffled order cut into runs that straddle a block edge. Each
        # reads every third row, in reverse order, as a pick's subset does, and then the whole batch.
        order = np.random.default_rng(t).permutation(len(g.train))
        for start in range(0, len(order), BLOCK + 3):
            batch, want_batch = (ds.subset(order[start : start + BLOCK + 3]) for ds in (g.train, w.train))
            picks = np.arange(0, len(batch), 3)[::-1]
            assert_same_dataset(batch.subset(picks), want_batch.subset(picks))
            assert_same_dataset(batch, want_batch)


BLOCK = datastream._BLOCK_ROWS
BLOCK_EDGES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]


@pytest.mark.parametrize("n", BLOCK_EDGES + [4 * BLOCK - 1, 4 * BLOCK, 4 * BLOCK + 1, 4000])
def test_synthetic_corpus_equals_per_row_oracle(n):
    assert_same_dataset(make_synthetic_corpus(n, 1000 + n), oracles.synthetic_corpus(n, 1000 + n))


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_transforms_equal_whole_array_oracles(n):
    ds = make_synthetic_corpus(n, 2000 + n)
    assert_same_dataset(rotated(ds, 33.0), oracles.rotate_dataset(ds, 33.0))
    assert_same_dataset(corpus_view(ds, n), oracles.permute_pixels(ds, n))


@pytest.mark.parametrize("kind", ["rotate", "permute"])
@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_stream_equals_oracle_at_block_edges(kind, n):
    # n clean train rows per task: written straight into place, scattered between n noise rows, and (about n)
    # left by a class imbalance with noise.
    builder = build_rotated_stream if kind == "rotate" else build_permuted_stream
    train = make_synthetic_corpus(2 * BLOCK_EDGES[-1] + 10, 33)
    test = make_synthetic_corpus(BLOCK_EDGES[-1] + 10, 34)
    for kwargs in (dict(train_per_task=n), dict(train_per_task=2 * n, noise_fraction=0.5),
                   dict(train_per_task=2 * n + 5, imbalance=((0, 1, 2, 3, 4), 0.5), noise_fraction=0.25)):
        kwargs["test_per_task"] = n
        want = oracles.build_stream(kind, train, test, 2, 19, **kwargs)
        assert_same_stream(builder(train, test, 2, 19, **kwargs), want)


STREAM_CASES = {
    "balanced": dict(train_per_task=150),
    "imbalanced": dict(train_per_task=150, imbalance=((0, 2, 3, 5, 6, 7, 8, 9), 0.1)),
    "noisy": dict(train_per_task=150, noise_fraction=0.2),
    "imbalanced-noisy": dict(train_per_task=150, imbalance=((1, 4, 7), 0.3), noise_fraction=0.5),
    "all-noise": dict(train_per_task=150, noise_fraction=1.0),
    "keep-all": dict(train_per_task=150, imbalance=((1, 2, 3), 1.0), noise_fraction=0.1),
    "whole-corpus": dict(train_per_task=None, test_per_task=None, imbalance=((0, 9), 0.5), noise_fraction=0.25),
}


@pytest.mark.parametrize("kind", ["rotate", "permute"])
@pytest.mark.parametrize("case", list(STREAM_CASES))
def test_stream_equals_transform_then_drop_oracle(kind, case):
    train = make_synthetic_corpus(240, 31)
    test = make_synthetic_corpus(60, 32)
    kwargs = dict(test_per_task=40) | STREAM_CASES[case]
    builder = build_rotated_stream if kind == "rotate" else build_permuted_stream
    got = builder(train, test, 3, 17, **kwargs)
    assert len(got) == 3
    assert_same_stream(got, oracles.build_stream(kind, train, test, 3, 17, **kwargs))


@pytest.mark.parametrize("kind", ["rotate", "permute"])
def test_only_the_clean_rows_asked_for_reach_the_kernel(monkeypatch, kind):
    # A noisy train view transforms the clean rows a read asks for, once per read, and draws its noise rows:
    # no noise row's corpus pixels are transformed only to be overwritten.
    train = make_synthetic_corpus(240, 51)
    test = make_synthetic_corpus(60, 52)
    kwargs = dict(train_per_task=150, test_per_task=40, noise_fraction=0.4)
    task = (build_rotated_stream if kind == "rotate" else build_permuted_stream)(train, test, 1, 23, **kwargs).tasks[0]
    want = oracles.build_stream(kind, train, test, 1, 23, **kwargs).tasks[0].train
    view, seen = task.train, []
    kernel = view._kernel

    def counting(block, out, scratch):
        seen.extend(row.tobytes() for row in block)
        kernel(block, out, scratch)

    monkeypatch.setattr(view, "_kernel", counting)
    noisy = np.flatnonzero(np.isin(view.source_index, list(task.noisy_source)))
    order = np.random.default_rng(0).permutation(len(view))

    picks = np.arange(0, 70, 3)[::-1]

    def pick_then_batch():
        batch = view.subset(order[:70])
        return np.concatenate([batch.subset(picks).x, batch.x])  # a pick's rows, then the whole batch

    reads = {"x": (np.arange(len(view)), lambda: view.x),
             "batch": (np.concatenate([order[:70][picks], order[:70]]), pick_then_batch),
             "all-noise": (noisy[::-1], lambda: view.subset(noisy[::-1]).x),
             "empty": (np.empty(0, dtype=np.int64), lambda: view.subset([]).x)}
    for name, (positions, read) in reads.items():
        seen.clear()
        x = read()
        asked = positions[~np.isin(positions, noisy)]
        assert len(seen) == asked.size, name
        assert sorted(seen) == sorted(row.tobytes() for row in train.x[view.source_index[asked]] / 255.0), name
        assert x.shape == (positions.size, train.x.shape[1]) and x.tobytes() == want.x[positions].tobytes(), name
    assert noisy.size == 60


@pytest.mark.parametrize("kind", ["rotate", "permute"])
@pytest.mark.parametrize("noise_fraction", [0.0, 0.2, 0.6, 1.0])
def test_noise_row_s_is_a_normal_draw_at_offset_s_after_the_choice(kind, noise_fraction):
    # A view keeps its noise generator's state after the row choice and draws a noise row when read. Noise row s must
    # equal the standard_normal(PIXELS) draw from that state advanced by s * 2**64, as `oracles.noised` restates it,
    # whatever the read: the whole view, again, a shuffled subset, or four threads reading at once.
    builder = build_rotated_stream if kind == "rotate" else build_permuted_stream
    stream = builder(make_synthetic_corpus(240, 61), make_synthetic_corpus(60, 62), 3, 29, train_per_task=150,
                     test_per_task=40, imbalance=((0, 3, 5, 8), 0.4), noise_fraction=noise_fraction)
    for t, task in enumerate(stream.tasks):
        view, n = task.train, len(task.train)
        blank = Dataset(np.zeros((n, datastream.PIXELS)), view.y, view.source_index)
        noised, at = oracles.noised(blank, noise_fraction, derive(29, "noise", t))
        assert at.size == int(math.floor(noise_fraction * n))
        x = view.x
        assert x[at].tobytes() == noised.x[at].tobytes()
        assert set(view.source_index[at].tolist()) == task.noisy_source
        assert view.x.tobytes() == x.tobytes()
        pick = np.random.default_rng(t).permutation(n)[: n // 2]
        assert view.subset(pick).x.tobytes() == x[pick].tobytes()
        reads, barrier = [], threading.Barrier(4)

        def read(rows):
            barrier.wait(timeout=30)
            for _ in range(3):
                reads.append((rows, view.subset(rows).x.tobytes()))  # list.append is atomic

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=read, args=(rows,)) for rows in (pick, pick[::-1], at, at[::-1])]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers) and len(reads) == 12
        assert all(got == x[rows].tobytes() for rows, got in reads)


class _NoNormals(np.random.Generator):
    """A generator that fails the test on any standard_normal draw."""

    def standard_normal(self, *args, **kwargs):
        pytest.fail("a stream build drew normals")


@pytest.mark.parametrize("noise_fraction", [0.0, 0.2, 0.6, 1.0])
def test_building_a_noisy_stream_draws_no_noise_pixels(monkeypatch, noise_fraction):
    # A build keeps, per task, one state: its noise generator's state after the row choice. It draws no normal and
    # reads no noise row, at any noise fraction; only a read of the view draws its noise rows.
    train, test = make_synthetic_corpus(240, 71), make_synthetic_corpus(60, 72)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _NoNormals(np.random.PCG64(seed)))
    monkeypatch.setattr(datastream._Noise, "pixels", lambda *args: pytest.fail("a stream build read noise rows"))
    for builder in (build_rotated_stream, build_permuted_stream):
        stream = builder(train, test, 3, 37, train_per_task=150, test_per_task=40, imbalance=((2, 7), 0.5),
                         noise_fraction=noise_fraction)
        for t, task in enumerate(stream.tasks):
            rng = np.random.Generator(np.random.PCG64(derive(37, "noise", t)))
            rng.choice(len(task.train), size=len(task.noisy_source), replace=False)
            assert len(task.noisy_source) == int(math.floor(noise_fraction * len(task.train)))
            assert [field.name for field in dataclasses.fields(task.train._noise)] == ["state"]
            assert task.train._noise.state == rng.bit_generator.state
            assert task.test._noise is None


# ---------------------------------------------------------------------------
# memory: a build holds its output and a few blocks


ROW_BYTES = datastream.PIXELS * 8
SLACK = 4 * BLOCK * ROW_BYTES  # the reused block buffers, with room for the index arrays and task records


def traced_peak(build):
    """What build() returns, and the most bytes it had allocated at once, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dataset_bytes(*datasets):
    """The bytes the datasets hold in arrays; a view's pixels, built on demand, are not counted."""
    def arrays(ds):
        if isinstance(ds, TaskView):
            return ds.y, ds.source_index, ds._rows, ds._noise_slot
        return ds.x, ds.y, ds.source_index

    return sum(a.nbytes for ds in datasets for a in arrays(ds))


def stream_bytes(stream):
    return dataset_bytes(*(ds for task in stream.tasks for ds in (task.train, task.test)))


def test_builds_allocate_their_output_and_a_few_blocks():
    train = make_synthetic_corpus(1800, 41)  # also fills the cached pattern tables before anything is traced
    test = make_synthetic_corpus(600, 42)
    kwargs = dict(train_per_task=900, test_per_task=300)
    # Builds hold their index arrays and one generator state per noisy task, and no train, test or noise pixels.
    for builder, noise_fraction in ((build_permuted_stream, 0.0), (build_permuted_stream, 0.6),
                                    (build_rotated_stream, 0.6)):
        stream, peak = traced_peak(lambda: builder(train, test, 3, 7, noise_fraction=noise_fraction, **kwargs))
        assert all(isinstance(t.train, TaskView) for t in stream.tasks)
        assert all(len(t.noisy_source) == int(900 * noise_fraction) for t in stream.tasks)
        assert peak <= stream_bytes(stream) + SLACK
    corpus, peak = traced_peak(lambda: make_synthetic_corpus(1000, 43))
    assert peak <= dataset_bytes(corpus) + SLACK


def test_a_long_stream_holds_no_test_pixels():
    # 20 tasks of 500 test rows: eager float64 test sets would take 20 * 500 * 784 * 8 B = 62.7 MB.
    train = make_synthetic_corpus(200, 44)
    test = make_synthetic_corpus(600, 45)
    stream, peak = traced_peak(lambda: build_permuted_stream(train, test, 20, 8, train_per_task=100,
                                                             test_per_task=500))
    assert all(isinstance(t.test, TaskView) and len(t.test) == 500 for t in stream.tasks)
    assert peak <= stream_bytes(stream) + SLACK

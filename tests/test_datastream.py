import os
import struct

import numpy as np
import pytest

import oracles
from coresel import datastream
from coresel.datastream import (
    Dataset,
    apply_imbalance,
    apply_noise,
    build_permuted_stream,
    build_rotated_stream,
    load_idx,
    make_synthetic_corpus,
    permute_pixels,
    rotate_dataset,
    stream_manifest,
)
from coresel.errors import DimensionError, FormatError

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


def noised(ds, fraction, seed):
    """`ds` with the rows `apply_noise` picks replaced by its noise rows, and the picked positions."""
    positions, rows = apply_noise(len(ds), ds.x.shape[1], fraction, seed)
    x = ds.x.copy()
    x[positions] = rows
    return Dataset(x, ds.y, ds.source_index), positions


def small_dataset(n=60, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.uniform(size=(n, 784)),
        rng.integers(0, 10, size=n).astype(np.int64),
        np.arange(n, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# load_idx


def test_load_idx_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(7, 28, 28)).astype(np.uint8)
    labels = rng.integers(0, 10, size=7)
    ds = load_idx(*write_idx_pair(tmp_path, images, labels))
    assert len(ds) == 7
    assert np.array_equal(ds.y, labels)
    assert np.array_equal(ds.x, images.reshape(7, 784) / 255.0)
    assert np.array_equal(ds.source_index, np.arange(7))


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
    """One image through `rotate_dataset`, as a 1-row Dataset."""
    one = Dataset(np.asarray(pixels, dtype=np.float64).reshape(1, -1), np.zeros(1, np.int64), np.zeros(1, np.int64))
    return rotate_dataset(one, angle).x[0].reshape(pixels.shape)


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


def test_rotate_validation():
    with pytest.raises(DimensionError):
        rotate_image(np.zeros((27, 27)), 10.0)
    with pytest.raises(ValueError):
        rotate_image(np.zeros((28, 28)), 181.0)
    with pytest.raises(ValueError):
        rotate_image(np.zeros((28, 28)), -1.0)


def test_rotate_dataset_matches_per_image():
    ds = small_dataset(5)
    out = rotate_dataset(ds, 33.0)
    for i in range(5):
        assert np.array_equal(out.x[i], rotate_image(ds.x[i].reshape(28, 28), 33.0).ravel())
    assert np.array_equal(out.y, ds.y)
    assert np.array_equal(out.source_index, ds.source_index)


# ---------------------------------------------------------------------------
# permutation


def test_permute_pixels_is_seeded_bijection():
    ds = small_dataset(4)
    a = permute_pixels(ds, 9)
    b = permute_pixels(ds, 9)
    c = permute_pixels(ds, 10)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)
    assert np.array_equal(np.sort(a.x, axis=1), np.sort(ds.x, axis=1))
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
    ds = small_dataset(30)
    out, positions = noised(ds, 0.0, 1)
    assert positions.size == 0
    assert np.array_equal(out.x, ds.x)


def test_noise_exact_count_and_label_preservation():
    ds = small_dataset(100, seed=3)
    out, positions = noised(ds, 0.6, 2)
    assert positions.shape == (60,)
    assert np.array_equal(out.y, ds.y)
    untouched = np.setdiff1d(np.arange(100), positions)
    assert np.array_equal(out.x[untouched], ds.x[untouched])
    assert not np.array_equal(out.x[positions], ds.x[positions])


def test_noise_full_replacement_is_standard_normal():
    ds = small_dataset(50, seed=4)
    out, positions = noised(ds, 1.0, 3)
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
    assert a.x.shape == (500, 784)
    assert a.x.min() >= 0.0 and a.x.max() <= 1.0
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert set(np.unique(a.y)) == set(range(10))
    c = make_synthetic_corpus(500, 43)
    assert not np.array_equal(a.x, c.x)


# ---------------------------------------------------------------------------
# whole-array builds against the per-row and transform-then-drop oracles


def assert_same_dataset(got, want):
    for a, b in ((got.x, want.x), (got.y, want.y), (got.source_index, want.source_index)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


BLOCK = datastream._CORPUS_BLOCK


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 4000])
def test_synthetic_corpus_equals_per_row_oracle(n):
    assert_same_dataset(make_synthetic_corpus(n, 1000 + n), oracles.synthetic_corpus(n, 1000 + n))


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
    want = oracles.build_stream(kind, train, test, 3, 17, **kwargs)
    assert got.master_seed == want.master_seed and len(got) == len(want) == 3
    for g, w in zip(got.tasks, want.tasks):
        assert g.spec == w.spec and g.noisy_source == w.noisy_source
        assert_same_dataset(g.train, w.train)
        assert_same_dataset(g.test, w.test)
        assert g.train.x.flags.c_contiguous

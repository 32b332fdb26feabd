"""Exact reference computations that the tests compare the fused kernels against.

`per_example_gradients` materialises one flattened gradient row per example,
and `score_batch` scores candidates from such rows. The package never builds
these rows: it works from `model.Backprop.gram` and `selection.score_gram`.
`unflatten_params` turns a flat parameter vector back into a network, for
finite differences. `agem_project` is A-GEM's projection on such flat
gradients; the package projects coefficients over the rows through their
Gram matrix.

`synthetic_corpus` builds the synthetic corpus one row at a time, and
quantises each pixel value v to the uint8 level rint(255 * clip(v, 0, 1)).
`rotate_dataset` and `permute_pixels` scale a whole corpus of levels to
pixels, level / 255.0, and transform it in one pass: the rotation's four
corner gathers summed in fixed order and then clipped, and one column
gather. `noised` overwrites a share of the rows with N(0,1)
pixels, the i-th drawn after advancing the generator's post-choice state by
i * 2**64. `build_stream` applies the transform to every subsampled row of a
task before imbalance drops rows and noise overwrites them, and holds each
train and test set as a Dataset. The package builds in row blocks,
transforms only the rows a task keeps, and builds a train row only when a
batch reads it; its outputs must equal these byte for byte.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from coresel import datastream
from coresel.datastream import Dataset, Task, TaskSpec, TaskStream
from coresel.errors import DimensionError
from coresel.model import ParamSet, backprop
from coresel.seeds import derive
from coresel.selection import ScoreBreakdown, score_gram


def per_example_gradients(params: ParamSet, x, y, layers: tuple[int, ...] | None = None) -> np.ndarray:
    """(B, P) rows: the exact gradient of each example's own loss, flattened over `layers` (None: every layer)."""
    bp = backprop(params, x, y)
    b = bp.deltas[0].shape[0]
    blocks = []
    for l in range(params.n_layers) if layers is None else layers:
        blocks += [np.einsum("bo,bi->boi", bp.deltas[l], bp.acts[l]).reshape(b, -1), bp.deltas[l]]
    return np.concatenate(blocks, axis=1)


def unflatten_params(flat, layer_sizes) -> ParamSet:
    """The inverse of `model.flatten_params` for a network of `layer_sizes`."""
    flat = np.asarray(flat, dtype=np.float64)
    sizes = [int(s) for s in layer_sizes]
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in).copy())
        offset += fan_out * fan_in
        biases.append(flat[offset : offset + fan_out].copy())
        offset += fan_out
    if offset != flat.shape[0]:
        raise DimensionError(f"flat vector has {flat.shape[0]} entries, layout needs {offset}")
    return ParamSet(tuple(weights), tuple(biases))


def agem_project(g, g_ref) -> np.ndarray:
    """A-GEM on flat gradients: g - (g . g_ref / g_ref . g_ref) g_ref when g . g_ref < 0, else g."""
    dot = float(g @ g_ref)
    return g if dot >= 0.0 else g - (dot / float(g_ref @ g_ref)) * g_ref


def score_batch(grads, ref_mean_grad, tau: float) -> ScoreBreakdown:
    """`score_gram` over materialised gradient rows M, with the reference r stacked as one more row.

    The Gram matrix of [M; r] holds M M^T, the dots M r and |r|^2; `score_gram` reads r as a one-row replay batch.
    """
    rows = np.asarray(grads, dtype=np.float64)
    b = rows.shape[0]
    if ref_mean_grad is not None:
        ref = np.asarray(ref_mean_grad, dtype=np.float64)
        if rows.ndim != 2 or ref.shape != (rows.shape[1],):
            raise DimensionError(f"reference shape {ref.shape} does not match gradient rows {rows.shape}")
        rows = np.vstack([rows, ref])
    return score_gram(rows @ rows.T, b, tau)


def synthetic_corpus(n: int, seed) -> Dataset:
    """`datastream.make_synthetic_corpus`, one image at a time from the same draws."""
    rng = np.random.default_rng(derive(seed, "corpus"))
    side = datastream.IMAGE_SIDE
    glyphs = np.stack([datastream._glyph_template(d) for d in range(datastream.NUM_CLASSES)])
    canvases = np.stack([datastream._class_canvas(d) for d in range(datastream.NUM_CLASSES)])
    labels = rng.integers(0, datastream.NUM_CLASSES, size=n)
    shifts = rng.integers(-datastream._MAX_SHIFT, datastream._MAX_SHIFT + 1, size=(n, 2))
    amplitude = rng.uniform(0.4, 0.5, size=n)
    intensity = rng.uniform(0.7, 1.0, size=n)
    noise = rng.normal(0.0, datastream._NOISE_SIGMA, size=(n, side, side))
    x = np.zeros((n, side, side))
    for i in range(n):
        dr, dc = int(shifts[i, 0]), int(shifts[i, 1])
        img = 0.5 + amplitude[i] * np.roll(canvases[labels[i]], (dr, dc), axis=(0, 1))
        r, c = 2 + dr, 2 + dc
        img[r : r + 24, c : c + 24] += intensity[i] * 0.5 * glyphs[labels[i]]
        x[i] = img
    levels = np.rint(255.0 * np.clip(x + noise, 0.0, 1.0)).astype(np.uint8).reshape(n, side * side)
    return Dataset(levels, labels.astype(np.int64), np.arange(n, dtype=np.int64))


def rotate_dataset(ds: Dataset, angle: float) -> Dataset:
    """The streams' rotation (`datastream._rotator`) of a corpus's scaled levels in one whole-array pass over the
    same sampling plan."""
    idx, w = datastream._rotation_sampler(angle)
    pixels = ds.x / 255.0
    out = np.take(pixels, idx[0], axis=1) * w[0]
    for k in range(1, 4):
        out += np.take(pixels, idx[k], axis=1) * w[k]
    return Dataset(np.clip(out, 0.0, 1.0), ds.y, ds.source_index)


def permute_pixels(ds: Dataset, seed) -> Dataset:
    """The pixels of `datastream.corpus_view(ds, seed)` as one column gather of a corpus's scaled levels."""
    perm = np.random.default_rng(seed).permutation(ds.x.shape[1])
    return Dataset(np.take(ds.x / 255.0, perm, axis=1), ds.y, ds.source_index)


def _subsample(ds: Dataset, size, seed) -> Dataset:
    if size is None or size >= len(ds):
        return ds
    return ds.subset(np.random.default_rng(seed).choice(len(ds), size=int(size), replace=False))


def _imbalance(ds: Dataset, reduced_classes, keep_fraction: float, seed) -> Dataset:
    rng = np.random.default_rng(seed)
    keep = np.ones(len(ds), dtype=bool)
    for c in sorted(set(int(c) for c in reduced_classes)):
        positions = np.flatnonzero(ds.y == c)
        quota = int(math.floor(keep_fraction * positions.size))
        keep[positions] = False
        if quota > 0:
            keep[rng.choice(positions, size=quota, replace=False)] = True
    return ds.subset(rng.permutation(np.flatnonzero(keep)))


def noised(ds: Dataset, fraction: float, seed) -> tuple[Dataset, np.ndarray]:
    """`ds` with floor(fraction * n) uniformly chosen rows overwritten by N(0,1) pixels, and their sorted positions.

    The i-th chosen row is one standard_normal draw from the generator's state after the choice, advanced by i * 2**64.
    """
    rng = np.random.default_rng(seed)
    count = int(math.floor(fraction * len(ds)))
    positions = np.sort(rng.choice(len(ds), size=count, replace=False))
    after = rng.bit_generator.state
    x = ds.x.copy()
    for i, position in enumerate(positions):
        rng.bit_generator.state = after
        rng.bit_generator.advance(i * 2**64)
        x[position] = rng.standard_normal(ds.x.shape[1])
    return Dataset(x, ds.y, ds.source_index), positions


def build_stream(kind, train, test, num_tasks, master_seed, *, train_per_task=None, test_per_task=None,
                 imbalance=None, noise_fraction=0.0) -> TaskStream:
    """`datastream._build_stream`: transform each task's whole subsample, then drop rows and overwrite noisy ones."""
    tasks = []
    for t in range(num_tasks):
        if kind == "rotate":
            angle = float(np.random.default_rng(derive(master_seed, "angle", t)).uniform(0.0, 180.0))
            transform = functools.partial(rotate_dataset, angle=angle)
        else:
            angle = None
            transform = functools.partial(permute_pixels, seed=derive(master_seed, "permutation", t))
        task_train = transform(_subsample(train, train_per_task, derive(master_seed, "train_rows", t)))
        task_test = transform(_subsample(test, test_per_task, derive(master_seed, "test_rows", t)))
        noisy = frozenset()
        if imbalance is not None:
            task_train = _imbalance(task_train, *imbalance, derive(master_seed, "imbalance", t))
        if noise_fraction > 0.0:
            task_train, positions = noised(task_train, noise_fraction, derive(master_seed, "noise", t))
            noisy = frozenset(int(s) for s in task_train.source_index[positions])
        tasks.append(Task(TaskSpec(kind, angle, imbalance, noise_fraction), task_train, task_test, noisy))
    return TaskStream(tuple(tasks), int(master_seed))

"""MNIST-format ingestion and deterministic task-stream synthesis.

A Dataset is a bundle of flattened 28x28 images (rows of 784 pixels), labels,
and each example's index in the originating corpus: a corpus and the staging
pool are Datasets. A corpus keeps its pixels as uint8 levels, one byte each,
as the IDX files store them; a pixel a task reads is level / 255.0 in
float64, scaled by _transform_rows alone. One per-task loop builds both stream
kinds: every task subsamples the corpus, applies its
kind's transform (rotation or pixel permutation), then optional class
imbalance and label-preserving noise, with every random draw seeded by
`seeds.derive(master_seed, purpose, task index)`, so rebuilding a stream
reproduces it bit-for-bit. The row draws read only labels, so a task
transforms just the clean rows it keeps.

Every task's train and test set is a TaskView: the corpus pixels, the
task's corpus rows, its transform and, for a noisy train set, its noise
generator's state after the row choice, from which noise row s is drawn at an
offset of s * 2**64 outputs. A view's `x` builds its rows on each read,
transforming clean rows and drawing noise rows, and keeps none of them. A
training step's candidates are a subset of the train set, itself a view, so a
step builds only the rows it reads; an evaluation reads the whole test set's
`x`. No task holds pixels: not its own copy of the corpus rows, and not its
noise rows, and building a stream draws none of them. The gradient diagnostic
reads a whole corpus as one view (`corpus_view`), a chunk or batch at a time.

Every pixel pass works on blocks of _BLOCK_ROWS rows that stay in cache: the
synthetic corpus draws, patterns, clips and quantises a block at a time, and
_transform_rows gathers a block of corpus levels, scales it into a reused
float64 buffer and transforms it into the block's rows of its output, with a
reused scratch block for the kernel, so no whole-task temporary is made.
_transform_rows only scales and transforms: a TaskView gives it just the
clean rows of a read and draws the noise rows itself.
"""

from __future__ import annotations

import copy
import functools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyInputError, FormatError
from .seeds import derive

IMAGE_SIDE = 28
PIXELS = IMAGE_SIDE * IMAGE_SIDE
NUM_CLASSES = 10
# Rows per block of every pixel pass: a pass's block arrays (about 400 KB each) stay in cache between its steps.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class Dataset:
    """Immutable-by-convention bundle of examples: a corpus or the staging pool.

    A corpus holds uint8 levels, as `load_idx` and `make_synthetic_corpus`
    make it, and the stream builders refuse any other; the staging pool holds
    float64 pixels that a view built.

    source_index traces every row back to its position in the base corpus the
    stream was built from; transforms preserve it so stored coreset entries
    stay identifiable. A task's train and test sets and a step's candidates
    are TaskViews, which read like a Dataset: len, y, source_index, x and
    subset.
    """

    x: np.ndarray  # (n, 784) uint8 levels in a corpus, float64 pixels in the staging pool
    y: np.ndarray  # (n,) int64
    source_index: np.ndarray  # (n,) int64

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[0],) or self.source_index.shape != self.y.shape:
            raise DimensionError(
                f"inconsistent dataset shapes x={self.x.shape} y={self.y.shape} src={self.source_index.shape}"
            )

    def __len__(self) -> int:
        return self.x.shape[0]

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(self.x[indices], self.y[indices], self.source_index[indices])


class TaskView:
    """A task's train or test set, or a whole corpus (`corpus_view`), as a view: rows are built when asked for.

    It holds the corpus pixels, the view's corpus rows, its transform kernel
    (rotation, permutation or a plain copy) and, for a noisy train set, a `_Noise`:
    one generator state for all its noise rows, and no noise pixels. `x`
    builds every row anew on each read, the rows an eager build would hold,
    and `subset(indices)` returns a view of those rows and builds nothing.
    Making a view marks the corpus pixels read-only, so that a later write to
    the corpus raises instead of changing every task built from it.
    """

    def __init__(self, corpus: Dataset, rows: np.ndarray, kernel, noisy_at: np.ndarray, noise: _Noise | None):
        corpus.x.flags.writeable = False
        self._pixels = corpus.x
        self._rows = rows
        self._kernel = kernel
        self._noise = noise  # draws the noise row of each position in noisy_at, in order; None if there is none
        self._noise_slot = np.full(rows.size, -1, dtype=np.int64)  # per task row, its noise row, or -1 if clean
        self._noise_slot[noisy_at] = np.arange(noisy_at.size)
        self.y = corpus.y[rows]
        self.source_index = corpus.source_index[rows]

    def __len__(self) -> int:
        return self._rows.size

    @property
    def x(self) -> np.ndarray:
        """Every row's pixels, built anew on each read: clean rows transformed, noise rows drawn."""
        clean = self._noise_slot < 0
        rows = self._rows[clean]  # only clean rows reach the kernel
        clean_x = _transform_rows(self._kernel, self._pixels, rows, np.empty((rows.size, PIXELS)))
        if rows.size == len(self):  # every row clean: transformed straight into the result
            return clean_x
        x = np.empty((len(self), PIXELS))
        x[clean] = clean_x
        x[~clean] = self._noise.pixels(self._noise_slot[~clean])
        return x

    def subset(self, indices) -> TaskView:
        """The rows at `indices`, in that order, as a view of the same corpus: no pixel is built."""
        indices = np.asarray(indices, dtype=np.int64)
        view = copy.copy(self)
        view._rows, view._noise_slot = self._rows[indices], self._noise_slot[indices]
        view.y, view.source_index = self.y[indices], self.source_index[indices]
        return view


@dataclass(frozen=True)
class TaskSpec:
    kind: str  # "rotate" | "permute"
    angle: float | None = None  # rotate only; the manifest names a permute task's permutation by task index
    imbalance: tuple[tuple[int, ...], float] | None = None  # (reduced classes, keep fraction)
    noise_fraction: float = 0.0


@dataclass(frozen=True)
class Task:
    """One task: its train and test sets, each a view of its corpus."""

    spec: TaskSpec
    train: TaskView
    test: TaskView
    noisy_source: frozenset  # source indices whose pixels were replaced by noise


@dataclass(frozen=True)
class TaskStream:
    tasks: tuple[Task, ...]
    master_seed: int

    def __len__(self) -> int:
        return len(self.tasks)


# ---------------------------------------------------------------------------
# IDX ingestion


def _read_exact(fh, n: int, path: str, what: str) -> bytes:
    start = fh.tell()
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"{path}: truncated {what} at offset {start} (needed {n} bytes, got {len(data)})")
    return data


def _read_payload(fh, n: int, path: str, what: str) -> bytes:
    """The rest of the file, checked against the `n` bytes its header declares before anything is read."""
    start = fh.tell()
    present = os.fstat(fh.fileno()).st_size - start
    if present != n:
        raise FormatError(f"{path}: {what} at offset {start}: the header declares {n} bytes, {present} are present")
    return _read_exact(fh, n, path, what)


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Read big-endian IDX image/label files into a corpus, keeping the image bytes as its uint8 levels.

    Header fields are unsigned 32-bit integers, as the IDX format defines them.
    """
    with open(images_path, "rb") as fh:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path, "image header"))
        if magic != 0x00000803:
            raise FormatError(f"{images_path}: bad image magic 0x{magic:08x} at offset 0")
        if (rows, cols) != (IMAGE_SIDE, IMAGE_SIDE):
            raise FormatError(f"{images_path}: images are {rows}x{cols}, expected {IMAGE_SIDE}x{IMAGE_SIDE}")
        if count == 0:  # a corpus no task could train or be evaluated on
            raise FormatError(f"{images_path}: no images")
        pixels = _read_payload(fh, count * rows * cols, images_path, "image data")
    with open(labels_path, "rb") as fh:
        magic, label_count = struct.unpack(">II", _read_exact(fh, 8, labels_path, "label header"))
        if magic != 0x00000801:
            raise FormatError(f"{labels_path}: bad label magic 0x{magic:08x} at offset 0")
        labels = _read_payload(fh, label_count, labels_path, "label data")
    if label_count != count:
        raise FormatError(f"{labels_path}: {label_count} labels for {count} images (counts must match)")
    y = np.frombuffer(labels, dtype=np.uint8).astype(np.int64)
    bad = np.flatnonzero(y >= NUM_CLASSES)
    if bad.size:
        raise FormatError(f"{labels_path}: label {y[bad[0]]} at offset {8 + bad[0]} lies outside 0..{NUM_CLASSES - 1}")
    x = np.frombuffer(pixels, dtype=np.uint8).reshape(count, rows * cols)  # the bytes read, not a copy
    return Dataset(x, y, np.arange(count, dtype=np.int64))


# ---------------------------------------------------------------------------
# Per-image transforms


def _rotation_sampler(angle: float):
    """Bilinear inverse-map gather plan: per neighbor corner (4 rows), an index and a weight per output pixel.

    Rotation is about the integer pixel (side//2, side//2), so that pixel is a
    fixed point for every angle and 180 degrees maps the interior exactly onto
    the pixel lattice.
    """
    side = IMAGE_SIDE
    center = side // 2
    r, c = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    dr = (r - center).ravel()
    dc = (c - center).ravel()
    theta = math.radians(angle)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    # Inverse rotation of the output offset gives the source sample point.
    src_r = center + cos_t * dr + sin_t * dc
    src_c = center - sin_t * dr + cos_t * dc
    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    fr = src_r - r0
    fc = src_c - c0
    # Corner-major, so that each corner's indices and weights are contiguous rows for take() and the multiply.
    indices = np.zeros((4, side * side), dtype=np.int64)
    weights = np.zeros((4, side * side), dtype=np.float64)
    corners = ((r0, c0, (1 - fr) * (1 - fc)), (r0, c0 + 1, (1 - fr) * fc),
               (r0 + 1, c0, fr * (1 - fc)), (r0 + 1, c0 + 1, fr * fc))
    for k, (rr, cc, w) in enumerate(corners):
        valid = (rr >= 0) & (rr < side) & (cc >= 0) & (cc < side)
        indices[k] = np.where(valid, rr * side + cc, 0)
        weights[k] = np.where(valid, w, 0.0)
    return indices, weights


def _rotator(angle: float):
    """The rotation kernel for `_transform_rows`: 28x28 images in [0,1] about the center pixel, bilinear, zero fill."""
    idx, w = _rotation_sampler(angle)

    def rotate(block: np.ndarray, out: np.ndarray, part: np.ndarray) -> None:
        # A fixed-order sum over the four corners: a row's pixels do not depend on the block it is in.
        # Indices lie in 0..783, so mode="clip" changes nothing but lets take() write into `out` unbuffered.
        np.take(block, idx[0], axis=1, out=out, mode="clip")
        out *= w[0]
        for k in range(1, 4):
            np.take(block, idx[k], axis=1, out=part, mode="clip")
            part *= w[k]
            out += part
        np.clip(out, 0.0, 1.0, out=out)

    return rotate


def _permuter(seed):
    """The permutation kernel for `_transform_rows`: one fixed random permutation of PIXELS pixels drawn from `seed`."""
    perm = np.random.default_rng(seed).permutation(PIXELS)
    return lambda block, out, scratch: np.take(block, perm, axis=1, out=out, mode="clip")


def _blocks(n: int):
    """Slices that cover range(n) in blocks of _BLOCK_ROWS rows."""
    return (slice(start, min(start + _BLOCK_ROWS, n)) for start in range(0, n, _BLOCK_ROWS))


def _transform_rows(kernel, levels: np.ndarray, rows: np.ndarray, dest: np.ndarray) -> np.ndarray:
    """Write row rows[i] of the uint8 `levels`, scaled and transformed, into row i of dest, and return dest.

    One block at a time: the block's rows of levels are gathered into a
    reused uint8 buffer and scaled into a reused float64 one, each pixel
    level / 255.0, the package's one scaling rule; then `kernel(block, out,
    scratch)` writes the transformed block into `out`, the block's rows of
    dest, using `scratch`, a reused block of the same shape, as it likes. The
    buffers belong to this call, so a kernel is safe to call from two threads
    at once: a task's train and test views share it, and the trainer and the
    evaluator thread read them.
    """
    shape = (min(rows.size, _BLOCK_ROWS), levels.shape[1])
    gathered, (pixels, scratch) = np.empty(shape, dtype=np.uint8), np.empty((2, *shape))
    for blk in _blocks(rows.size):
        n = blk.stop - blk.start
        # Rows are drawn positions of levels, so mode="clip" changes nothing but lets take() fill `gathered` unbuffered.
        np.take(levels, rows[blk], axis=0, out=gathered[:n], mode="clip")
        block = np.divide(gathered[:n], 255.0, out=pixels[:n])
        kernel(block, dest[blk], scratch[:n])
    return dest


def corpus_view(corpus: Dataset, permutation_seed=None) -> TaskView:
    """Every row of a corpus of uint8 levels as a view, plain or under the permutation `permutation_seed` draws."""
    if corpus.x.dtype != np.uint8:
        raise FormatError(f"a corpus view reads uint8 pixel levels, but the corpus holds {corpus.x.dtype}")
    plain = lambda block, out, scratch: np.copyto(out, block)
    kernel = plain if permutation_seed is None else _permuter(permutation_seed)
    return TaskView(corpus, np.arange(len(corpus)), kernel, np.empty(0, dtype=np.int64), None)


# ---------------------------------------------------------------------------
# Row draws: which corpus rows a task keeps, decided from labels before any pixel is touched


def apply_imbalance(labels, reduced_classes, keep_fraction: float, seed) -> np.ndarray:
    """Positions into `labels` that survive: floor(keep_fraction * count) uniformly chosen rows of each reduced class.

    Rows of other classes all survive; the surviving order is reshuffled
    deterministically from `seed`.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must lie in (0, 1], got {keep_fraction}")
    labels = np.asarray(labels)
    reduced = sorted(set(int(c) for c in reduced_classes))
    rng = np.random.default_rng(seed)
    keep = np.ones(labels.size, dtype=bool)
    for c in reduced:
        positions = np.flatnonzero(labels == c)
        quota = int(math.floor(keep_fraction * positions.size))
        keep[positions] = False
        if quota > 0:
            keep[rng.choice(positions, size=quota, replace=False)] = True
    return rng.permutation(np.flatnonzero(keep))


@dataclass(frozen=True)
class _Noise:
    """A noisy train set's noise rows, kept as one PCG64 state: the task's noise generator right after the row choice.

    Noise row s is the standard_normal(PIXELS) draw that starts from `state` advanced by s * 2**64 outputs. A row's
    draw takes about one output per pixel, far below 2**64, so no two rows overlap. Every read draws on a generator
    local to it, so two threads may read one view at once.
    """

    state: dict  # the PCG64 state dict after the row choice

    def pixels(self, slots: np.ndarray) -> np.ndarray:
        """The noise rows `slots`, in order: for each, one state set, one advance and one draw."""
        out = np.empty((slots.size, PIXELS))
        bitgen = np.random.PCG64(0)
        draw = np.random.Generator(bitgen).standard_normal
        for row, slot in zip(out, slots.tolist()):
            bitgen.state = self.state
            bitgen.advance(slot << 64)
            draw(out=row)
        return out


def _noise_rows(n: int, fraction: float, seed) -> tuple[np.ndarray, _Noise]:
    """floor(fraction * n) of n rows, uniformly chosen and sorted, and the `_Noise` of the N(0,1) rows replacing theirs.

    Each noise row is drawn from the generator's state after the choice at the row's own offset, so none is drawn here.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"noise fraction must lie in [0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    at = np.sort(rng.choice(n, size=int(math.floor(fraction * n)), replace=False))
    return at, _Noise(rng.bit_generator.state)


# ---------------------------------------------------------------------------
# Stream builders


def _subsample(n: int, size, seed) -> np.ndarray:
    if size is None or size >= n:
        return np.arange(n)
    return np.random.default_rng(seed).choice(n, size=int(size), replace=False)


def draw_reduced_classes(master_seed: int, num_reduced: int = 8) -> tuple[int, ...]:
    rng = np.random.default_rng(derive(master_seed, "reduced_classes"))
    return tuple(sorted(int(c) for c in rng.choice(NUM_CLASSES, size=num_reduced, replace=False)))


def _build_stream(
    kind: str,
    train: Dataset,
    test: Dataset,
    num_tasks: int,
    master_seed: int,
    *,
    train_per_task=None,
    test_per_task=None,
    imbalance: tuple[tuple[int, ...], float] | None = None,
    noise_fraction: float = 0.0,
) -> TaskStream:
    """Tasks are the base corpus under one per-task transform, then imbalance and noise on the train side.

    The transform is a rotation by a uniform angle from [0, 180] for kind
    "rotate" and a fixed pixel permutation for "permute". Test sets stay
    balanced and clean so accuracies measure true generalization. A task's
    train rows (subsample, imbalance survivors, noise positions) are drawn
    from labels first, and only the clean rows it keeps are transformed: the
    transforms act on each row alone, so this equals transforming the whole
    subsample and then dropping and replacing rows. A task's train set is a
    TaskView that does this per batch and keeps its noise rows as one generator
    state, drawing a noise row's pixels when a read asks for it; its test set
    is a TaskView of the test corpus's drawn rows, with no noise rows, so a
    stream holds no pixels. A task left with no train rows is an
    EmptyInputError: no strategy could train on it; so is one with no test
    rows, which no evaluation could score. Here, before any task is drawn, is
    the check of both corpora: each must hold PIXELS-pixel rows, as the whole
    package assumes, of uint8 levels, which a view scales to pixels.
    """
    if num_tasks < 1:
        raise EmptyInputError("a stream needs at least one task")
    if (train.x.shape[1], test.x.shape[1]) != (PIXELS, PIXELS):
        raise DimensionError(f"a stream needs {PIXELS}-pixel rows: the train corpus has {train.x.shape[1]}, "
                             f"the test corpus {test.x.shape[1]}")
    if (train.x.dtype, test.x.dtype) != (np.uint8, np.uint8):
        raise FormatError(f"a stream needs corpora of uint8 pixel levels: the train corpus holds {train.x.dtype}, "
                          f"the test corpus {test.x.dtype}")
    tasks = []
    for t in range(num_tasks):
        if kind == "rotate":
            angle = float(np.random.default_rng(derive(master_seed, "angle", t)).uniform(0.0, 180.0))
            kernel = _rotator(angle)
        else:
            angle, kernel = None, _permuter(derive(master_seed, "permutation", t))
        rows = drawn = _subsample(len(train), train_per_task, derive(master_seed, "train_rows", t))
        if imbalance is not None:
            rows = rows[apply_imbalance(train.y[rows], *imbalance, derive(master_seed, "imbalance", t))]
        if rows.size == 0:  # a drawn row is lost only to class imbalance
            lost = ", 0 after class imbalance" if drawn.size else f" of {len(train)}"
            raise EmptyInputError(f"task {t} has no training rows: {drawn.size} drawn{lost}")
        noisy_at, noise = _noise_rows(rows.size, noise_fraction, derive(master_seed, "noise", t))
        task_train = TaskView(train, rows, kernel, noisy_at, noise)
        noisy_source = frozenset(int(s) for s in train.source_index[rows[noisy_at]])
        test_rows = _subsample(len(test), test_per_task, derive(master_seed, "test_rows", t))
        if test_rows.size == 0:
            raise EmptyInputError(f"task {t} has no test rows: {len(test)} in the test corpus")
        task_test = TaskView(test, test_rows, kernel, np.empty(0, dtype=np.int64), None)
        tasks.append(Task(TaskSpec(kind, angle, imbalance, noise_fraction), task_train, task_test, noisy_source))
    return TaskStream(tuple(tasks), int(master_seed))


# The two public stream kinds, with _build_stream's arguments after `kind`.
build_rotated_stream = functools.partial(_build_stream, "rotate")
build_permuted_stream = functools.partial(_build_stream, "permute")


def stream_manifest(stream: TaskStream) -> str:
    """One line per task: kind, angle or permutation seed, imbalance, noise."""
    lines = [f"master_seed = {stream.master_seed}"]
    for t, task in enumerate(stream.tasks):
        spec = task.spec
        detail = f"angle={spec.angle:.6f}" if spec.kind == "rotate" else f"permute_seed={t}"
        if spec.imbalance is not None:
            reduced, keep = spec.imbalance
            imb = "classes:" + "|".join(str(c) for c in reduced) + f";keep:{keep:g}"
        else:
            imb = "none"
        noise = f"{spec.noise_fraction:g}" if spec.noise_fraction > 0 else "none"
        lines.append(
            f"task={t} kind={spec.kind} {detail} imbalance={imb} noise={noise} "
            f"train={len(task.train)} test={len(task.test)}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Synthetic corpus (28x28 digit glyphs on class canvases) for environments
# without MNIST files

_GLYPHS = {
    0: ("..####..", ".#....#.", "#......#", "#......#", "#......#", "#......#", ".#....#.", "..####.."),
    1: ("...#....", "..##....", ".#.#....", "...#....", "...#....", "...#....", "...#....", ".######."),
    2: ("..####..", ".#....#.", "......#.", ".....#..", "....#...", "..##....", ".#......", ".######."),
    3: ("..####..", ".#....#.", "......#.", "...###..", "......#.", "......#.", ".#....#.", "..####.."),
    4: ("....##..", "...#.#..", "..#..#..", ".#...#..", "#....#..", "########", ".....#..", ".....#.."),
    5: (".######.", ".#......", ".#......", ".#####..", "......#.", "......#.", ".#....#.", "..####.."),
    6: ("..####..", ".#....#.", ".#......", ".#####..", ".#....#.", ".#....#.", ".#....#.", "..####.."),
    7: (".######.", "......#.", ".....#..", "....#...", "...#....", "...#....", "...#....", "...#...."),
    8: ("..####..", ".#....#.", ".#....#.", "..####..", ".#....#.", ".#....#.", ".#....#.", "..####.."),
    9: ("..####..", ".#....#.", ".#....#.", "..#####.", "......#.", "......#.", ".#....#.", "..####.."),
}


def _box_blur(img: np.ndarray) -> np.ndarray:
    padded = np.pad(img, 1)
    out = np.zeros_like(img)
    for dr in (0, 1, 2):
        for dc in (0, 1, 2):
            out += padded[dr : dr + img.shape[0], dc : dc + img.shape[1]]
    return out / 9.0


def _glyph_template(digit: int) -> np.ndarray:
    rows = _GLYPHS[digit]
    bitmap = np.array([[1.0 if ch == "#" else 0.0 for ch in row] for row in rows])
    # Thick soft strokes: same-class images must stay strongly correlated
    # under small jitter, as handwritten digits are.
    smooth = _box_blur(_box_blur(np.kron(bitmap, np.ones((3, 3)))))
    return smooth / smooth.max()  # 24x24


# Class canvases are fixed across corpora (shared by train and test splits):
# they are part of the class definition, not of any particular sample draw.
_CANVAS_SEED = 0x5EED


def _class_canvas(digit: int) -> np.ndarray:
    rng = np.random.default_rng(derive(_CANVAS_SEED, "canvas", digit))
    field = _box_blur(_box_blur(rng.standard_normal((IMAGE_SIDE, IMAGE_SIDE))))
    field /= field.std()
    # Low-frequency and high-contrast: smooth enough to survive bilinear
    # rotation, strong enough that image energy spans the whole canvas rather
    # than a few stroke pixels.
    return np.clip(1.6 * field, -1.0, 1.0)


# The synthetic corpus's per-pixel Gaussian noise sigma and largest glyph/canvas shift in pixels.
_NOISE_SIGMA = 0.04
_MAX_SHIFT = 1


@functools.lru_cache(maxsize=1)
def _pattern_tables() -> tuple[np.ndarray, np.ndarray]:
    """Canvas and glyph rows indexed by (digit, dr + _MAX_SHIFT, dc + _MAX_SHIFT).

    Each is a row of PIXELS values: the class canvas rolled by the shift
    (dr, dc), and the glyph drawn at that shift on a zero background.
    """
    span = 2 * _MAX_SHIFT + 1
    canvases = np.empty((NUM_CLASSES, span, span, IMAGE_SIDE, IMAGE_SIDE))
    glyphs = np.zeros_like(canvases)
    for d in range(NUM_CLASSES):
        canvas, glyph = _class_canvas(d), _glyph_template(d)
        for dr in range(-_MAX_SHIFT, _MAX_SHIFT + 1):
            for dc in range(-_MAX_SHIFT, _MAX_SHIFT + 1):
                canvases[d, dr + _MAX_SHIFT, dc + _MAX_SHIFT] = np.roll(canvas, (dr, dc), axis=(0, 1))
                glyphs[d, dr + _MAX_SHIFT, dc + _MAX_SHIFT, 2 + dr : 26 + dr, 2 + dc : 26 + dc] = glyph
    canvases.flags.writeable = glyphs.flags.writeable = False  # one copy serves every corpus of the process
    return canvases.reshape(*canvases.shape[:3], PIXELS), glyphs.reshape(*glyphs.shape[:3], PIXELS)


def make_synthetic_corpus(n: int, seed) -> Dataset:
    """Deterministic corpus: digit glyphs over per-class textured canvases.

    A stand-in with MNIST's shape, label alphabet and pixel alphabet for
    environments where the real IDX files are absent. Every image is mid-gray
    plus its class canvas at a per-example amplitude, with the class glyph
    drawn on top. Class evidence fills the image (per-image norms far from
    zero) while same-class images still vary in position, contrast, and pixel
    noise. Each pixel value v is kept as the uint8 level rint(255 * clip(v, 0, 1)).
    """
    rng = np.random.default_rng(derive(seed, "corpus"))
    labels = rng.integers(0, NUM_CLASSES, size=n)
    shifts = rng.integers(-_MAX_SHIFT, _MAX_SHIFT + 1, size=(n, 2))
    amplitude = rng.uniform(0.4, 0.5, size=n)
    glyph_scale = rng.uniform(0.7, 1.0, size=n) * 0.5
    canvases, glyphs = _pattern_tables()
    shift_r, shift_c = (shifts + _MAX_SHIFT).T
    x = np.empty((n, PIXELS), dtype=np.uint8)
    for block in _blocks(n):
        key = (labels[block], shift_r[block], shift_c[block])
        # A per-image build's order, which fixes every byte: (0.5 + amplitude * canvas) + glyph_scale * glyph, then
        # + noise; adding a glyph row's zeros off the glyph changes nothing. The blocks' noise draws follow one
        # another from the same generator, so together they equal one whole-corpus draw.
        img = canvases[key]
        img *= amplitude[block, None]
        img += 0.5
        glyph = glyphs[key]
        glyph *= glyph_scale[block, None]
        img += glyph
        img += rng.normal(0.0, _NOISE_SIGMA, size=img.shape)
        np.clip(img, 0.0, 1.0, out=img)
        img *= 255.0
        np.rint(img, out=x[block], casting="unsafe")  # a whole number in 0..255, so the cast to uint8 is exact
    return Dataset(x, labels.astype(np.int64), np.arange(n, dtype=np.int64))

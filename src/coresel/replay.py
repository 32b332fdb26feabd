"""Bounded replay storage across tasks: a per-task coreset and a reservoir.

During a task, selected candidates pile up in an unbounded staging pool of
array chunks (`Dataset`s). At the task boundary the pool is committed: the
per-task quota becomes floor(J / tasks_seen), earlier tasks are uniformly
down-sampled to the new quota, and the staged pool is reduced to the quota
following a caller-supplied preference order (best candidate first). A commit
keeps each source's best-ranked copy, then cuts the ranking with
`selection.take_ranked`, per class for the gradient-scored strategy. The
caller owns scoring and `selection` owns the cut; this module owns bounds,
dedup, and deterministic sampling. Only a row that a commit keeps
becomes a `StoredExample`, with its own copy of the pixels.

The reservoir baseline runs Algorithm R (Vitter 1985) on one per-run generator in
stream order, so what it keeps does not depend on how the rows are batched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datastream import NUM_CLASSES, PIXELS, Dataset
from .errors import ContractError, DimensionError, EmptyInputError
from .ioutil import atomic_write_text
from .selection import take_ranked

_TAG_DOWNSAMPLE = 1


@dataclass(frozen=True)
class StoredExample:
    task_id: int
    x: np.ndarray  # (PIXELS,) pixels, copied at staging time and never mutated
    y: int
    source_index: int


@dataclass(frozen=True)
class CommitRecord:
    task_id: int
    tasks_seen: int
    quota: int
    stored_new: int
    per_task_counts: tuple
    total: int


def format_sig(value: float) -> str:
    """6-significant-digit, locale-free number formatting for CSV artifacts."""
    return format(float(value), ".6g")


def sample_items(items, batch_size: int, seed) -> list:
    """Uniform batch from a list: without replacement, or with it when short."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not items:
        raise EmptyInputError("cannot sample from an empty buffer")
    rng = np.random.default_rng(seed)
    replace = len(items) < batch_size
    picks = rng.choice(len(items), size=batch_size, replace=replace)
    return [items[int(i)] for i in picks]


class Coreset:
    """Replay store bounded by `capacity` examples across all tasks."""

    def __init__(self, capacity: int, seed: int):
        if capacity < 0:
            raise ValueError(f"capacity must be nonnegative, got {capacity}")
        self.capacity = int(capacity)
        self.num_classes = NUM_CLASSES  # the classes take_ranked spreads a balanced quota over
        self._seed = int(seed)
        self._stored: dict[int, list[StoredExample]] = {}  # filled only by commit_task, so keys are in commit order
        self._staged: dict[int, list[Dataset]] = {}  # per task, its staged chunks in staging order

    # -- staging ------------------------------------------------------------

    def stage_candidates(self, task_id: int, x, y, source_index) -> None:
        """Append copies of selected examples to the task's staging pool (dedup happens at commit)."""
        chunk = Dataset(np.array(x, dtype=np.float64), np.array(y, dtype=np.int64), np.array(source_index, np.int64))
        self._staged.setdefault(int(task_id), []).append(chunk)

    def staged_pool(self, task_id: int) -> Dataset:
        """The staging pool in staging order, concatenated once and kept as the task's one chunk."""
        chunks = self._staged.get(int(task_id), [])
        if not chunks:
            raise EmptyInputError(f"no staged candidates for task {task_id}")
        if len(chunks) > 1:
            x, y, src = (np.concatenate([getattr(c, f) for c in chunks]) for f in ("x", "y", "source_index"))
            chunks[:] = [Dataset(x, y, src)]
        return chunks[0]

    # -- committing ---------------------------------------------------------

    def commit_task(self, task_id: int, ranking, class_balanced: bool = True) -> CommitRecord:
        """Bound the staged pool by the new quota and rebalance earlier tasks.

        `ranking` lists staging-pool positions best-first (a full preference
        order). Duplicate source examples keep only their best-ranked copy.
        """
        task_id = int(task_id)
        if task_id in self._stored:
            raise ValueError(f"task {task_id} was already committed")
        pool = self.staged_pool(task_id)
        ranking = np.asarray(ranking, dtype=np.int64)
        if sorted(int(i) for i in ranking) != list(range(len(pool))):
            raise DimensionError("ranking must be a permutation of the staging pool positions")

        tasks_seen = len(self._stored) + 1
        quota = self.next_quota

        # Uniformly down-sample every earlier task to the new quota.
        for old_task, kept in self._stored.items():
            if len(kept) > quota:
                rng = np.random.default_rng(
                    np.random.SeedSequence([self._seed, _TAG_DOWNSAMPLE, tasks_seen, old_task])
                )
                positions = np.sort(rng.choice(len(kept), size=quota, replace=False))
                self._stored[old_task] = [kept[int(i)] for i in positions]

        _, first = np.unique(pool.source_index[ranking], return_index=True)  # each source's best-ranked copy
        chosen = take_ranked(ranking[np.sort(first)], quota, pool.y if class_balanced else None)
        self._stored[task_id] = [
            StoredExample(task_id, pool.x[i].copy(), int(pool.y[i]), int(pool.source_index[i])) for i in chosen
        ]
        del self._staged[task_id]

        record = CommitRecord(
            task_id=task_id,
            tasks_seen=tasks_seen,
            quota=quota,
            stored_new=len(chosen),
            per_task_counts=tuple(len(kept) for kept in self._stored.values()),
            total=self.total_stored,
        )
        if record.total > self.capacity:
            raise ContractError(
                f"commit of task {task_id} left {record.total} examples, over capacity {self.capacity} "
                f"(per-task counts {record.per_task_counts})"
            )
        return record

    # -- reading ------------------------------------------------------------

    @property
    def total_stored(self) -> int:
        return sum(len(v) for v in self._stored.values())

    @property
    def next_quota(self) -> int:
        """Per-task quota after the next commit: floor(capacity / (committed tasks + 1))."""
        return self.capacity // (len(self._stored) + 1)

    def stored(self, task_id: int) -> tuple[StoredExample, ...]:
        return tuple(self._stored.get(int(task_id), ()))

    def all_examples(self) -> list[StoredExample]:
        """Every stored example in (commit order, insertion order)."""
        return [e for kept in self._stored.values() for e in kept]


class ReservoirState:
    """Algorithm R over the stream: `items` holds min(capacity, seen) rows, `seen` counts every row offered."""

    def __init__(self, capacity: int, seed):
        if capacity < 0:
            raise ValueError(f"capacity must be nonnegative, got {capacity}")
        self.capacity = int(capacity)
        self.items: list[StoredExample] = []
        self.seen = 0
        self._rng = np.random.default_rng(seed)

    def offer(self, task_id: int, x, y, source_index) -> None:
        """Offer rows in stream order; only the rows that enter are copied.

        Stream row i (1-based) takes the next free slot while the reservoir fills;
        past the fill it draws j in [0, i) and replaces slot j if j < capacity.
        """
        n = len(y)
        fill = min(self.capacity - len(self.items), n)
        slots = np.concatenate([
            np.arange(len(self.items), len(self.items) + fill),
            self._rng.integers(0, np.arange(self.seen + fill + 1, self.seen + n + 1)),
        ])
        self.seen += n
        for row in np.flatnonzero(slots < self.capacity):
            slot = int(slots[row])
            item = StoredExample(int(task_id), np.array(x[row], dtype=np.float64), int(y[row]), int(source_index[row]))
            self.items[slot : slot + 1] = [item]  # slot == len(items) appends

    def all_examples(self) -> list[StoredExample]:
        return list(self.items)


def examples_as_arrays(examples) -> tuple[np.ndarray, np.ndarray]:
    x = np.stack([e.x for e in examples])
    y = np.array([e.y for e in examples], dtype=np.int64)
    return x, y


# One row of pixels; "%.6g" formats each value exactly as format_sig does.
_DUMP_ROW = ",".join(["%.6g"] * PIXELS)


def dump_csv(examples) -> str:
    """Stored examples as CSV: task_id, class, example_index_in_source, then one column per pixel."""
    header = "task_id,class,example_index_in_source," + ",".join(f"px{i}" for i in range(PIXELS))
    lines = [header]
    for e in examples:
        if e.x.shape != (PIXELS,):
            raise DimensionError(f"stored example has {e.x.shape} pixels, expected ({PIXELS},)")
        lines.append(f"{e.task_id},{e.y},{e.source_index},{_DUMP_ROW % tuple(e.x.tolist())}")
    return "\n".join(lines) + "\n"


def write_dump(examples, path: str) -> None:
    atomic_write_text(path, dump_csv(examples))

"""Bounded replay storage across tasks.

During a task, selected candidates pile up in an unbounded staging pool.
At the task boundary the pool is committed: the per-task quota becomes
floor(J / tasks_seen), earlier tasks are uniformly down-sampled to the new
quota, and the staged pool is reduced to the quota following a caller-supplied
preference order (best candidate first) — with per-class balancing for the
gradient-scored strategy. The caller owns scoring; this module owns bounds,
balance, dedup, and deterministic sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datastream import NUM_CLASSES
from .errors import ContractError, DimensionError, EmptyInputError
from .ioutil import atomic_write_text

_TAG_DOWNSAMPLE = 1


@dataclass(frozen=True)
class StoredExample:
    task_id: int
    x: np.ndarray  # (784,) pixels, copied at staging time and never mutated
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
        self.num_classes = NUM_CLASSES  # the classes a balanced commit spreads its quota over
        self._seed = int(seed)
        self._stored: dict[int, list[StoredExample]] = {}
        self._staged: dict[int, list[StoredExample]] = {}
        self._commit_order: list[int] = []

    # -- staging ------------------------------------------------------------

    def stage_candidates(self, task_id: int, x, y, source_index) -> None:
        """Append selected examples to the task's staging pool (dedup happens at commit)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        source_index = np.asarray(source_index)
        if x.ndim != 2 or y.shape != (x.shape[0],) or source_index.shape != y.shape:
            raise DimensionError(
                f"inconsistent candidate shapes x={x.shape} y={y.shape} src={source_index.shape}"
            )
        pool = self._staged.setdefault(int(task_id), [])
        for row, label, src in zip(x, y, source_index):
            pool.append(StoredExample(int(task_id), row.copy(), int(label), int(src)))

    def staged_pool(self, task_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The staging pool as (x, y, source_index) arrays in staging order."""
        pool = self._staged.get(int(task_id), [])
        if not pool:
            raise EmptyInputError(f"no staged candidates for task {task_id}")
        x = np.stack([e.x for e in pool])
        y = np.array([e.y for e in pool], dtype=np.int64)
        src = np.array([e.source_index for e in pool], dtype=np.int64)
        return x, y, src

    # -- committing ---------------------------------------------------------

    def commit_task(self, task_id: int, ranking, class_balanced: bool = True) -> CommitRecord:
        """Bound the staged pool by the new quota and rebalance earlier tasks.

        `ranking` lists staging-pool positions best-first (a full preference
        order). Duplicate source examples keep only their best-ranked copy.
        """
        task_id = int(task_id)
        if task_id in self._stored:
            raise ValueError(f"task {task_id} was already committed")
        pool = self._staged.get(task_id, [])
        if not pool:
            raise EmptyInputError(f"no staged candidates for task {task_id}")
        ranking = np.asarray(ranking, dtype=np.int64)
        if sorted(int(i) for i in ranking) != list(range(len(pool))):
            raise DimensionError("ranking must be a permutation of the staging pool positions")

        tasks_seen = len(self._commit_order) + 1
        quota = self.capacity // tasks_seen

        # Uniformly down-sample every earlier task to the new quota.
        for old_task in self._commit_order:
            kept = self._stored[old_task]
            if len(kept) > quota:
                rng = np.random.default_rng(
                    np.random.SeedSequence([self._seed, _TAG_DOWNSAMPLE, tasks_seen, old_task])
                )
                positions = np.sort(rng.choice(len(kept), size=quota, replace=False))
                self._stored[old_task] = [kept[int(i)] for i in positions]

        deduped = self._dedup(pool, ranking)
        chosen = self._take_quota(pool, deduped, quota, class_balanced)
        self._stored[task_id] = [pool[int(i)] for i in chosen]
        self._commit_order.append(task_id)
        del self._staged[task_id]

        record = CommitRecord(
            task_id=task_id,
            tasks_seen=tasks_seen,
            quota=quota,
            stored_new=len(chosen),
            per_task_counts=tuple(len(self._stored[t]) for t in self._commit_order),
            total=self.total_stored,
        )
        if record.total > self.capacity:
            raise ContractError(
                f"commit of task {task_id} left {record.total} examples, over capacity {self.capacity} "
                f"(per-task counts {record.per_task_counts})"
            )
        return record

    @staticmethod
    def _dedup(pool, ranking) -> list[int]:
        """Ranking filtered to the best-ranked copy of each source example."""
        seen: set[int] = set()
        out = []
        for i in ranking:
            src = pool[int(i)].source_index
            if src not in seen:
                seen.add(src)
                out.append(int(i))
        return out

    def _take_quota(self, pool, order: list[int], quota: int, class_balanced: bool) -> list[int]:
        if not class_balanced:
            return sorted(order[:quota])
        base = quota // self.num_classes
        counts: dict[int, int] = {}
        taken: list[int] = []
        in_taken = set()
        # Three passes over the preference order: per-class base quota, then
        # the remainder capped at base+1 (keeps max-min <= 1), then uncapped
        # so a class-poor pool never wastes capacity.
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

    # -- reading ------------------------------------------------------------

    @property
    def total_stored(self) -> int:
        return sum(len(v) for v in self._stored.values())

    @property
    def committed_tasks(self) -> tuple[int, ...]:
        return tuple(self._commit_order)

    def stored(self, task_id: int) -> tuple[StoredExample, ...]:
        return tuple(self._stored.get(int(task_id), ()))

    def all_examples(self) -> list[StoredExample]:
        """Every stored example in (commit order, insertion order)."""
        out = []
        for task_id in self._commit_order:
            out.extend(self._stored[task_id])
        return out


def examples_as_arrays(examples) -> tuple[np.ndarray, np.ndarray]:
    x = np.stack([e.x for e in examples])
    y = np.array([e.y for e in examples], dtype=np.int64)
    return x, y


def dump_csv(examples) -> str:
    """Stored examples as CSV: task_id, class, example_index_in_source, 784 pixels."""
    n_pixels = 784
    header = "task_id,class,example_index_in_source," + ",".join(f"px{i}" for i in range(n_pixels))
    lines = [header]
    for e in examples:
        if e.x.shape != (n_pixels,):
            raise DimensionError(f"stored example has {e.x.shape} pixels, expected ({n_pixels},)")
        pixels = ",".join(format_sig(v) for v in e.x)
        lines.append(f"{e.task_id},{e.y},{e.source_index},{pixels}")
    return "\n".join(lines) + "\n"


def write_dump(examples, path: str) -> None:
    atomic_write_text(path, dump_csv(examples))

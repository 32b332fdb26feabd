"""The training loop over a task stream.

Each iteration takes one candidate batch, a `datastream.Batch` of the
current task's shuffled train set, which builds a row's pixels when first
read: pick a subset, form the objective gradient (selected-batch mean loss
plus lambda times a replay-batch mean loss; with A-GEM, the selected-batch
loss alone, projected away from conflicting with the replay gradient), step,
and store examples for the end-of-task buffer commit. A step runs one
backward pass, over its rows and the replay batch: the objective and the
replay gradient are per-row weights on that pass's per-example gradients,
and A-GEM reweights the rows through their Gram matrix. After each task the
model is evaluated on every test set seen so far, filling one row of the
accuracy matrix; those evaluations run on a one-worker pool while the next
task trains, and the trainer takes back and runs those the worker has not begun.

What differs between selection methods lives in one `Strategy` record per
method, looked up by name in `REGISTRY`: a per-step pick and a commit order;
a record with no commit order keeps a reservoir. `RunState.task_index` is
the one record of the current task: staging, commits and every seed read it.

Every random draw derives from (seed, task, epoch, iteration, purpose tag),
except the reservoir's, which come in stream order from one generator seeded
by (seed, purpose tag); so a run is a pure function of (stream, config).
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import ioutil
from .datastream import NUM_CLASSES, Batch, Dataset, TaskStream, stream_manifest
from .errors import ContractError, DimensionError, DivergenceError, EmptyInputError
from .metrics import AccuracyMatrix, average_accuracy, average_forgetting
from .model import GradSelector, ParamSet, accuracy, backprop, checkpoint_bytes, embeddings, init_params
from .replay import (
    Coreset,
    ReservoirState,
    StoredExample,
    dump_csv,
    examples_as_arrays,
    format_sig,
    sample_items,
)
from .selection import (
    SelectionConfig,
    kmeans_embedding_select,
    rank,
    score_gram,
    take_ranked,
    uniform_select,
)

# Purpose tags for seed derivation.
_T_INIT = 0
_T_SHUFFLE = 1
_T_BUFFER = 2
_T_SELECT = 3
_T_COMMIT_REF = 4
_T_COMMIT_RANK = 5
_T_RESERVOIR = 6


@dataclass(frozen=True)
class TrainConfig:
    stream_batch_size: int = 100
    buffer_batch_size: int = 10
    buffer_capacity: int = 200
    lr0: float = 0.005
    lr_decay: float = 0.8
    epochs: int = 1
    lam: float = 1.0
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    agem: bool = False
    grad_selector: GradSelector | None = None
    hidden: tuple[int, ...] = (256, 256)
    seed: int = 0
    log_scores: bool = False

    def __post_init__(self):
        if self.selection.strategy not in REGISTRY:
            raise ValueError(f"unknown strategy {self.selection.strategy!r}, expected one of {tuple(REGISTRY)}")
        if self.selection.kappa > self.stream_batch_size:
            raise ValueError(
                f"kappa {self.selection.kappa} exceeds stream_batch_size {self.stream_batch_size}"
            )
        if not 0 < self.lr0 < np.inf:
            raise ValueError(f"lr0 must be positive and finite, got {self.lr0}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lambda must be nonnegative and finite, got {self.lam}")
        if self.buffer_batch_size < 1:
            raise ValueError(f"buffer_batch_size must be >= 1, got {self.buffer_batch_size}")
        if self.buffer_capacity < 0:
            raise ValueError(f"buffer_capacity must be nonnegative, got {self.buffer_capacity}")
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")
        layers = () if self.grad_selector is None else self.grad_selector.layers
        if layers and (layers[0] < 0 or layers[-1] > len(self.hidden)):
            raise ValueError(f"grad layers {layers} outside the network's layers 0..{len(self.hidden)}")


@dataclass(frozen=True)
class IterationInfo:
    selected: np.ndarray


@dataclass
class RunState:
    params: ParamSet
    strategy: Strategy
    buffer: Coreset | ReservoirState
    matrix: AccuracyMatrix
    lr: float
    task_index: int = 0
    epoch: int = 0
    iteration_in_epoch: int = 0
    global_iteration: int = 0
    agem_projections: int = 0
    score_records: list = field(default_factory=list)  # with log_scores: (iteration, ScoreBreakdown, selected)
    commit_records: list = field(default_factory=list)

    def buffer_examples(self) -> list[StoredExample]:
        return self.buffer.all_examples()


def _seed_seq(cfg_seed: int, *parts: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(cfg_seed)] + [int(p) for p in parts])


def _step_seed(state: RunState, cfg: TrainConfig, tag: int) -> np.random.SeedSequence:
    return _seed_seq(cfg.seed, state.task_index, state.epoch, state.iteration_in_epoch, tag)


def new_run_state(cfg: TrainConfig, num_tasks: int, input_dim: int) -> RunState:
    sizes = [input_dim, *cfg.hidden, NUM_CLASSES]
    params = init_params(sizes, np.random.default_rng(_seed_seq(cfg.seed, _T_INIT)))
    strategy = REGISTRY[cfg.selection.strategy]
    if strategy.commit_order is None:
        buffer = ReservoirState(cfg.buffer_capacity, _seed_seq(cfg.seed, _T_RESERVOIR))
    else:
        buffer = Coreset(cfg.buffer_capacity, cfg.seed)
    return RunState(
        params=params,
        strategy=strategy,
        buffer=buffer,
        matrix=AccuracyMatrix(num_tasks),
        lr=cfg.lr0,
    )


# ---------------------------------------------------------------------------
# gradient plumbing


def agem_project(g, g_ref, gram) -> np.ndarray:
    """Remove g's conflicting component along g_ref when their inner product is negative.

    g and g_ref are coefficients over gradient rows M, and gram = M M^T: the
    inner product of coefficients u, v is u^T gram v, and the projected
    gradient is M^T out.
    """
    g = np.asarray(g, dtype=np.float64)
    g_ref = np.asarray(g_ref, dtype=np.float64)
    if g.shape != g_ref.shape or g.ndim != 1:
        raise DimensionError(f"gradient shapes differ: {g.shape} vs {g_ref.shape}")
    if gram.shape != (g.size, g.size):
        raise DimensionError(f"Gram matrix {gram.shape} for {g.size} coefficients")

    def inner(u, v):
        return float(u @ gram @ v)

    dot = inner(g, g_ref)
    if dot >= 0.0:
        return g
    ref_sq = inner(g_ref, g_ref)
    projected = g - (dot / ref_sq) * g_ref
    residual = inner(projected, g_ref)
    if not residual >= -1e-10:
        raise ContractError(
            f"projected gradient still conflicts with the reference: dot {residual:.3e} "
            f"(before projection {dot:.3e}, reference norm^2 {ref_sq:.3e})"
        )
    return projected


def _replay_batch(state: RunState, cfg: TrainConfig, seed) -> tuple[np.ndarray, np.ndarray] | None:
    """(x, y) of a uniform replay batch from the buffer, or None while the buffer is empty."""
    items = state.buffer_examples()
    return examples_as_arrays(sample_items(items, cfg.buffer_batch_size, seed)) if items else None


def _with_replay(x, y, replay):
    """Rows (x, y) followed by the replay batch's rows, if there is one."""
    if replay is None:
        return x, y
    return np.concatenate([x, replay[0]]), np.concatenate([y, replay[1]])


# ---------------------------------------------------------------------------
# strategies


@dataclass(frozen=True)
class Strategy:
    """One selection method: its per-step pick, and its coreset's commit order or None for a reservoir.

    `pick(state, cfg, batch, kappa, bp)` gives (indices to train on, ScoreBreakdown or None); bp is None,
    or with `scores_gradients` the `Backprop` over the candidates followed by the replay rows. A Coreset
    stages the picked rows during a task and, at its end, keeps the pool's best along `commit_order(state,
    cfg, pool)`, staging-pool positions best first (per class when `class_balanced`). A reservoir is
    offered every candidate and commits nothing.
    """

    pick: Callable
    scores_gradients: bool = False
    commit_order: Callable | None = None
    class_balanced: bool = False


def _ocs_pick(state, cfg, batch, kappa, bp):
    """Top-kappa by gradient similarity + diversity + tau * affinity to the replay gradient."""
    breakdown = score_gram(bp.gram(cfg.grad_selector), len(batch), cfg.selection.tau)
    return take_ranked(rank(breakdown.combined), kappa), breakdown


def _ocs_order(state, cfg, pool):
    replay = _replay_batch(state, cfg, _seed_seq(cfg.seed, state.task_index, _T_COMMIT_REF))
    gram = backprop(state.params, *_with_replay(pool.x, pool.y, replay)).gram(cfg.grad_selector)
    return rank(score_gram(gram, len(pool), cfg.selection.tau).combined)


def _uniform_pick(state, cfg, batch, kappa, bp):
    return uniform_select(len(batch), kappa, _step_seed(state, cfg, _T_SELECT)), None


def _uniform_order(state, cfg, pool):
    rng = np.random.default_rng(_seed_seq(cfg.seed, state.task_index, _T_COMMIT_RANK))
    return rng.permutation(len(pool)).astype(np.int64)


def _kmeans_pick(state, cfg, batch, kappa, bp):
    """One representative per k-means cluster of penultimate-layer embeddings."""
    emb = embeddings(state.params, batch.x)
    return kmeans_embedding_select(emb, kappa, _step_seed(state, cfg, _T_SELECT)), None


def _kmeans_order(state, cfg, pool):
    n, quota = len(pool), state.buffer.next_quota
    if quota < 1:
        return np.arange(n, dtype=np.int64)
    reps = kmeans_embedding_select(
        embeddings(state.params, pool.x), min(quota, n), _seed_seq(cfg.seed, state.task_index, _T_COMMIT_RANK)
    )
    rest = np.setdiff1d(np.arange(n, dtype=np.int64), reps)
    return np.concatenate([reps, rest])


# The one list of strategy names (SelectionConfig.strategy), each with the record that implements it.
REGISTRY: dict[str, Strategy] = {
    "ocs": Strategy(_ocs_pick, scores_gradients=True, commit_order=_ocs_order, class_balanced=True),
    "uniform": Strategy(_uniform_pick, commit_order=_uniform_order),
    "reservoir": Strategy(_uniform_pick),
    "kmeans_embedding": Strategy(_kmeans_pick, commit_order=_kmeans_order),
}


# ---------------------------------------------------------------------------
# one iteration


def train_iteration(state: RunState, batch: Batch | Dataset, cfg: TrainConfig) -> IterationInfo:
    """One selective update from a candidate batch; mutates state, and reads only the rows its pick and store use."""
    if len(batch) == 0:
        raise EmptyInputError("empty candidate batch")
    kappa = min(cfg.selection.kappa, len(batch))

    replay = _replay_batch(state, cfg, _step_seed(state, cfg, _T_BUFFER))
    m = 0 if replay is None else replay[1].shape[0]

    # One backward pass, replay rows last: over the candidates if the pick scores gradients, else the picked rows.
    if state.strategy.scores_gradients:
        bp = backprop(state.params, *_with_replay(batch.x, batch.y, replay))
        selected, breakdown = state.strategy.pick(state, cfg, batch, kappa, bp)
        lead = np.isin(np.arange(len(batch)), selected) / len(selected)
    else:
        selected, breakdown = state.strategy.pick(state, cfg, batch, kappa, None)
        picked = batch.subset(selected)
        bp = backprop(state.params, *_with_replay(picked.x, picked.y, replay))
        lead = np.full(len(selected), 1.0 / len(selected))

    # Objective: mean(selected loss) + lam * mean(replay loss), as weights on bp's rows. A-GEM trains on the
    # selected rows alone and keeps the replay rows only as the projection reference.
    replay_mean = np.full(m, 1.0 / max(m, 1))
    coef = np.concatenate([lead, (0.0 if cfg.agem else cfg.lam) * replay_mean])
    if m and cfg.agem:
        projected = agem_project(coef, np.concatenate([np.zeros(lead.size), replay_mean]), bp.gram())
        state.agem_projections += projected is not coef
        coef = projected
    state.params = bp.step(coef, state.lr)

    # Store: stage the picked rows for the commit, or offer every candidate to the reservoir.
    if state.strategy.commit_order is None:
        state.buffer.offer(state.task_index, batch)
    else:
        picked = batch.subset(selected)
        state.buffer.stage_candidates(state.task_index, picked.x, picked.y, picked.source_index)

    if cfg.log_scores and breakdown is not None:
        state.score_records.append((state.global_iteration, breakdown, selected))

    state.iteration_in_epoch += 1
    state.global_iteration += 1
    return IterationInfo(selected=selected)


# ---------------------------------------------------------------------------
# task boundary


def commit_current_task(state: RunState, cfg: TrainConfig):
    """Reduce the current task's staged pool into the bounded buffer (no-op for the reservoir)."""
    if state.strategy.commit_order is None:
        return None
    ranking = state.strategy.commit_order(state, cfg, state.buffer.staged_pool(state.task_index))
    record = state.buffer.commit_task(state.task_index, ranking, class_balanced=state.strategy.class_balanced)
    state.commit_records.append(record)
    return record


# ---------------------------------------------------------------------------
# full runs


def _position(state: RunState) -> str:
    return f"task {state.task_index}, epoch {state.epoch}, iteration {state.iteration_in_epoch}, lr {state.lr:g}"


def _train_task(state: RunState, task, cfg: TrainConfig) -> None:
    """Every epoch of one task, then its commit; a DivergenceError names where the run stood."""
    t = state.task_index
    try:
        for epoch in range(cfg.epochs):
            state.epoch = epoch
            state.iteration_in_epoch = 0
            order = np.random.default_rng(_seed_seq(cfg.seed, t, epoch, _T_SHUFFLE)).permutation(len(task.train))
            for start in range(0, len(order), cfg.stream_batch_size):
                train_iteration(state, task.train.subset(order[start : start + cfg.stream_batch_size]), cfg)
        commit_current_task(state, cfg)
    except DivergenceError as exc:
        raise DivergenceError(f"run diverged at {_position(state)}: {exc}") from exc


def _evaluate(params: ParamSet, test, position: str) -> float:
    """Accuracy on a test set, a view built here and dropped on return; a DivergenceError names `position`."""
    try:
        return accuracy(params, test.x, test.y)
    except DivergenceError as exc:
        raise DivergenceError(f"run diverged at {position}: {exc}") from exc


def _run_here(future: Future, box: list) -> Future:
    """`future` if it has begun or finished; else, cancelled, a finished Future of the call in `box` run here."""
    if not future.cancel():
        return future
    ran = Future()
    try:
        ran.set_result(box.pop()())
    except Exception as exc:
        ran.set_exception(exc)
    return ran


def run_stream(stream: TaskStream, cfg: TrainConfig, out_dir: str | None = None) -> RunState:
    """Train through every task, evaluate after each, and emit artifacts.

    Evaluation is the only place test sets are touched; iteration code only
    ever sees train data. Task t's t + 1 evaluations go to a one-worker
    pool, which runs them oldest first while task t + 1 trains; then the
    trainer takes back, newest first, those the worker has not begun and
    runs them itself, as it does after the last task. So it never waits on
    the worker, and at most two tasks' parameter sets wait to be scored.
    Parameter sets are never mutated, so each evaluation sees what an inline
    one would, and each runs in a copy of the caller's context, so it
    follows the caller's `np.errstate`. Each builds its test set's pixels
    from the view and drops them on return. The matrix is filled before
    anything is returned or written. A failed run raises what the serial
    order train t, eval t, train t + 1 raises first, and, but for what the
    worker had begun, runs no evaluation after the first failure.
    """
    state = new_run_state(cfg, len(stream), stream.tasks[0].train.width)
    evaluations = []  # [t, i, future, box] of every evaluation, in serial order; whoever runs it empties its box
    failure = None  # an Exception raised while training; a BaseException propagates at once
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="coresel-eval")

    def take_back(entries):  # newest first, while the worker takes them oldest first
        for entry in reversed(entries):
            entry[2] = _run_here(entry[2], entry[3])

    try:
        try:
            last = []  # the evaluations of the task trained last
            for t, task in enumerate(stream.tasks):
                # A failed evaluation precedes every later task in the serial order: stop training.
                if any(f.done() and f.exception() is not None for _, _, f, _ in evaluations):
                    break
                state.task_index = t
                state.lr = cfg.lr0 * cfg.lr_decay**t
                _train_task(state, task, cfg)
                take_back(last)  # what the worker has not begun of task t - 1's evaluations
                position = _position(state)
                last = []
                for i, seen in enumerate(stream.tasks[: t + 1]):
                    box = [functools.partial(contextvars.copy_context().run, _evaluate, state.params, seen.test,
                                             position)]
                    last.append([t, i, pool.submit(lambda box=box: box.pop()()), box])
                evaluations += last
            else:
                take_back(last)
        except Exception as exc:
            failure = exc
        # Serial order: what nobody has begun runs here, and the first failure, which precedes `failure`, ends it.
        for t, i, future, box in evaluations:
            state.matrix.set(t, i, _run_here(future, box).result())
    finally:
        pool.shutdown(cancel_futures=True)
    if failure is not None:
        raise failure
    # Only a run that finished writes artifacts; a failed one leaves none behind.
    if out_dir is not None:
        _write_artifacts(state, stream, cfg, out_dir)
    return state


# ---------------------------------------------------------------------------
# artifacts


def run_metrics(state: RunState) -> dict:
    """Metrics of a finished run; IncompleteMatrixError if an accuracy is missing."""
    per_task = [average_accuracy(state.matrix, t) for t in range(state.matrix.num_tasks)]
    return {
        "final_average_accuracy": per_task[-1],
        "average_forgetting": average_forgetting(state.matrix),
        "per_task_average_accuracy": per_task,
    }


def _matrix_csv(matrix: AccuracyMatrix) -> str:
    T = matrix.num_tasks
    header = "trained_through," + ",".join(f"task{i}" for i in range(T))
    lines = [header]
    for t in range(T):
        cells = []
        for i in range(T):
            v = matrix.values[t, i]
            cells.append("" if np.isnan(v) else format_sig(v))
        lines.append(f"{t}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def _manifest_text(cfg: TrainConfig, stream: TaskStream) -> str:
    lines = ["[train]"]
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "selection":
            lines.append(f"strategy = {value.strategy}")
            lines.append(f"kappa = {value.kappa}")
            lines.append(f"tau = {value.tau}")
        elif f.name == "grad_selector":
            lines.append(f"grad_layers = {'all' if value is None else ','.join(str(l) for l in value.layers)}")
        elif f.name == "hidden":
            lines.append(f"hidden = {','.join(str(h) for h in value)}")
        else:
            lines.append(f"{f.name} = {value}")
    lines.append("")
    lines.append("[stream]")
    lines.append(stream_manifest(stream).rstrip("\n"))
    # Checkpoints are bit-identical only under the same numpy, BLAS and BLAS thread count.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]  # mode= needs numpy >= 1.26
    lines += ["", "[environment]", f"numpy = {np.__version__}", f"blas = {blas.get('name')} {blas.get('version')}"]
    lines += [f"{var} = {os.environ.get(var, 'unset')}" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]
    return "\n".join(lines) + "\n"


RUN_FILES = ("coreset_dump.csv", "accuracy_matrix.csv", "metrics.json", "run_manifest.txt", "scores.csv",
             "model.ckpt", "FAILED.txt")  # a finished run's artifacts, or a failed run's FAILED.txt


def clear_run_dir(out_dir: str) -> None:
    """Make out_dir if needed, and remove the files an earlier run wrote there: those in RUN_FILES, no other."""
    os.makedirs(out_dir, exist_ok=True)
    for path in filter(os.path.lexists, [os.path.join(out_dir, name) for name in RUN_FILES]):
        os.unlink(path)


def write_run_files(out_dir: str, files: dict[str, bytes]) -> None:
    """Put `files` (name -> bytes) in out_dir in place of an earlier run's files, all of them or none.

    A name outside RUN_FILES is refused before anything is cleared, so clear_run_dir removes every file a
    run can leave. If a write fails, the files this call has written are removed.
    """
    unknown = [name for name in files if name not in RUN_FILES]
    if unknown:
        raise ContractError(f"{unknown[0]!r} is not a run file: expected one of {RUN_FILES}")
    clear_run_dir(out_dir)
    written = []
    try:
        for name, data in files.items():
            path = os.path.join(out_dir, name)
            ioutil.atomic_write_bytes(path, data)
            written.append(path)
    except BaseException:
        for path in written:
            os.unlink(path)
        raise


def _write_artifacts(state: RunState, stream: TaskStream, cfg: TrainConfig, out_dir: str) -> None:
    """Render every file of a finished run, then write them: one that cannot be rendered leaves no directory."""
    texts = {
        "coreset_dump.csv": dump_csv(state.buffer_examples()),
        "accuracy_matrix.csv": _matrix_csv(state.matrix),
        "metrics.json": json.dumps(run_metrics(state), indent=2, sort_keys=True) + "\n",
        "run_manifest.txt": _manifest_text(cfg, stream),
    }
    if cfg.log_scores and state.strategy.scores_gradients:
        rows = ["iteration,index,similarity,diversity,affinity,selected"]
        for it, b, selected in state.score_records:
            affinity = np.full(b.similarity.size, np.nan) if b.affinity is None else b.affinity
            for n, (s, v, a) in enumerate(zip(b.similarity, b.diversity, affinity)):
                rows.append(f"{it},{n},{format_sig(s)},{format_sig(v)},{format_sig(a)},{int(n in selected)}")
        texts["scores.csv"] = "\n".join(rows) + "\n"
    files = {name: text.encode("utf-8") for name, text in texts.items()}
    files["model.ckpt"] = checkpoint_bytes(state.params)
    write_run_files(out_dir, files)

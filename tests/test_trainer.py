import collections
import functools
import json
import os
import pathlib
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from coresel import ioutil, model, trainer
from coresel.datastream import (
    PIXELS,
    Dataset,
    TaskView,
    build_permuted_stream,
    build_rotated_stream,
    make_synthetic_corpus,
)
from coresel.errors import ContractError, DimensionError, DivergenceError, EmptyInputError, IncompleteMatrixError
from coresel.metrics import average_forgetting
from coresel.model import (
    GradSelector,
    backprop,
    flatten_params,
    mean_gradient,
)
from coresel.replay import Coreset, ReservoirState
from coresel.selection import SelectionConfig, score_gram
from coresel.trainer import (
    Strategy,
    TrainConfig,
    agem_project,
    commit_current_task,
    new_run_state,
    run_stream,
    train_iteration,
)
import oracles
from oracles import per_example_gradients, score_batch

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def tiny_stream(num_tasks=3, seed=101, train_per_task=60, test_per_task=30, **kwargs):
    train = make_synthetic_corpus(400, seed)
    test = make_synthetic_corpus(150, seed + 1)
    return build_rotated_stream(
        train, test, num_tasks, seed, train_per_task=train_per_task, test_per_task=test_per_task, **kwargs
    )


def tiny_config(**overrides):
    defaults = dict(
        stream_batch_size=20,
        buffer_batch_size=5,
        buffer_capacity=40,
        lr0=0.05,
        lr_decay=0.8,
        epochs=1,
        lam=1.0,
        selection=SelectionConfig(kappa=5, tau=1000.0, strategy="ocs"),
        hidden=(16, 16),
        seed=7,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


# ---------------------------------------------------------------------------
# A-GEM projection


def test_agem_worked_example():
    out = agem_project(np.array([1.0, -1.0]), np.array([0.0, 1.0]), np.eye(2))  # u^T I v = u . v
    assert np.array_equal(out, np.array([1.0, 0.0]))


def test_agem_passthrough_and_full_conflict():
    g = np.array([2.0, 3.0])
    ref = np.array([1.0, 0.5])
    assert agem_project(g, ref, np.eye(2)) is g  # dot > 0: unchanged
    out = agem_project(np.array([0.0, -2.0]), np.array([0.0, 1.0]), np.eye(2))
    assert np.allclose(out, 0.0, atol=1e-15)


def test_agem_contract_on_random_pairs():
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        g = rng.normal(size=n)
        ref = rng.normal(size=n)
        out = agem_project(g, ref, np.eye(n))
        assert float(out @ ref) >= -1e-10
        if float(g @ ref) >= 0:
            assert out is g


def test_agem_non_finite_reference_raises():
    with pytest.raises(ContractError, match="still conflicts"):
        with np.errstate(invalid="ignore"):  # inf * 0 off the identity's diagonal is NaN
            agem_project(np.array([-1.0, 1.0]), np.array([np.inf, 1.0]), np.eye(2))


def test_agem_on_coefficients_matches_materialised_vectors():
    # Coefficients u, v over gradient rows M project through M M^T exactly as g = M^T u, g_ref = M^T v do.
    rng = np.random.default_rng(20240818)
    params = new_run_state(tiny_config(), num_tasks=1, input_dim=PIXELS).params
    x, y = rng.uniform(size=(9, 784)), rng.integers(0, 10, size=9)
    rows = per_example_gradients(params, x, y)
    gram = backprop(params, x, y).gram()
    fired = 0
    for _ in range(200):
        u, v = rng.normal(size=9), np.where(rng.uniform(size=9) < 0.5, 0.0, rng.uniform(size=9))
        want = oracles.agem_project(rows.T @ u, rows.T @ v)
        got = agem_project(u, v, gram)
        assert (got is u) == (float((rows.T @ u) @ (rows.T @ v)) >= 0.0)
        fired += got is not u
        assert np.abs(rows.T @ got - want).max() <= 1e-12 * np.abs(want).max()  # measured worst 5.8e-16
        assert float(got @ gram @ v) >= -1e-10
    assert 0 < fired < 200
    with pytest.raises(DimensionError):
        agem_project(np.ones(3), np.ones(3), np.eye(4))


# ---------------------------------------------------------------------------
# objective gradient


def first_replay_step(lam):
    """(params before, batch, info, update / lr) of the first step that draws a replay batch."""
    rng = np.random.default_rng(0)
    cfg = tiny_config(lam=lam)
    state = new_run_state(cfg, num_tasks=2, input_dim=PIXELS)
    train_iteration(state, make_batch(rng), cfg)
    commit_current_task(state, cfg)
    state.task_index, state.iteration_in_epoch = 1, 0
    p0, batch = state.params, make_batch(rng)
    info = train_iteration(state, batch, cfg)
    return p0, batch, info, (flatten_params(p0) - flatten_params(state.params)) / cfg.lr0


def test_objective_gradient_replay_term(monkeypatch):
    # The step is -lr * (selected-batch gradient + lambda * replay-batch gradient),
    # with the replay batch the one train_iteration drew.
    replays = []
    real = trainer.examples_as_arrays
    monkeypatch.setattr(trainer, "examples_as_arrays", lambda examples: replays.append(real(examples)) or replays[-1])
    p0, batch, info, step_0 = first_replay_step(0.0)
    _, _, _, step_a = first_replay_step(0.3)
    _, _, _, step_ab = first_replay_step(0.3 + 0.4)
    assert len(replays[-1][1]) == 5
    g_buf = mean_gradient(p0, *replays[-1])
    sel = info.selected
    assert np.abs(step_0 - mean_gradient(p0, batch.x[sel], batch.y[sel])).max() < 1e-10
    assert np.abs(step_ab - (step_a + 0.4 * g_buf)).max() < 1e-10


def test_replay_reference_restricts_to_selected_layers():
    # OCS takes its replay reference from the Gram blocks of one pass over candidates + replay rows:
    # over a selector's layers it is the replay batch's mean gradient restricted to those layers.
    rng = np.random.default_rng(4)
    params = new_run_state(tiny_config(), num_tasks=1, input_dim=PIXELS).params
    x, y = rng.uniform(size=(6, 784)), rng.integers(0, 10, size=6)
    rx, ry = rng.uniform(size=(4, 784)), rng.integers(0, 10, size=4)
    bp = backprop(params, np.concatenate([x, rx]), np.concatenate([y, ry]))
    for layers in (None, (0,), (1,), (2,), (0, 2), (1, 2)):
        selector = None if layers is None else GradSelector(layers)
        ref = per_example_gradients(params, rx, ry, selector).mean(axis=0)
        rows = per_example_gradients(params, x, y, selector)
        got = score_gram(bp.gram(selector), 6, 1.0)
        want = score_batch(rows, ref, 1.0)
        assert np.abs(got.affinity - want.affinity).max() <= 1e-12


# ---------------------------------------------------------------------------
# train_iteration semantics


def make_batch(rng, n=20):
    return Dataset(
        rng.uniform(size=(n, 784)),
        rng.integers(0, 10, size=n).astype(np.int64),
        np.arange(n, dtype=np.int64),
    )


def test_empty_buffer_lambda_is_inert():
    batch = make_batch(np.random.default_rng(5))
    results = []
    for lam in (0.0, 5.0):
        cfg = tiny_config(lam=lam)
        state = new_run_state(cfg, num_tasks=1, input_dim=PIXELS)
        train_iteration(state, batch, cfg)
        results.append(flatten_params(state.params))
    assert np.array_equal(results[0], results[1])


# The fused step sums in another order than the oracle's W - lr * mean(rows); measured worst difference
# 2.9e-17 of the largest parameter.
STEP_RTOL = 1e-14


def assert_plain_sgd(p0, x, y, lr, got):
    """`got` is p0 minus lr times the mean of the materialised per-example gradients of (x, y)."""
    want = flatten_params(p0) - lr * per_example_gradients(p0, x, y).mean(axis=0)
    assert np.abs(flatten_params(got) - want).max() <= STEP_RTOL * np.abs(want).max()


def test_saturated_selection_is_plain_sgd():
    batch = make_batch(np.random.default_rng(6))
    cfg = tiny_config(selection=SelectionConfig(kappa=20, tau=0.0, strategy="ocs"))
    state = new_run_state(cfg, num_tasks=1, input_dim=PIXELS)
    p0 = state.params
    info = train_iteration(state, batch, cfg)
    assert list(info.selected) == list(range(20))
    assert_plain_sgd(p0, batch.x, batch.y, cfg.lr0, state.params)


def test_iteration_stages_selected_examples():
    batch = make_batch(np.random.default_rng(7))
    cfg = tiny_config()
    state = new_run_state(cfg, num_tasks=1, input_dim=PIXELS)
    info = train_iteration(state, batch, cfg)
    src = state.buffer.staged_pool(0).source_index
    assert sorted(src) == sorted(int(i) for i in info.selected)
    with pytest.raises(EmptyInputError, match="empty candidate batch"):
        train_iteration(state, batch.subset(np.arange(0)), cfg)


def test_reservoir_strategy_fills_reservoir_not_coreset():
    batch = make_batch(np.random.default_rng(8))
    cfg = tiny_config(selection=SelectionConfig(kappa=5, tau=1000.0, strategy="reservoir"))
    state = new_run_state(cfg, num_tasks=1, input_dim=PIXELS)
    train_iteration(state, batch, cfg)
    assert isinstance(state.buffer, ReservoirState)
    assert len(state.buffer.items) == 20
    assert state.buffer.seen == 20


# ---------------------------------------------------------------------------
# run_stream


def test_run_stream_fills_lower_triangle_once():
    stream = tiny_stream(num_tasks=3)
    cfg = tiny_config()
    state = run_stream(stream, cfg)
    vals = state.matrix.values
    for t in range(3):
        for i in range(3):
            assert np.isnan(vals[t, i]) == (i > t)
    assert state.lr == pytest.approx(cfg.lr0 * cfg.lr_decay**2)
    assert state.buffer.total_stored <= cfg.buffer_capacity
    quota = cfg.buffer_capacity // 3
    for t in range(3):
        assert len(state.buffer.stored(t)) <= quota


def test_single_task_stream_has_zero_forgetting():
    stream = tiny_stream(num_tasks=1)
    state = run_stream(stream, tiny_config())
    assert state.matrix.values.shape == (1, 1)
    assert average_forgetting(state.matrix) == 0.0


def test_run_stream_is_deterministic():
    stream = tiny_stream(num_tasks=2)
    cfg = tiny_config()
    a = run_stream(stream, cfg)
    b = run_stream(stream, cfg)
    assert np.array_equal(a.matrix.values, b.matrix.values, equal_nan=True)
    assert np.array_equal(flatten_params(a.params), flatten_params(b.params))
    assert [(e.task_id, e.source_index) for e in a.buffer_examples()] == [
        (e.task_id, e.source_index) for e in b.buffer_examples()
    ]


def test_matrix_holds_the_accuracy_of_each_tasks_snapshot(monkeypatch):
    # Evaluations run while later tasks train; each must still see the parameters its task ended with.
    real = trainer.commit_current_task
    snapshots = []

    def capturing(state, cfg):
        record = real(state, cfg)
        snapshots.append(state.params)
        return record

    monkeypatch.setattr(trainer, "commit_current_task", capturing)
    stream = tiny_stream(num_tasks=3)
    state = run_stream(stream, tiny_config())
    assert len(snapshots) == 3 and snapshots[-1] is state.params
    tests = [task.test for task in stream.tasks]
    for t, params in enumerate(snapshots):
        for i in range(t + 1):
            assert state.matrix.values[t, i] == model.accuracy(params, tests[i].x, tests[i].y), (t, i)
    # The final parameters would give other numbers, so the check above tells the snapshots apart.
    assert any(state.matrix.values[t, i] != model.accuracy(state.params, tests[i].x, tests[i].y)
               for t in range(2) for i in range(t + 1))


def hold_the_evaluator_thread(monkeypatch):
    """Keep each run's evaluator worker from beginning an evaluation until the returned event is set.

    The pool's first job waits on the event, and shutting the pool down sets it only after cancelling what
    is still queued, so a worker the test never releases begins no evaluation.
    """
    release = threading.Event()

    class HeldPool(trainer.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            super().submit(release.wait, 30)

        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            release.set()
            super().shutdown(wait=wait)

    monkeypatch.setattr(trainer, "ThreadPoolExecutor", HeldPool)
    return release


def serial_run(stream, cfg):
    """The serial order, train t then evaluate t, with each committed ParamSet scored inline."""
    state = new_run_state(cfg, len(stream), stream.tasks[0].train.width)
    for t, task in enumerate(stream.tasks):
        state.task_index, state.lr = t, cfg.lr0 * cfg.lr_decay**t
        trainer._train_task(state, task, cfg)
        for i, seen in enumerate(stream.tasks[: t + 1]):
            state.matrix.set(t, i, model.accuracy(state.params, seen.test.x, seen.test.y))
    return state


def test_results_do_not_depend_on_the_evaluator_count(monkeypatch):
    # The evaluator thread and the trainer each run some of the evaluations, and the run still matches the
    # serial oracle, with every evaluation under the caller's np.errstate whichever of the two runs it.
    real = trainer.accuracy
    seen = []  # (run on the main thread, numpy error state) of each evaluation
    trainer_ran, thread_ran = hold_the_evaluator_thread(monkeypatch), threading.Event()

    def recording(params, x, y):
        on_main = threading.current_thread() is threading.main_thread()
        seen.append((on_main, np.geterr()))
        if on_main and trainer_ran.is_set():
            thread_ran.wait(timeout=30)  # an evaluation is still queued, so the thread takes it meanwhile
        (trainer_ran if on_main else thread_ran).set()
        return real(params, x, y)

    monkeypatch.setattr(trainer, "accuracy", recording)
    stream = tiny_stream(num_tasks=3)
    cfg = tiny_config()
    with np.errstate(over="ignore", divide="raise", invalid="ignore", under="warn"):
        run = run_stream(stream, cfg)
        caller = np.geterr()
    assert len(seen) == 6 and {on_main for on_main, _ in seen} == {True, False}
    assert all(errstate == caller for _, errstate in seen)  # evaluations follow the caller's np.errstate
    serial = serial_run(stream, cfg)
    assert np.array_equal(run.matrix.values, serial.matrix.values, equal_nan=True)
    assert np.array_equal(flatten_params(run.params), flatten_params(serial.params))
    assert [(e.task_id, e.source_index, e.x.tobytes()) for e in run.buffer_examples()] == [
        (e.task_id, e.source_index, e.x.tobytes()) for e in serial.buffer_examples()
    ]


def test_the_trainer_runs_the_backlog_the_evaluator_thread_has_not_begun(monkeypatch):
    # With a slow evaluator thread, every evaluation of a task before t - 1 has begun when task t's first
    # step runs, and a committed ParamSet whose evaluations have all finished is no longer alive.
    real_accuracy, real_commit, real_iteration = trainer.accuracy, trainer.commit_current_task, trainer.train_iteration
    committed = []  # a weak reference to each task's committed ParamSet
    begun = collections.Counter()  # evaluations begun, by task
    lock = threading.Lock()
    thread_task = [None]  # the task of the evaluation the thread began last
    checks = []  # (t, evaluations of tasks before t - 1 not begun, those tasks whose ParamSet is alive)

    def evaluating(params, x, y):
        s = next(s for s, ref in enumerate(committed) if ref() is params)
        with lock:
            begun[s] += 1
        if threading.current_thread() is not threading.main_thread():
            thread_task[0] = s
            time.sleep(0.2)
        return real_accuracy(params, x, y)

    def committing(state, cfg):
        record = real_commit(state, cfg)
        committed.append(weakref.ref(state.params))
        return record

    def training(state, batch, cfg):
        t = state.task_index
        if state.epoch == state.iteration_in_epoch == 0:
            older = range(t - 1)
            deadline = time.monotonic() + 0.1  # the thread may not yet have entered an evaluation it took
            while any(begun[s] < s + 1 for s in older) and time.monotonic() < deadline:
                time.sleep(0.001)
            missing = sum(s + 1 - begun[s] for s in older)
            # The thread's last evaluation may still run; every other evaluation of these tasks has finished.
            checks.append((t, missing, [s for s in older if s != thread_task[0] and committed[s]() is not None]))
        return real_iteration(state, batch, cfg)

    monkeypatch.setattr(trainer, "accuracy", evaluating)
    monkeypatch.setattr(trainer, "commit_current_task", committing)
    monkeypatch.setattr(trainer, "train_iteration", training)
    stream = tiny_stream(num_tasks=5)
    state = run_stream(stream, tiny_config())
    assert checks == [(t, 0, []) for t in range(5)]
    assert sum(begun.values()) == 15 and not np.isnan(state.matrix.values[4]).any()


def test_every_evaluation_runs_once_under_frequent_thread_switches(monkeypatch):
    # Two runs at once, four threads on the queue's two ends: no evaluation is lost or run twice.
    real = trainer.accuracy
    calls = []

    def counting(params, x, y):
        calls.append(None)  # list.append is atomic
        return real(params, x, y)

    monkeypatch.setattr(trainer, "accuracy", counting)
    stream, cfg = tiny_stream(num_tasks=6, train_per_task=20, test_per_task=10), tiny_config()
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda n=n: runs.update({n: run_stream(stream, cfg)}), name=f"run{n}")
                   for n in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers) and sorted(runs) == [0, 1]
    serial = serial_run(stream, cfg)
    for run in runs.values():
        assert np.array_equal(run.matrix.values, serial.matrix.values, equal_nan=True)
    assert len(calls) == 2 * 21


# Stub: trains on odd rows, commits the most recently staged rows first.
OddRowsLastFirst = Strategy(
    pick=lambda state, cfg, batch, kappa, bp: (np.arange(1, batch.x.shape[0], 2)[:kappa], None),
    commit_order=lambda state, cfg, pool: np.arange(len(pool))[::-1],
)


def test_trainer_follows_stub_strategy(monkeypatch):
    monkeypatch.setitem(trainer.REGISTRY, "uniform", OddRowsLastFirst)
    cfg = tiny_config(buffer_capacity=3, selection=SelectionConfig(kappa=5, tau=1000.0, strategy="uniform"))
    state = new_run_state(cfg, num_tasks=1, input_dim=PIXELS)
    batch = make_batch(np.random.default_rng(9))
    p0 = state.params
    info = train_iteration(state, batch, cfg)
    assert list(info.selected) == [1, 3, 5, 7, 9]
    assert_plain_sgd(p0, batch.x[1:10:2], batch.y[1:10:2], cfg.lr0, state.params)
    pool = state.buffer.staged_pool(0)
    assert list(pool.source_index) == [1, 3, 5, 7, 9]
    assert np.array_equal(pool.x, batch.x[1:10:2]) and np.array_equal(pool.y, batch.y[1:10:2])
    # Capacity 3, no class balancing: the three best-ranked, i.e. last-staged, rows.
    record = commit_current_task(state, cfg)
    assert record.stored_new == 3
    assert [e.source_index for e in state.buffer.stored(0)] == [5, 7, 9]


def test_a_pick_pairs_with_another_strategys_commit_order(monkeypatch):
    # Uniform's pick with OCS's class-balanced commit order: the picks are uniform's, the commits balanced.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    paired = Strategy(pick=trainer.REGISTRY["uniform"].pick, commit_order=trainer.REGISTRY["ocs"].commit_order,
                      class_balanced=True)
    monkeypatch.setitem(trainer.REGISTRY, "uniform_pick_ocs_commit", paired)
    stream, selected = tiny_stream(num_tasks=3), {}
    real = trainer.train_iteration

    def recording(state, batch, cfg):
        info = real(state, batch, cfg)
        selected.setdefault(cfg.selection.strategy, []).append(info.selected)
        return info

    monkeypatch.setattr(trainer, "train_iteration", recording)
    run_stream(stream, tiny_config(selection=SelectionConfig(kappa=5, tau=1000.0, strategy="uniform")))
    probe = checks.OcsProbe()
    wrappers = probe.wrappers()
    for leaf in ("stage_candidates", "commit_task"):
        monkeypatch.setattr(Coreset, leaf, wrappers[f"coresel.replay:Coreset.{leaf}"](getattr(Coreset, leaf)))
    run_stream(stream, tiny_config(selection=SelectionConfig(kappa=5, tau=1000.0, strategy="uniform_pick_ocs_commit")))
    uniform, pair = selected["uniform"], selected["uniform_pick_ocs_commit"]
    assert len(pair) == len(uniform) == 9 and all(np.array_equal(a, b) for a, b in zip(pair, uniform))
    assert len(probe.commits) == 3 and checks.check_commits(probe) == []


def test_strategies_differ_without_injection():
    stream = tiny_stream(num_tasks=2)
    a = run_stream(stream, tiny_config())
    b = run_stream(stream, tiny_config(selection=SelectionConfig(kappa=5, tau=1000.0, strategy="uniform")))
    assert not np.array_equal(flatten_params(a.params), flatten_params(b.params))


def test_agem_ignores_lambda():
    # A-GEM trains on the picked rows alone: the replay rows are only the projection reference.
    stream = tiny_stream(num_tasks=3)
    uniform = SelectionConfig(kappa=5, tau=1000.0, strategy="uniform")
    a, b = (run_stream(stream, tiny_config(lam=lam, agem=True, selection=uniform)) for lam in (1.0, 0.0))
    assert np.array_equal(flatten_params(a.params), flatten_params(b.params))
    assert np.array_equal(a.matrix.values, b.matrix.values, equal_nan=True)
    assert a.agem_projections == b.agem_projections > 0
    assert [(e.task_id, e.source_index) for e in a.buffer_examples()] == [
        (e.task_id, e.source_index) for e in b.buffer_examples()
    ]


def test_agem_projections_counted(monkeypatch):
    # A-GEM's objective holds no replay term, so a uniform pick can conflict with the replay
    # gradient (OCS's affinity term picks rows that agree with it).
    steps, replays = [], []
    real_iteration, real_arrays = trainer.train_iteration, trainer.examples_as_arrays

    def recording(state, batch, cfg):
        p0, before, projections = state.params, len(replays), state.agem_projections
        info = real_iteration(state, batch, cfg)
        replay = replays[-1] if len(replays) > before else None
        steps.append((p0, state.params, replay, state.agem_projections - projections, state.lr))
        return info

    monkeypatch.setattr(trainer, "train_iteration", recording)
    monkeypatch.setattr(trainer, "examples_as_arrays", lambda examples: replays.append(real_arrays(examples)) or replays[-1])
    uniform = SelectionConfig(kappa=5, tau=1000.0, strategy="uniform")
    state = run_stream(tiny_stream(num_tasks=3), tiny_config(lam=0.0, agem=True, selection=uniform))
    fired = [s for s in steps if s[3]]
    assert state.agem_projections == len(fired) > 0
    for p0, p1, replay, agem_fired, lr in steps:
        if replay is None:
            assert not agem_fired
            continue
        update = (flatten_params(p0) - flatten_params(p1)) / lr
        g_ref = per_example_gradients(p0, *replay).mean(axis=0)
        # A fired step is projected onto the half-space; an unfired one already lay in it.
        assert float(update @ g_ref) >= -1e-10


def test_one_backward_pass_per_iteration(monkeypatch):
    calls, replays = [], []
    real, real_arrays = model._backward_deltas, trainer.examples_as_arrays
    monkeypatch.setattr(model, "_backward_deltas", lambda *args: calls.append(1) or real(*args))
    monkeypatch.setattr(trainer, "examples_as_arrays", lambda examples: replays.append(1) or real_arrays(examples))
    rng = np.random.default_rng(12)
    for strategy in trainer.REGISTRY:
        for agem in (False, True):
            cfg = tiny_config(agem=agem, selection=SelectionConfig(kappa=5, tau=1000.0, strategy=strategy))
            state = new_run_state(cfg, num_tasks=2, input_dim=PIXELS)
            for task_id in (0, 1):
                state.task_index, state.iteration_in_epoch = task_id, 0
                calls.clear()
                replays.clear()
                train_iteration(state, make_batch(rng), cfg)
                assert len(calls) == 1, (strategy, agem, task_id)
                assert len(replays) == (task_id == 1)  # a replay batch once the buffer holds a task
                commit_current_task(state, cfg)


@pytest.mark.parametrize("strategy", ["uniform", "reservoir", "kmeans_embedding"])
def test_baseline_strategies_run_end_to_end(strategy):
    stream = tiny_stream(num_tasks=3)
    cfg = tiny_config(selection=SelectionConfig(kappa=5, tau=1000.0, strategy=strategy))
    state = run_stream(stream, cfg)
    assert not np.isnan(state.matrix.values[2]).any()
    examples = state.buffer_examples()
    assert 0 < len(examples) <= cfg.buffer_capacity
    if strategy == "reservoir":
        assert isinstance(state.buffer, ReservoirState)
        assert state.buffer.seen == 3 * 60
        assert not state.commit_records
    else:
        assert isinstance(state.buffer, Coreset)
        assert len(state.commit_records) == 3
        assert [record.task_id for record in state.commit_records] == [0, 1, 2]


@pytest.mark.parametrize("capacity", [0, 2])
@pytest.mark.parametrize("strategy", list(trainer.REGISTRY))
def test_buffer_smaller_than_task_count(strategy, capacity):
    # Three tasks share fewer than three slots: per-task quotas reach 0, and k-means
    # commits fall back to their quota-less ranking.
    stream = tiny_stream(num_tasks=3)
    cfg = tiny_config(buffer_capacity=capacity, selection=SelectionConfig(kappa=5, tau=1000.0, strategy=strategy))
    state = run_stream(stream, cfg)
    assert not np.isnan(state.matrix.values[2]).any()
    examples = state.buffer_examples()
    if strategy == "reservoir":
        assert len(examples) == min(capacity, state.buffer.seen) and state.buffer.seen == 3 * 60
    else:
        for t, record in enumerate(state.commit_records):
            assert record.quota == capacity // (t + 1)
            assert all(n <= record.quota for n in record.per_task_counts)
        assert [record.total for record in state.commit_records] == [capacity, capacity // 2 * 2, 0]
        assert examples == []


# ---------------------------------------------------------------------------
# artifacts


def test_run_stream_artifacts(tmp_path, monkeypatch):
    steps = []  # (candidates, selected, task) of every training step
    real = trainer.train_iteration

    def recording(state, batch, cfg):
        info = real(state, batch, cfg)
        steps.append((len(batch), info.selected, state.task_index))
        return info

    monkeypatch.setattr(trainer, "train_iteration", recording)
    stream = tiny_stream(num_tasks=2)
    cfg = tiny_config(log_scores=True, selection=SelectionConfig(kappa=5, tau=0.1234567, strategy="ocs"))
    state = run_stream(stream, cfg, out_dir=str(tmp_path))
    for name in ("accuracy_matrix.csv", "metrics.json", "coreset_dump.csv", "run_manifest.txt", "model.ckpt", "scores.csv"):
        assert os.path.exists(tmp_path / name), name

    blob = json.loads((tmp_path / "metrics.json").read_text())
    assert set(blob) == {"final_average_accuracy", "average_forgetting", "per_task_average_accuracy"}
    assert blob["final_average_accuracy"] == pytest.approx(np.nanmean(state.matrix.values[1]), abs=1e-9)
    assert len(blob["per_task_average_accuracy"]) == 2

    matrix_lines = (tmp_path / "accuracy_matrix.csv").read_text().strip().splitlines()
    assert matrix_lines[0] == "trained_through,task0,task1"
    assert len(matrix_lines) == 3
    assert matrix_lines[1].endswith(",")  # upper-triangle cell empty after task 0

    checkpoint = (tmp_path / "model.ckpt").read_bytes()
    assert checkpoint.split(b"\n", 1)[1] == flatten_params(state.params).astype("<f8").tobytes()

    manifest = (tmp_path / "run_manifest.txt").read_text()
    assert "strategy = ocs" in manifest and "kappa = 5" in manifest and "[stream]" in manifest
    assert "\ntau = 0.1234567\n" in manifest  # every digit of the float, as the other fields are written

    scores = (tmp_path / "scores.csv").read_text().splitlines()
    assert scores[0] == "iteration,index,similarity,diversity,affinity,selected"
    rows = [line.split(",") for line in scores[1:]]  # one per candidate per step, in step order
    assert [(int(r[0]), int(r[1])) for r in rows] == [(i, n) for i, (b, _, _) in enumerate(steps) for n in range(b)]
    assert [int(r[5]) for r in rows] == [int(n in selected) for b, selected, _ in steps for n in range(b)]
    # No replay gradient before the first commit, at the end of task 0: affinity is nan there and only there.
    assert [r[4] == "nan" for r in rows] == [task == 0 for b, _, task in steps for _ in range(b)]
    assert all(-1 <= float(r[2]) <= 1 and -1 <= float(r[3]) <= 0 for r in rows)

    dump_lines = (tmp_path / "coreset_dump.csv").read_text().strip().splitlines()
    assert len(dump_lines) == 1 + state.buffer.total_stored


@pytest.mark.parametrize("strategy", list(trainer.REGISTRY))
def test_run_stream_takes_its_input_width_from_the_stream(strategy):
    # Rows need not be 784 pixels wide for training; only the coreset dump format is fixed at 784 columns.
    rng = np.random.default_rng(12)

    def corpus(n):
        return Dataset(rng.uniform(size=(n, 12)), rng.integers(0, 10, size=n), np.arange(n))

    stream = build_permuted_stream(corpus(200), corpus(60), 2, 5, train_per_task=60, test_per_task=30)
    state = run_stream(stream, tiny_config(selection=SelectionConfig(kappa=5, tau=1000.0, strategy=strategy)))
    assert state.params.weights[0].shape == (16, 12)
    assert not np.isnan(state.matrix.values[1]).any()


def test_an_artifact_that_cannot_be_rendered_leaves_no_artifacts(tmp_path):
    # 12-pixel rows train, but the coreset dump holds 784 columns: the run fails before its directory is made.
    rng = np.random.default_rng(13)

    def corpus(n):
        return Dataset(rng.uniform(size=(n, 12)), rng.integers(0, 10, size=n), np.arange(n))

    stream = build_permuted_stream(corpus(200), corpus(60), 2, 5, train_per_task=60, test_per_task=30)
    out = tmp_path / "run"
    with pytest.raises(DimensionError, match=r"stored example has \(12,\) pixels"):
        run_stream(stream, tiny_config(selection=SelectionConfig(kappa=5, tau=1000.0, strategy="uniform")),
                   out_dir=str(out))
    assert not out.exists()


def test_a_failed_write_removes_the_artifacts_already_written(tmp_path, monkeypatch):
    real, written = ioutil.atomic_write_bytes, []

    def full_disk(path, data):  # the checkpoint is the last file written
        if os.path.basename(path) == "model.ckpt":
            raise OSError(28, "No space left on device", path)
        real(path, data)
        written.append(os.path.basename(path))

    monkeypatch.setattr(ioutil, "atomic_write_bytes", full_disk)
    with pytest.raises(OSError, match="No space left"):
        run_stream(tiny_stream(num_tasks=2), tiny_config(log_scores=True), out_dir=str(tmp_path))
    assert "metrics.json" in written and os.listdir(tmp_path) == []


def test_the_run_file_writer_refuses_a_name_outside_run_files(tmp_path):
    # clear_run_dir removes only RUN_FILES: a file under any other name would outlive the next run.
    (tmp_path / "metrics.json").write_text("an earlier run's\n")
    with pytest.raises(ContractError, match="'notes.txt' is not a run file"):
        trainer.write_run_files(str(tmp_path), {"model.ckpt": b"", "notes.txt": b"x"})
    assert os.listdir(tmp_path) == ["metrics.json"]
    assert (tmp_path / "metrics.json").read_text() == "an earlier run's\n"


def noisy_stream(kind, build=None):
    """Three noisy tasks of 100 rows; `build` defaults to the package's builder of `kind`."""
    build = build or {"rotate": build_rotated_stream, "permute": build_permuted_stream}[kind]
    return build(make_synthetic_corpus(300, 3), make_synthetic_corpus(100, 4), 3, 9, train_per_task=100,
                 test_per_task=40, noise_fraction=0.2)


def strategy_config(strategy, **overrides):
    return tiny_config(selection=SelectionConfig(kappa=5, tau=1000.0, strategy=strategy), **overrides)


def is_train_view(stream, view):
    return any(view is task.train for task in stream.tasks)


@pytest.mark.parametrize("strategy", list(trainer.REGISTRY))
@pytest.mark.parametrize("kind", ["rotate", "permute"])
def test_run_stream_never_materialises_a_train_set(monkeypatch, kind, strategy):
    # Only the train views are watched: the evaluations build the test views meanwhile.
    stream = noisy_stream(kind)
    assert all(isinstance(task.train, TaskView) for task in stream.tasks)
    sizes = []
    real_subset, real_x = TaskView.subset, TaskView.x

    def subset(view, indices):
        if is_train_view(stream, view):
            sizes.append(len(indices))
        return real_subset(view, indices)

    def whole(view):
        if is_train_view(stream, view):
            pytest.fail("a whole train set was built")
        return real_x.fget(view)

    monkeypatch.setattr(TaskView, "x", property(whole))
    monkeypatch.setattr(TaskView, "subset", subset)
    state = run_stream(stream, strategy_config(strategy, stream_batch_size=30, epochs=2))
    assert not np.isnan(state.matrix.values[2]).any()
    assert sizes == [30, 30, 30, 10] * 6  # the trainer's batches and nothing more


@pytest.mark.parametrize("strategy", list(trainer.REGISTRY))
def test_a_step_builds_each_row_it_reads_once_and_no_other(monkeypatch, strategy):
    # A uniform pick reads its kappa rows; OCS and k-means read every candidate; the reservoir reads its
    # picked rows and the rows that enter it. Rows are named by source index, unique within a task. Only the
    # train views are watched: the evaluations build the test views meanwhile.
    stream = noisy_stream("rotate")
    built, entered, steps = [], [], []
    real_pixels, real_offer, real_iteration = TaskView._pixels_of, ReservoirState.offer, trainer.train_iteration

    def pixels_of(view, positions):
        if is_train_view(stream, view):
            built.extend(view.source_index[positions].tolist())
        return real_pixels(view, positions)

    def offer(reservoir, task_id, rows):
        real_rows_subset = rows.subset
        rows.subset = lambda indices: entered.extend(np.asarray(indices).tolist()) or real_rows_subset(indices)
        real_offer(reservoir, task_id, rows)

    def iteration(state, batch, cfg):
        built.clear()
        entered.clear()
        info = real_iteration(state, batch, cfg)
        read = np.union1d(info.selected, np.array(entered, dtype=int))
        if strategy in ("ocs", "kmeans_embedding"):
            read = np.arange(len(batch))
        steps.append((len(batch), built[:], batch.source_index[read].tolist()))
        x, count = batch.x, len(built)  # read after the step, as the benchmark's OCS probe does:
        assert batch.x is x and len(built) == count  # a re-read builds nothing
        return info

    monkeypatch.setattr(TaskView, "_pixels_of", pixels_of)
    monkeypatch.setattr(ReservoirState, "offer", offer)
    monkeypatch.setattr(trainer, "train_iteration", iteration)
    kappa = 5
    run_stream(stream, strategy_config(strategy, stream_batch_size=30, epochs=2))
    assert len(steps) == 24
    for _, rows, read in steps:
        assert sorted(rows) == sorted(read)  # each row it reads, once
    if strategy == "uniform":
        assert all(len(rows) == kappa for _, rows, _ in steps)
    if strategy == "reservoir":
        assert any(len(rows) > kappa for _, rows, _ in steps)  # rows entered beyond the picks
        assert any(len(rows) < n for n, rows, _ in steps)  # past the fill, most candidates are never built


@pytest.mark.parametrize("kind", ["rotate", "permute"])
def test_each_evaluation_builds_its_test_set_once_and_drops_it(monkeypatch, kind):
    # A test set is a view: each matrix cell builds its pixels, on the evaluator thread or the trainer, and
    # drops them on return.
    stream = noisy_stream(kind)
    eager = noisy_stream(kind, build=functools.partial(oracles.build_stream, kind))
    builds, live, most_live = [], set(), [0]
    lock = threading.Lock()
    real_pixels, real_commit = TaskView._pixels_of, trainer.commit_current_task
    snapshots = []

    def dropped(key):
        with lock:
            live.discard(key)

    def pixels_of(view, positions):
        x = real_pixels(view, positions)
        if any(view is task.test for task in stream.tasks):
            with lock:
                builds.append(len(positions))
                live.add(id(x))
                most_live[0] = max(most_live[0], len(live))
            weakref.finalize(x, dropped, id(x))
        return x

    def capturing(state, cfg):
        record = real_commit(state, cfg)
        snapshots.append(state.params)
        return record

    monkeypatch.setattr(TaskView, "_pixels_of", pixels_of)
    monkeypatch.setattr(trainer, "commit_current_task", capturing)
    state = run_stream(stream, strategy_config("uniform"))
    assert builds == [40] * (1 + 2 + 3)  # one whole test set per matrix cell
    assert 1 <= most_live[0] <= 2 and not live  # the thread's and the trainer's, at most
    want = np.full((3, 3), np.nan)
    for t, params in enumerate(snapshots):
        for i, task in enumerate(eager.tasks[: t + 1]):
            want[t, i] = model.accuracy(params, task.test.x, task.test.y)
    assert np.array_equal(state.matrix.values, want, equal_nan=True)


@pytest.mark.parametrize("strategy", list(trainer.REGISTRY))
def test_a_run_over_views_writes_the_eager_streams_artifacts(tmp_path, strategy):
    cfg = strategy_config(strategy, stream_batch_size=30, epochs=2, log_scores=True)
    for name in ("views", "eager"):
        stream = noisy_stream("rotate", build=None if name == "views" else functools.partial(oracles.build_stream,
                                                                                             "rotate"))
        assert all(isinstance(task.train, TaskView) == (name == "views") for task in stream.tasks)
        run_stream(stream, cfg, out_dir=str(tmp_path / name))
    names = sorted(os.listdir(tmp_path / "eager"))
    assert sorted(os.listdir(tmp_path / "views")) == names and "coreset_dump.csv" in names
    for name in names:
        assert (tmp_path / "views" / name).read_bytes() == (tmp_path / "eager" / name).read_bytes(), name


def test_failed_run_raises_and_writes_no_artifacts(tmp_path, monkeypatch):
    real = trainer.train_iteration
    calls = []

    def failing(state, batch, cfg):
        calls.append(state.global_iteration)
        if len(calls) == 4:  # task 1, after task 0 was committed and evaluated
            raise RuntimeError("step failed")
        return real(state, batch, cfg)

    monkeypatch.setattr(trainer, "train_iteration", failing)
    with pytest.raises(RuntimeError, match="step failed"):
        run_stream(tiny_stream(num_tasks=2), tiny_config(), out_dir=str(tmp_path / "run"))
    assert not (tmp_path / "run" / "model.ckpt").exists()
    assert not (tmp_path / "run" / "metrics.json").exists()


@pytest.mark.parametrize("evaluator", ["thread", "trainer"])
def test_failed_evaluation_is_reported_before_a_later_training_failure(tmp_path, monkeypatch, evaluator):
    # Serial order: train 0, eval 0, train 1, eval 1 (fails), train 2 (fails). Task 1's evaluation is held
    # back until task 2's training has failed, so the run must pick the earlier failure itself. The first to
    # fail runs on the evaluator thread, or, with the thread held, on the trainer as it runs the backlog.
    real_commit, real_accuracy, real_iteration = trainer.commit_current_task, trainer.accuracy, trainer.train_iteration
    snapshots, failed_on_main = [], []
    task1_evaluating, train_failed = threading.Event(), threading.Event()
    release = hold_the_evaluator_thread(monkeypatch) if evaluator == "trainer" else threading.Event()

    def capturing(state, cfg):
        record = real_commit(state, cfg)
        snapshots.append(state.params)
        return record

    def evaluating(params, x, y):
        if len(snapshots) > 1 and params is snapshots[1]:
            failed_on_main.append(threading.current_thread() is threading.main_thread())
            task1_evaluating.set()
            train_failed.wait(timeout=30)
            release.set()
            raise DivergenceError("evaluation failed")
        return real_accuracy(params, x, y)

    def training(state, batch, cfg):
        if state.task_index == 2:
            if evaluator == "thread":
                task1_evaluating.wait(timeout=30)  # the trainer waits, so the thread takes task 1's first
            train_failed.set()
            raise RuntimeError("step failed")
        return real_iteration(state, batch, cfg)

    monkeypatch.setattr(trainer, "commit_current_task", capturing)
    monkeypatch.setattr(trainer, "accuracy", evaluating)
    monkeypatch.setattr(trainer, "train_iteration", training)
    with pytest.raises(DivergenceError) as info:
        run_stream(tiny_stream(num_tasks=3), tiny_config(), out_dir=str(tmp_path / "run"))
    assert str(info.value) == "run diverged at task 1, epoch 0, iteration 3, lr 0.04: evaluation failed"
    assert train_failed.is_set() and failed_on_main[0] == (evaluator == "trainer")
    assert not (tmp_path / "run").exists()


def failing_evaluations_and_a_held_step(monkeypatch, then, evaluator="thread"):
    """Every evaluation fails once task 1 has begun, and task 1's last step calls then().

    With evaluator "thread", that step first waits until task 0's evaluation has failed on the evaluator
    worker; with "trainer", the worker is held for the whole run, so the trainer runs every evaluation that
    runs. Returns the task index of every step begun, in order, and whether each failed evaluation ran on
    the main thread.
    """
    futures, tasks, failed_on_main = [], [], []
    real_iteration = trainer.train_iteration
    task1_began = threading.Event()
    if evaluator == "trainer":
        hold_the_evaluator_thread(monkeypatch)

    class RecordingPool(trainer.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            futures.append(super().submit(*args, **kwargs))
            return futures[-1]

    def evaluating(params, x, y):
        task1_began.wait(timeout=30)
        failed_on_main.append(threading.current_thread() is threading.main_thread())
        raise DivergenceError("evaluation failed")

    def training(state, batch, cfg):
        tasks.append(state.task_index)
        if state.task_index == 1:
            task1_began.set()
            if state.iteration_in_epoch == 2:  # 60 rows in steps of 20: task 1's last step
                if evaluator == "thread":
                    futures[0].exception(timeout=30)
                then()
        return real_iteration(state, batch, cfg)

    monkeypatch.setattr(trainer, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(trainer, "accuracy", evaluating)
    monkeypatch.setattr(trainer, "train_iteration", training)
    return tasks, failed_on_main


@pytest.mark.parametrize("evaluator", ["thread", "trainer"])
def test_training_stops_once_an_evaluation_has_failed(tmp_path, monkeypatch, evaluator):
    tasks, failed_on_main = failing_evaluations_and_a_held_step(monkeypatch, then=lambda: None, evaluator=evaluator)
    with pytest.raises(DivergenceError) as info:
        run_stream(tiny_stream(num_tasks=3), tiny_config(), out_dir=str(tmp_path / "run"))
    assert str(info.value) == "run diverged at task 0, epoch 0, iteration 3, lr 0.05: evaluation failed"
    assert tasks == [0, 0, 0, 1, 1, 1]  # task 2 never trains
    assert failed_on_main[0] == (evaluator == "trainer")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("evaluator", ["thread", "trainer"])
def test_a_failed_run_runs_no_evaluation_after_the_first_failure(monkeypatch, evaluator):
    # Task 0's failed evaluation ends the run, so the trainer takes back none of task 1's. With the worker
    # held, only task 0's evaluation runs; a free worker may begin task 1's before the pool is shut down.
    _, failed_on_main = failing_evaluations_and_a_held_step(monkeypatch, then=lambda: None, evaluator=evaluator)
    with pytest.raises(DivergenceError, match="at task 0, "):
        run_stream(tiny_stream(num_tasks=3), tiny_config())
    if evaluator == "trainer":
        assert failed_on_main == [True]
    else:
        assert 1 <= len(failed_on_main) <= 3 and not any(failed_on_main)


def test_an_interrupt_while_training_is_not_replaced_by_a_failed_evaluation(monkeypatch):
    def interrupt():
        raise KeyboardInterrupt

    tasks, _ = failing_evaluations_and_a_held_step(monkeypatch, then=interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_stream(tiny_stream(num_tasks=3), tiny_config())
    assert tasks == [0, 0, 0, 1, 1, 1]


@pytest.mark.parametrize("failure", [None, RuntimeError("step failed"), KeyboardInterrupt()])
def test_a_run_leaves_no_evaluator_thread_behind(monkeypatch, failure):
    real = trainer.train_iteration
    alive_in_task1 = []

    def evaluator_threads():
        return [thread for thread in threading.enumerate() if thread.name.startswith("coresel-eval")]

    def training(state, batch, cfg):
        if state.task_index == 1:
            alive_in_task1.append(bool(evaluator_threads()))  # task 0's evaluation has started the worker
            if failure is not None:
                raise failure
        return real(state, batch, cfg)

    monkeypatch.setattr(trainer, "train_iteration", training)
    if failure is None:
        run_stream(tiny_stream(num_tasks=2), tiny_config())
    else:
        with pytest.raises(type(failure)):
            run_stream(tiny_stream(num_tasks=2), tiny_config())
    assert alive_in_task1[0] and not evaluator_threads()


def test_run_metrics_rejects_an_unfinished_run():
    state = new_run_state(tiny_config(), num_tasks=2, input_dim=PIXELS)
    state.matrix.set(0, 0, 0.5)
    with pytest.raises(IncompleteMatrixError):
        trainer.run_metrics(state)


def test_commit_requires_staged_pool():
    cfg = tiny_config()
    state = new_run_state(cfg, num_tasks=1, input_dim=PIXELS)
    with pytest.raises(EmptyInputError, match="no staged candidates for task 0"):
        commit_current_task(state, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(selection=SelectionConfig(kappa=50, tau=1.0, strategy="ocs"))  # kappa > batch
    with pytest.raises(ValueError, match="unknown strategy 'herding'"):
        tiny_config(selection=SelectionConfig(kappa=5, strategy="herding"))  # not in REGISTRY
    with pytest.raises(ValueError):
        tiny_config(lr0=0.0)
    with pytest.raises(ValueError):
        tiny_config(lr_decay=0.0)
    with pytest.raises(ValueError):
        tiny_config(lam=-0.1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="lr0 must be positive and finite"):
            tiny_config(lr0=bad)
        with pytest.raises(ValueError, match="lambda must be nonnegative and finite"):
            tiny_config(lam=bad)
        with pytest.raises(ValueError, match="tau must be nonnegative and finite"):
            SelectionConfig(kappa=5, tau=bad)
    with pytest.raises(ValueError):
        tiny_config(epochs=0)
    with pytest.raises(ValueError, match="hidden widths must be >= 1"):
        tiny_config(hidden=(16, 0))
    with pytest.raises(ValueError, match=r"grad layers \(3,\) outside the network's layers 0..2"):
        tiny_config(hidden=(16, 16), grad_selector=GradSelector((3,)))
    tiny_config(hidden=(16, 16), grad_selector=GradSelector((0, 2)))
    tiny_config(hidden=(), grad_selector=GradSelector((0,)))  # no hidden layer: layer 0 is the output

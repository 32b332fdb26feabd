"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed in `setup` (timed as
`setup_s`), runs one round of identical operations in `run_round` (timed as
`run_s`), and checks that round's outputs in `check` (untimed). An operation
is one (strategy, seed) training run together with the checks of its outputs.
The program is called through module attributes, so the probes and tracer
installed on those attributes see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time

import numpy as np

import checks
import reference
import spans
from coresel import cli, datastream, trainer
from coresel.config import parse_config
from coresel.selection import SelectionConfig


PER_CLASS = 200


def derived_seeds(seed, count=3):
    """Independent non-negative seeds for the corpus, the test corpus and the run."""
    return [int(v) for v in np.random.SeedSequence(seed % 2**64).generate_state(count)]


def balanced_corpus(per_class, seed):
    """Synthetic corpus cut to exactly `per_class` rows of each class.

    Equal class counts make the imbalanced stream, and so the work of a round,
    the same size for every seed.
    """
    n = 13 * per_class
    while True:
        corpus = datastream.make_synthetic_corpus(n, seed)
        picks = [np.flatnonzero(corpus.y == c)[:per_class] for c in range(datastream.NUM_CLASSES)]
        if all(len(p) == per_class for p in picks):
            return corpus.subset(np.sort(np.concatenate(picks)))
        n *= 2


def offered(stream, epochs):
    return epochs * sum(len(task.train) for task in stream.tasks)


class _StreamWorkload:
    """A single `trainer.run_stream` call per round on a stream built in set-up."""

    ops_per_round = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.corpus_seed, self.test_seed, self.run_seed = derived_seeds(seed)

    def run_round(self, inputs):
        stream, cfg = inputs
        probe = self.probe()
        with spans.patched(probe.wrappers() if probe else {}):
            start = time.perf_counter()
            state = trainer.run_stream(stream, cfg)
            run_s = time.perf_counter() - start
        return run_s, (state, probe)

    def probe(self):
        return None

    def examples(self, inputs):
        stream, cfg = inputs
        return offered(stream, cfg.epochs)

    def check(self, inputs, result):
        stream, cfg = inputs
        state, probe = result
        p = state.params
        failures = checks.check_matrix(state.matrix.values, (p.weights, p.biases), stream, trainer.run_metrics(state))
        failures += checks.check_buffer(state.buffer_examples(), stream, cfg.buffer_capacity)
        if probe is not None:
            failures += checks.check_selection(probe) + checks.check_commits(probe)
        key = (cfg.selection.strategy, cfg.seed)
        return [(key, failures, checks.fingerprint(state.matrix.values, state.buffer_examples()))]


class OcsImbalanced(_StreamWorkload):
    """OCS on the class-imbalanced rotated stream, desk shape of acceptance criterion 7a.

    Stream batch 25, kappa 10, buffer 50, tau 1000 over two tasks; each task
    keeps 10% of 8 of 10 classes of a 2,000-row class-balanced corpus, so it
    holds 560 rows and a round takes 45 training steps and two commits.
    """

    name = "ocs-imbalanced"

    def setup(self):
        train = balanced_corpus(PER_CLASS, self.corpus_seed)
        test = datastream.make_synthetic_corpus(1000, self.test_seed)
        reduced = datastream.draw_reduced_classes(self.run_seed, 8)
        stream = datastream.build_rotated_stream(
            train, test, 2, self.run_seed, train_per_task=2000, test_per_task=500, imbalance=(reduced, 0.1)
        )
        cfg = trainer.TrainConfig(
            stream_batch_size=25,
            buffer_capacity=50,
            lr0=0.04,
            selection=SelectionConfig(kappa=10, tau=1000.0, strategy="ocs"),
            seed=self.run_seed,
        )
        return stream, cfg

    def probe(self):
        return checks.OcsProbe()


class ReplayAgemLong(_StreamWorkload):
    """Uniform selection with A-GEM over a 20-task permuted stream, buffer 200.

    The full-scale shape, lengthened to 2,000 rows per task: 400 steps, 20
    commits and 210 test-set passes per round. No candidate is scored.
    """

    name = "replay-agem-long"

    def setup(self):
        train = datastream.make_synthetic_corpus(4000, self.corpus_seed)
        test = datastream.make_synthetic_corpus(1000, self.test_seed)
        stream = datastream.build_permuted_stream(
            train, test, 20, self.run_seed, train_per_task=2000, test_per_task=500
        )
        cfg = trainer.TrainConfig(
            stream_batch_size=100,
            buffer_capacity=200,
            lr0=0.04,
            agem=True,
            selection=SelectionConfig(kappa=10, tau=1000.0, strategy="uniform"),
            seed=self.run_seed,
        )
        return stream, cfg


SWEEP_CONFIG = """\
[data]
source = synthetic
synthetic_train = 4000
synthetic_test = 1000

[stream]
kind = rotated
variant = noisy
noise_fraction = 0.2
num_tasks = 5
train_per_task = 2000
test_per_task = 500
master_seed = {master_seed}

[train]
stream_batch_size = 100
kappa = 10
buffer_capacity = 50
lr0 = 0.04

[experiment]
strategies = uniform,reservoir,kmeans_embedding
num_seeds = 2
seed0 = {seed0}
"""


class _RunCapture:
    """Keeps the final RunState of each (strategy, seed) run that `cli.run_experiment` makes."""

    def __init__(self):
        self.states = {}

    def wrappers(self):
        return {"coresel.cli:run_stream": self._wrap}

    def _wrap(self, original):
        def probe(stream, cfg, out_dir=None):
            state = original(stream, cfg, out_dir=out_dir)
            self.states[(cfg.selection.strategy, cfg.seed)] = state
            return state

        return probe


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh if line.strip()]


class SweepBaselines:
    """`coresel run` on a config: uniform, reservoir and k-means x 2 seeds, noisy rotated stream.

    Five tasks of 2,000 rows (20% replaced by noise), buffer 50. The command
    generates its corpus, builds a stream per run and writes every artifact
    and summary.csv; set-up builds the same corpus and streams independently
    for the checks.
    """

    name = "sweep-baselines"

    def __init__(self, seed, workdir):
        self.seed = seed
        master_seed, _, seed0 = derived_seeds(seed)
        self.config_path = os.path.join(workdir, "sweep.ini")
        self.output_dir = os.path.join(workdir, "runs")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(SWEEP_CONFIG.format(master_seed=master_seed, seed0=seed0))
        self.cfg = parse_config(self.config_path, {"output_dir": self.output_dir}, env={})
        self.ops_per_round = len(self.cfg.strategies) * self.cfg.num_seeds

    def setup(self):
        cfg = self.cfg
        train = datastream.make_synthetic_corpus(cfg.synthetic_train, cfg.master_seed)
        test = datastream.make_synthetic_corpus(cfg.synthetic_test, cfg.master_seed + 1)
        streams = {}
        for seed in range(cfg.seed0, cfg.seed0 + cfg.num_seeds):
            streams[seed] = datastream.build_rotated_stream(
                train, test, cfg.num_tasks, seed, train_per_task=cfg.train_per_task,
                test_per_task=cfg.test_per_task, noise_fraction=cfg.noise_fraction,
            )
        return streams

    def examples(self, streams):
        return len(self.cfg.strategies) * sum(offered(s, self.cfg.epochs) for s in streams.values())

    def run_round(self, streams):
        shutil.rmtree(self.output_dir, ignore_errors=True)
        capture = _RunCapture()
        argv = ["run", "--config", self.config_path, "--output-dir", self.output_dir]
        with spans.patched(capture.wrappers()), contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            run_s = time.perf_counter() - start
        return run_s, (code, capture.states)

    def check(self, streams, result):
        code, states = result
        cfg = self.cfg
        try:
            summary = {row[0]: row for row in _read_csv(os.path.join(self.output_dir, "summary.csv"))[1:]}
        except OSError as exc:
            summary = {}
            print(f"summary.csv unreadable: {exc}")
        out = []
        for strategy in cfg.strategies:
            ops, finals, forgettings = [], [], []
            for seed in range(cfg.seed0, cfg.seed0 + cfg.num_seeds):
                state = states.get((strategy, seed))
                failures = [] if code == 0 else [f"coresel run exited {code}"]
                try:
                    problems, final, forgetting = self._check_run(strategy, seed, state, streams[seed])
                    failures += problems
                    finals.append(final)
                    forgettings.append(forgetting)
                except (OSError, ValueError) as exc:
                    failures.append(f"run {strategy}-seed{seed} has no readable artifacts: {exc}")
                digest = checks.fingerprint(state.matrix.values, state.buffer_examples()) if state else None
                ops.append(((strategy, seed), failures, digest))
            row = summary.get(strategy)
            want = None
            if len(finals) == cfg.num_seeds:
                want = (np.mean(finals), np.std(finals, ddof=1), np.mean(forgettings), np.std(forgettings, ddof=1))
            if row is None or want is None or not all(
                abs(float(cell) - w) <= 1e-9 + 1e-5 * abs(w) for cell, w in zip(row[2:6], want)
            ):
                for _, failures, _ in ops:
                    failures.append(f"summary.csv row {row} does not match recomputed {want}")
            out += ops
        return out

    def _check_run(self, strategy, seed, state, stream):
        """(failures, final average accuracy, forgetting) of one run, from its artifacts and state."""
        run_dir = os.path.join(self.output_dir, f"{strategy}-seed{seed}")
        if state is None or os.path.exists(os.path.join(run_dir, "FAILED.txt")):
            raise ValueError("the run failed or was not made")
        rows = _read_csv(os.path.join(run_dir, "accuracy_matrix.csv"))[1:]
        written = np.array([[float(c) if c else np.nan for c in row[1:]] for row in rows])
        with open(os.path.join(run_dir, "metrics.json"), encoding="utf-8") as fh:
            metrics = json.load(fh)
        p = state.params
        failures = checks.check_matrix(state.matrix.values, (p.weights, p.biases), stream, metrics)
        weights, biases = reference.read_checkpoint(os.path.join(run_dir, "model.ckpt"))
        for i, task in enumerate(stream.tasks):
            right, near = reference.correct_counts(weights, biases, task.test.x, task.test.y)
            if abs(written[-1, i] * len(task.test.y) - right) > near + 1e-3:
                failures.append(f"model.ckpt gives {right}/{len(task.test.y)} on task {i}, matrix says {rows[-1][i + 1]}")
        reservoir = offered(stream, self.cfg.epochs) if strategy == "reservoir" else None
        failures += checks.check_buffer(state.buffer_examples(), stream, self.cfg.buffer_capacity, reservoir)
        return failures, reference.average_accuracy(written), reference.average_forgetting(written)


WORKLOADS = {w.name: w for w in (OcsImbalanced, ReplayAgemLong, SweepBaselines)}

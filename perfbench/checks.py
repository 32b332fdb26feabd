"""Output checks, run after each round outside the timed region.

The inputs some checks need are captured while the program runs, at its
public-function boundaries, by `OcsProbe`. Each check compares against
`reference` (written apart from the program) or tests a property the method
must have; none compares against stored output of an earlier version.
"""

from __future__ import annotations

import functools
import hashlib
from collections import Counter

import numpy as np

import reference

# Final average accuracy a working run clears on every workload; chance is 0.1,
# and a diverged run lands at chance.
ACCURACY_FLOOR = 0.25
# Top-kappa agreement tolerates reference/program score differences up to this
# times (2 + tau), the width of the score range.
SCORE_TOL = 1e-9
# Every SAMPLE_EVERY-th training step of an OCS round is re-scored.
SAMPLE_EVERY = 4


class OcsProbe:
    """Captures, for one run, what the OCS checks need.

    - sampled steps: parameters, candidate batch and replay batch going in,
      selected indices coming out of `trainer.train_iteration`;
    - every staged candidate's (source index, label) per task;
    - each committed slice's labels and quota, right after `Coreset.commit_task`.
    Parameters are immutable `ParamSet`s, so keeping a reference is enough.
    """

    def __init__(self):
        self.steps = []
        self.staged = {}
        self.commits = []
        self._calls = 0
        self._replay = None

    def wrappers(self):
        return {
            "coresel.trainer:train_iteration": self._wrap_iteration,
            "coresel.trainer:examples_as_arrays": self._wrap_examples,
            "coresel.replay:Coreset.stage_candidates": self._wrap_stage,
            "coresel.replay:Coreset.commit_task": self._wrap_commit,
        }

    def _wrap_iteration(self, original):
        @functools.wraps(original)
        def probe(state, batch, cfg):
            params, self._replay = state.params, None
            info = original(state, batch, cfg)
            if self._calls % SAMPLE_EVERY == 0:
                kappa = min(cfg.selection.kappa, batch.x.shape[0])
                self.steps.append((params, batch.x, batch.y, self._replay, info.selected, cfg, kappa))
            self._calls += 1
            return info

        return probe

    def _wrap_examples(self, original):
        @functools.wraps(original)
        def probe(examples):
            out = original(examples)
            self._replay = out
            return out

        return probe

    def _wrap_stage(self, original):
        @functools.wraps(original)
        def probe(coreset, task_id, x, y, source_index):
            original(coreset, task_id, x, y, source_index)
            self.staged.setdefault(int(task_id), {}).update(zip(np.asarray(source_index).tolist(), np.asarray(y).tolist()))

        return probe

    def _wrap_commit(self, original):
        @functools.wraps(original)
        def probe(coreset, task_id, ranking, class_balanced=True):
            record = original(coreset, task_id, ranking, class_balanced)
            labels = [e.y for e in coreset.stored(task_id)]
            self.commits.append((int(task_id), record.quota, labels, coreset.num_classes))
            return record

        return probe


def check_selection(probe):
    """At sampled steps the selected set is a top-kappa set of S + V + tau*A."""
    failures = []
    for params, x, y, replay, selected, cfg, kappa in probe.steps:
        if cfg.grad_selector is not None:
            failures.append("selection check covers whole-network gradients only")
            continue
        w, b = params.weights, params.biases
        grads = reference.example_gradients(w, b, x, y)
        ref = None if replay is None else reference.example_gradients(w, b, *replay).mean(axis=0)
        tau = cfg.selection.tau
        scores = reference.ocs_scores(grads, ref, tau)
        if not reference.topk_agrees(selected, scores, kappa, SCORE_TOL * (2.0 + tau)):
            top = np.sort(np.argsort(-scores, kind="stable")[:kappa])
            failures.append(f"selected {selected.tolist()} but reference top-{kappa} is {top.tolist()}")
    if not probe.steps:
        failures.append("no training step was captured")
    return failures


def check_commits(probe):
    """Each committed slice is class-balanced against the quota it was cut to.

    With base = quota // classes, every class keeps at least min(distinct
    staged, base). When the pool can fill the quota at base + 1 per class,
    no class exceeds base + 1, so classes with enough candidates differ by at
    most one; otherwise every class with base + 1 candidates keeps base + 1
    and only the spill-over left by class-poor classes goes beyond it.
    """
    failures = []
    for task_id, quota, labels, num_classes in probe.commits:
        have = Counter(probe.staged.get(task_id, {}).values())
        kept = Counter(labels)
        base = quota // num_classes
        classes = range(num_classes)
        if len(labels) != min(quota, sum(have.values())):
            failures.append(f"task {task_id}: kept {len(labels)} of quota {quota} from {sum(have.values())} distinct")
        if any(kept[c] > have[c] or kept[c] < min(have[c], base) for c in classes):
            failures.append(f"task {task_id}: class counts {dict(kept)} miss the base share of {dict(have)}")
        enough = [c for c in classes if have[c] >= base + 1]
        if sum(min(have[c], base + 1) for c in classes) >= quota:
            if any(kept[c] > base + 1 for c in classes):
                failures.append(f"task {task_id}: class counts {dict(kept)} exceed base + 1 = {base + 1}")
        elif any(kept[c] < base + 1 for c in enough):
            failures.append(f"task {task_id}: class-poor pool left a class below base + 1: {dict(kept)}")
    if not probe.commits:
        failures.append("no commit was captured")
    return failures


def check_matrix(matrix, params, stream, metrics):
    """Last row against the reference forward pass; A and F against the formulas; accuracy floor."""
    failures = []
    t_last = len(stream.tasks) - 1
    for i, task in enumerate(stream.tasks):
        right, near = reference.correct_counts(params[0], params[1], task.test.x, task.test.y)
        if abs(matrix[t_last, i] * len(task.test.y) - right) > near + 1e-3:
            failures.append(f"accuracy on task {i} is {matrix[t_last, i]}, reference {right}/{len(task.test.y)}")
    accuracy = reference.average_accuracy(matrix)
    forgetting = reference.average_forgetting(matrix)
    if abs(metrics["final_average_accuracy"] - accuracy) > 1e-9:
        failures.append(f"final_average_accuracy {metrics['final_average_accuracy']} != {accuracy}")
    if abs(metrics["average_forgetting"] - forgetting) > 1e-9:
        failures.append(f"average_forgetting {metrics['average_forgetting']} != {forgetting}")
    if not accuracy >= ACCURACY_FLOOR:
        failures.append(f"final average accuracy {accuracy} below the floor {ACCURACY_FLOOR}")
    return failures


def _train_rows(stream):
    return [dict(zip(task.train.source_index.tolist(), range(len(task.train)))) for task in stream.tasks]


def check_buffer(examples, stream, capacity, reservoir_offered=None):
    """Capacity, per-task quota (coreset) or exact fill (reservoir), and stored rows equal stream rows."""
    failures = []
    if len(examples) > capacity:
        failures.append(f"buffer holds {len(examples)} > capacity {capacity}")
    if reservoir_offered is not None:
        if len(examples) != min(capacity, reservoir_offered):
            failures.append(f"reservoir holds {len(examples)}, expected min({capacity}, {reservoir_offered})")
    else:
        quota = capacity // len(stream.tasks)
        for task_id, count in Counter(e.task_id for e in examples).items():
            if count > quota:
                failures.append(f"task {task_id} holds {count} > floor(J/T) = {quota}")
    rows = _train_rows(stream)
    for e in examples:
        pos = rows[e.task_id].get(e.source_index) if 0 <= e.task_id < len(rows) else None
        train = stream.tasks[e.task_id].train if pos is not None else None
        if pos is None or e.y != train.y[pos] or not np.array_equal(e.x, train.x[pos]):
            failures.append(f"stored example (task {e.task_id}, source {e.source_index}) differs from its stream row")
            break
    return failures


def fingerprint(matrix, examples):
    """Digest of the accuracy matrix and the buffer's rows, for the rerun check."""
    h = hashlib.sha256(np.ascontiguousarray(matrix).tobytes())
    for e in examples:
        h.update(f"{e.task_id},{e.source_index},{e.y};".encode())
        h.update(np.ascontiguousarray(e.x).tobytes())
    return h.hexdigest()

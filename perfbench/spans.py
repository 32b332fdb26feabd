"""Spans recorded around calls into coresel's public functions, for the traced run.

Each function is wrapped where its caller looks it up (the module global a
caller reads, or the method on `replay.Coreset`), and only while a `Tracer`
is installed. A span holds its name, start, end, parent span and the phase
(one set-up or one round) it ran in, plus sizes taken from the shapes of the
arguments and results. Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time


def _lead(v):
    """Leading dimension of an array, a list, or a PerExampleGrads."""
    return len(getattr(v, "matrix", v))


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _per_example_stats(args, kwargs, out):
    params = _arg(args, kwargs, 0, "params")
    rows = _lead(_arg(args, kwargs, 1, "x"))
    selector = args[3] if len(args) > 3 else kwargs.get("selector")
    layers = range(len(params.weights)) if selector is None else selector.layers
    stats = {"rows": rows, "bytes": out.matrix.nbytes}
    for l in layers:
        stats[f"layer{l}.bytes"] = rows * (params.weights[l].size + params.biases[l].size) * 8
    return stats


def _rows_of(i, name):
    return lambda args, kwargs, out: {"rows": _lead(_arg(args, kwargs, i, name))}


def _checkpoint_stats(args, kwargs, out):
    params = _arg(args, kwargs, 0, "params")
    return {"bytes": 8 * sum(w.size + b.size for w, b in zip(params.weights, params.biases))}


_SELF = ("self_s",)
_CALLS = ("calls", "self_s")

# span name -> (places its callers look it up, sizes to record, statistics
# reported). "module:attribute" is a module global, "module:Class.method" a
# method.
TARGETS = {
    "model.per_example_gradients": (
        ("coresel.trainer:per_example_gradients",), _per_example_stats,
        ("calls", "rows", "bytes", "self_s", "layer0.bytes", "layer1.bytes", "layer2.bytes"),
    ),
    "selection.score_batch": (("coresel.trainer:score_batch",), _rows_of(0, "grads"), ("calls", "rows", "self_s")),
    "selection.cosines_to_vector": (
        ("coresel.selection:cosines_to_vector", "coresel.trainer:cosines_to_vector"), None, _CALLS),
    "selection.select_topk": (("coresel.trainer:select_topk",), None, _SELF),
    "trainer.commit_current_task": (("coresel.trainer:commit_current_task",), None, _CALLS),
    "model.mean_gradient": (("coresel.trainer:mean_gradient",), _rows_of(1, "x"), ("calls", "rows", "self_s")),
    "model.sgd_step": (("coresel.trainer:sgd_step",), None, _CALLS),
    "trainer.agem_project": (("coresel.trainer:agem_project",), None, _CALLS),
    "model.accuracy": (("coresel.trainer:accuracy",), _rows_of(1, "x"), ("calls", "rows", "self_s")),
    "replay.sample_items": (("coresel.trainer:sample_items",), None, _CALLS),
    "replay.examples_as_arrays": (
        ("coresel.trainer:examples_as_arrays",), _rows_of(0, "examples"), ("calls", "rows", "self_s")),
    "replay.Coreset.stage_candidates": (
        ("coresel.replay:Coreset.stage_candidates",), _rows_of(2, "x"), ("rows", "self_s")),
    "replay.Coreset.commit_task": (("coresel.replay:Coreset.commit_task",), None, _CALLS),
    "trainer.train_iteration": (
        ("coresel.trainer:train_iteration",), None, ("calls", "self_s", "p50_ms", "p90_ms")),
    "trainer.run_stream": (("coresel.cli:run_stream", "coresel.trainer:run_stream"), None, _SELF),
    "selection.kmeans_embedding_select": (("coresel.trainer:kmeans_embedding_select",), None, _CALLS),
    "selection.reservoir_update": (("coresel.trainer:reservoir_update",), None, _CALLS),
    "model.embeddings": (("coresel.trainer:embeddings",), None, _CALLS),
    "replay.write_dump": (("coresel.trainer:write_dump",), _rows_of(0, "examples"), ("rows", "self_s")),
    "model.save_checkpoint": (("coresel.trainer:save_checkpoint",), _checkpoint_stats, ("bytes", "self_s")),
    "ioutil.atomic_write_bytes": (
        ("coresel.ioutil:atomic_write_bytes", "coresel.model:atomic_write_bytes"),
        lambda args, kwargs, out: {"bytes": len(_arg(args, kwargs, 1, "data"))},
        ("calls", "bytes", "self_s"),
    ),
    "datastream.make_synthetic_corpus": (
        ("coresel.datastream:make_synthetic_corpus", "coresel.cli:make_synthetic_corpus"),
        lambda args, kwargs, out: {"rows": int(_arg(args, kwargs, 0, "n"))},
        ("rows", "self_s"),
    ),
    "datastream.build_rotated_stream": (
        ("coresel.datastream:build_rotated_stream", "coresel.cli:build_rotated_stream"), None, _CALLS),
    "datastream.build_permuted_stream": (
        ("coresel.datastream:build_permuted_stream", "coresel.cli:build_permuted_stream"), None, _CALLS),
    "datastream.rotate_dataset": (("coresel.datastream:rotate_dataset",), None, _CALLS),
    "cli.build_stream": (("coresel.cli:build_stream",), None, _CALLS),
    "cli.run_experiment": (("coresel.cli:run_experiment",), None, _SELF),
    "config.parse_config": (("coresel.cli:parse_config",), None, _SELF),
}
TRACE_METRICS = ("trace.overhead_s", "trace.self_total_s", "trace.untraced_run_s")

UNITS = {"calls": "count", "rows": "rows", "bytes": "B", "self_s": "s", "p50_ms": "ms", "p90_ms": "ms"}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {f"{name}.{stat}": UNITS[stat.rsplit(".", 1)[-1]] for name, (_, _, stats) in TARGETS.items() for stat in stats}
    out.update({name: "s" for name in TRACE_METRICS})
    return out


def _resolve(place):
    module_name, attr = place.split(":")
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextlib.contextmanager
def patched(wrappers):
    """Install `wrappers` (place -> function taking the original) for the block.

    A place that no longer exists is skipped: a function the program stops
    calling reports zero calls.
    """
    saved = []
    try:
        for place, make in wrappers.items():
            try:
                owner, leaf = _resolve(place)
            except AttributeError:
                continue
            original = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
            if original is None:
                continue
            saved.append((owner, leaf, original))
            setattr(owner, leaf, make(original))
        yield
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


class Tracer:
    """In-memory span recorder; `phase` tags spans with the set-up or round they ran in."""

    def __init__(self):
        self.records = []  # [name, start, end, parent index, phase, sizes or None]
        self._stack = []
        self.phase = None

    def wrapper(self, name, sizes):
        """Make a function that runs the original inside a span called `name`."""

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.phase, None]
                self._stack.append(len(self.records))
                self.records.append(record)
                record[1] = time.perf_counter()
                try:
                    out = original(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    self._stack.pop()
                if sizes is not None:
                    record[5] = sizes(args, kwargs, out)
                return out

            return traced

        return make

    def installed(self):
        """Context manager that wraps every target for the duration of the block."""
        wrappers = {}
        for name, (places, sizes, _) in TARGETS.items():
            for place in places:
                wrappers[place] = self.wrapper(name, sizes)
        return patched(wrappers)

    def phase_totals(self):
        """phase -> span name -> summed statistics, with self time = span minus children."""
        child = [0.0] * len(self.records)
        for name, start, end, parent, phase, sizes in self.records:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, parent, phase, sizes) in enumerate(self.records):
            entry = totals.setdefault(phase, {}).setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[i]
            entry["durations"].append(end - start)
            for key, value in (sizes or {}).items():
                entry[key] = entry.get(key, 0) + value
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, phase, sizes in self.records:
                fh.write(json.dumps([name, start, end, parent, phase, sizes]) + "\n")


def per_layer(tracer, setup_phase, round_phases, untraced_run_s, traced_run_s):
    """Per-layer metrics for one set-up plus one round.

    Counts, rows and bytes are the set-up's plus the mean over traced rounds
    (every round does the same work); times are the set-up's plus the median
    over traced rounds.
    """
    totals = tracer.phase_totals()
    setup = totals.get(setup_phase, {})
    rounds = [totals.get(p, {}) for p in round_phases]
    out = {}
    for name, (_, _, stats) in TARGETS.items():
        for stat in stats:
            if stat in ("p50_ms", "p90_ms"):
                durations = [d for r in rounds for d in r.get(name, {}).get("durations", [])]
                if len(durations) < 2:
                    value = 0.0
                elif stat == "p50_ms":
                    value = 1e3 * statistics.median(durations)
                else:
                    value = 1e3 * statistics.quantiles(durations, n=10)[8]
            else:
                in_rounds = [r.get(name, {}).get(stat, 0) for r in rounds]
                per_round = statistics.median(in_rounds) if stat == "self_s" else sum(in_rounds) / len(in_rounds)
                value = setup.get(name, {}).get(stat, 0) + per_round
            out[f"{name}.{stat}"] = float(value)
    out["trace.self_total_s"] = statistics.median(
        sum(entry["self_s"] for entry in r.values()) for r in rounds
    )
    out["trace.untraced_run_s"] = untraced_run_s
    out["trace.overhead_s"] = traced_run_s - untraced_run_s
    return out

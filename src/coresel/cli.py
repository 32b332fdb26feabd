"""Command-line entry points: run experiments, diagnose gradients, dump coresets.

`coresel run` executes every (strategy, seed) pair into its own run directory
and aggregates final accuracy and forgetting into summary.csv. A failed run is
recorded (FAILED.txt in its directory) without stopping the sweep; the exit
code is 0 when everything succeeded, 1 for configuration errors, corpora
that fail to load and output paths that cannot be written, 2 when some runs
failed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import FULL_DATASET, ExperimentConfig, known_keys, parse_config, render_manifest
from .datastream import (
    NUM_CLASSES,
    Dataset,
    TaskStream,
    build_permuted_stream,
    build_rotated_stream,
    draw_reduced_classes,
    load_idx,
    make_synthetic_corpus,
    permute_pixels,
)
from .errors import ConfigError, FormatError
from .ioutil import atomic_write_text
from .metrics import grad_approx_diagnostic
from .model import init_params
from .replay import format_sig
from .trainer import run_metrics, run_stream

_DUMP_HEADER_PREFIX = "task_id,class,example_index_in_source,px0"


def load_corpora(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    if cfg.source == "idx":
        train = load_idx(cfg.train_images, cfg.train_labels)
        test = load_idx(cfg.test_images, cfg.test_labels)
    else:
        train = make_synthetic_corpus(cfg.synthetic_train, cfg.master_seed)
        test = make_synthetic_corpus(cfg.synthetic_test, cfg.master_seed + 1)
    return train, test


def build_stream(cfg: ExperimentConfig, train: Dataset, test: Dataset, run_seed: int) -> TaskStream:
    imbalance = None
    noise = 0.0
    if cfg.variant == "imbalanced":
        imbalance = (draw_reduced_classes(run_seed, cfg.imbalance_reduced), cfg.imbalance_keep)
    elif cfg.variant == "noisy":
        noise = cfg.noise_fraction
    builder = build_rotated_stream if cfg.kind == "rotated" else build_permuted_stream
    return builder(
        train,
        test,
        cfg.num_tasks,
        run_seed,
        train_per_task=cfg.train_per_task,
        test_per_task=cfg.test_per_task,
        imbalance=imbalance,
        noise_fraction=noise,
    )


def _mean_std(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return float(np.mean(arr)), std


def _load_or_report(cfg: ExperimentConfig, log) -> tuple[Dataset, Dataset] | None:
    """The corpora, or None after one `corpus error:` line when a file is missing or malformed."""
    try:
        return load_corpora(cfg)
    except (FormatError, OSError) as exc:
        log(f"corpus error: {exc}", file=sys.stderr)
        return None


def _output_error(path: str, exc: OSError, log) -> int:
    """Exit code 1 after one `output error:` line that names the path as the user gave it."""
    log(f"output error: {path}: {exc.strerror or exc}", file=sys.stderr)
    return 1


def run_experiment(cfg: ExperimentConfig, log=print) -> int:
    corpora = _load_or_report(cfg, log)
    if corpora is None:
        return 1
    train, test = corpora
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        atomic_write_text(os.path.join(cfg.output_dir, "run_manifest.ini"), render_manifest(cfg))
    except OSError as exc:
        return _output_error(cfg.output_dir, exc, log)
    finished = {strategy: [] for strategy in cfg.strategies}  # (final accuracy, forgetting) per run
    failures = 0
    # Seeds outside, strategies inside: one stream per seed serves every strategy.
    for k in range(cfg.num_seeds):
        run_seed = cfg.seed0 + k
        stream = stream_error = None  # drop the previous seed's stream before building the next
        try:
            stream = build_stream(cfg, train, test, run_seed)
        except Exception as exc:  # fails every run on this seed
            stream_error = exc
        for strategy in cfg.strategies:
            run_dir = os.path.join(cfg.output_dir, f"{strategy}-seed{run_seed}")
            try:
                if stream_error is not None:
                    raise stream_error
                state = run_stream(stream, cfg.train_config(strategy, run_seed), out_dir=run_dir)
                summary = run_metrics(state)
                finished[strategy].append((summary["final_average_accuracy"], summary["average_forgetting"]))
                log(f"{strategy} seed {run_seed}: accuracy {summary['final_average_accuracy']:.4f}")
            except Exception as exc:  # a broken run must not sink the sweep
                failures += 1
                text = f"{type(exc).__name__}: {exc}"
                if exc is stream_error:
                    text = f"stream for seed {run_seed} failed to build: {text}"
                os.makedirs(run_dir, exist_ok=True)
                atomic_write_text(os.path.join(run_dir, "FAILED.txt"), text + "\n")
                log(f"{strategy} seed {run_seed} FAILED: {text}", file=sys.stderr)
    rows = []
    for strategy in cfg.strategies:
        runs = finished[strategy]
        if runs:
            acc_mean, acc_std = _mean_std([acc for acc, _ in runs])
            f_mean, f_std = _mean_std([f for _, f in runs])
            cells = [format_sig(v) for v in (acc_mean, acc_std, f_mean, f_std)]
        else:
            cells = ["", "", "", ""]
        rows.append([strategy, str(len(runs))] + cells)
    lines = ["strategy,runs,accuracy_mean,accuracy_std,forgetting_mean,forgetting_std"]
    lines.extend(",".join(row) for row in rows)
    atomic_write_text(os.path.join(cfg.output_dir, "summary.csv"), "\n".join(lines) + "\n")
    log(f"summary written to {os.path.join(cfg.output_dir, 'summary.csv')}")
    return 0 if failures == 0 else 2


def run_diagnose(cfg: ExperimentConfig, log=print) -> int:
    corpora = _load_or_report(cfg, log)
    if corpora is None:
        return 1
    train, _ = corpora
    sizes = tuple(train.x.shape[0] if s == FULL_DATASET else s for s in cfg.batch_sizes)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed]))
    params = init_params([train.x.shape[1], *cfg.hidden, NUM_CLASSES], rng)
    other = permute_pixels(train, np.random.SeedSequence([cfg.master_seed, 1])) if cfg.cross else None
    table = grad_approx_diagnostic(
        params, train, sizes, n_batches=cfg.n_batches, seed=cfg.master_seed, other_dataset=other
    )
    lines = ["batch_size,mean_l2,mean_cosine,cross_l2,cross_cosine"]
    for row in table:
        cross_l2 = format_sig(row.cross_l2) if row.cross_l2 is not None else ""
        cross_cos = format_sig(row.cross_cosine) if row.cross_cosine is not None else ""
        lines.append(f"{row.batch_size},{format_sig(row.mean_l2)},{format_sig(row.mean_cosine)},{cross_l2},{cross_cos}")
    path = os.path.join(cfg.output_dir, "diagnostic_table.csv")
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        atomic_write_text(path, "\n".join(lines) + "\n")
    except OSError as exc:
        return _output_error(cfg.output_dir, exc, log)
    log(f"diagnostic table written to {path}")
    return 0


def dump_coreset(run_dir: str, out: str | None, log=print) -> int:
    path = os.path.join(run_dir, "coreset_dump.csv")
    if not os.path.exists(path):
        log(f"no coreset dump found at {path}", file=sys.stderr)
        return 1
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text.startswith(_DUMP_HEADER_PREFIX):
        log(f"{path} does not look like a coreset dump", file=sys.stderr)
        return 1
    if out is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # Downstream closed the pipe (e.g. `| head`); silence the
            # interpreter's shutdown flush as well.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    else:
        try:
            atomic_write_text(out, text)
        except OSError as exc:
            return _output_error(out, exc, log)
        log(f"coreset dump written to {out}")
    return 0


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="config file (key = value with [section] headers)")
    for key in known_keys():
        parser.add_argument(f"--{key.replace('_', '-')}", dest=f"k_{key}", metavar="VALUE", help=argparse.SUPPRESS)


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    for key in known_keys():
        raw = getattr(args, f"k_{key}", None)
        if raw is not None:
            overrides[key] = raw
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coresel", description="Online coreset selection benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run every (strategy, seed) pair and aggregate a summary")
    _add_config_flags(run_p)
    diag_p = sub.add_parser("diagnose", help="measure how well minibatch gradients track the full-dataset gradient")
    _add_config_flags(diag_p)
    dump_p = sub.add_parser("dump-coreset", help="print or copy the coreset dump of a finished run")
    dump_p.add_argument("run_dir", help="run directory containing coreset_dump.csv")
    dump_p.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "dump-coreset":
        return dump_coreset(args.run_dir, args.out)
    try:
        cfg = parse_config(args.config, _collect_overrides(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.command == "diagnose":
        return run_diagnose(cfg)
    return run_experiment(cfg)


if __name__ == "__main__":
    raise SystemExit(main())

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
import errno
import os
import re
import sys

import numpy as np

from .config import FULL_DATASET, ExperimentConfig, known_keys, parse_config, render_manifest
from .datastream import (
    NUM_CLASSES,
    PIXELS,
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
from .replay import DUMP_HEADER, format_sig
from .seeds import derive
from .trainer import REGISTRY, TrainConfig, clear_run_dir, run_metrics, run_stream, write_run_files


def load_train_corpus(cfg: ExperimentConfig) -> Dataset:
    if cfg.source == "idx":
        return load_idx(cfg.train_images, cfg.train_labels)
    return make_synthetic_corpus(cfg.synthetic_train, cfg.master_seed)


def load_corpora(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    train = load_train_corpus(cfg)
    if cfg.source == "idx":
        return train, load_idx(cfg.test_images, cfg.test_labels)
    return train, make_synthetic_corpus(cfg.synthetic_test, cfg.master_seed + 1)


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


class _Refused(Exception):
    """A refusal: `main` prints its one line on stderr and returns exit code 1."""


def _output_refused(path: str, exc: OSError) -> _Refused:
    """The `output error:` refusal, naming the path as the user gave it."""
    return _Refused(f"output error: {path}: {exc.strerror or exc}")


def _load(cfg: ExperimentConfig, load):
    """`load(cfg)`, the corpora a command needs, or one `corpus error:` refusal when a file is missing or malformed.

    A file where the output directory must go is refused first with the error
    os.makedirs would raise, found without creating anything, so no corpus is built in vain.
    """
    ancestor = cfg.output_dir  # not normalised: "a-file/../x" must fail here as it does in makedirs
    while ancestor and not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if ancestor and not os.path.isdir(ancestor):  # "" is the working directory
        code = errno.EEXIST if ancestor == cfg.output_dir else errno.ENOTDIR
        raise _output_refused(cfg.output_dir, OSError(code, os.strerror(code)))
    try:
        return load(cfg)
    except (FormatError, OSError) as exc:
        raise _Refused(f"corpus error: {exc}") from None


_RUN_DIR = re.compile(r"(.+)-seed(0|[1-9][0-9]*)")  # <strategy>-seed<N>, as run_experiment names a run directory


def _remove_dropped_runs(cfg: ExperimentConfig) -> None:
    """Remove the RUN_FILES of each run directory this sweep does not write, then the directory if empty."""
    written = {f"{strategy}-seed{cfg.seed0 + k}" for strategy in cfg.strategies for k in range(cfg.num_seeds)}
    for entry in os.scandir(cfg.output_dir):
        match = _RUN_DIR.fullmatch(entry.name)
        if match and match[1] in REGISTRY and entry.name not in written and entry.is_dir(follow_symlinks=False):
            clear_run_dir(entry.path)
            if not os.listdir(entry.path):
                os.rmdir(entry.path)


def run_experiment(cfg: ExperimentConfig) -> int:
    if cfg.agem and cfg.lam != TrainConfig.lam:  # A-GEM's objective has no replay term for lambda to weigh
        print("note: lambda has no effect with agem = true", file=sys.stderr)
    train, test = _load(cfg, load_corpora)
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        atomic_write_text(os.path.join(cfg.output_dir, "run_manifest.ini"), render_manifest(cfg))
        _remove_dropped_runs(cfg)
    except OSError as exc:
        raise _output_refused(cfg.output_dir, exc) from None
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
                print(f"{strategy} seed {run_seed}: accuracy {summary['final_average_accuracy']:.4f}")
            except Exception as exc:  # a broken run must not sink the sweep
                failures += 1
                text = f"{type(exc).__name__}: {exc}"
                if exc is stream_error:
                    text = f"stream for seed {run_seed} failed to build: {text}"
                write_run_files(run_dir, {"FAILED.txt": f"{text}\n".encode("utf-8")})
                print(f"{strategy} seed {run_seed} FAILED: {text}", file=sys.stderr)
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
    print(f"summary written to {os.path.join(cfg.output_dir, 'summary.csv')}")
    return 0 if failures == 0 else 2


def run_diagnose(cfg: ExperimentConfig) -> int:
    train = _load(cfg, load_train_corpus)  # the diagnostic reads no test corpus
    sizes = tuple(train.x.shape[0] if s == FULL_DATASET else s for s in cfg.batch_sizes)
    rng = np.random.default_rng(derive(cfg.master_seed, "diagnose_init"))
    params = init_params([PIXELS, *cfg.hidden, NUM_CLASSES], rng)
    other = permute_pixels(train, derive(cfg.master_seed, "diagnose_cross")) if cfg.cross else None
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
        raise _output_refused(cfg.output_dir, exc) from None
    print(f"diagnostic table written to {path}")
    return 0


def dump_coreset(run_dir: str, out: str | None) -> int:
    path = os.path.join(run_dir, "coreset_dump.csv")
    if not os.path.exists(path):
        raise _Refused(f"no coreset dump found at {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Refused(f"cannot read coreset dump {path}: {exc}") from None
    if text.split("\n", 1)[0] != DUMP_HEADER:
        raise _Refused(f"{path} does not look like a coreset dump")
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
            raise _output_refused(out, exc) from None
        print(f"coreset dump written to {out}")
    return 0


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="config file (key = value with [section] headers)")
    for key in known_keys():
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, metavar="VALUE", help=argparse.SUPPRESS)


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
    """Exit code 0 or 2 from a command, or 1 after its one refusal line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "dump-coreset":
            return dump_coreset(args.run_dir, args.out)
        overrides = {key: getattr(args, key) for key in known_keys() if getattr(args, key) is not None}
        cfg = parse_config(args.config, overrides)
        return run_diagnose(cfg) if args.command == "diagnose" else run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
    except _Refused as exc:
        print(exc, file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())

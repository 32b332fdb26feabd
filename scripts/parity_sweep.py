#!/usr/bin/env python3
"""Byte-parity sweep: the tiny four-strategy run under every objective variant and every stream, and a tiny diagnose.

Runs `coresel run` on three 60-row synthetic tasks (batch 20, kappa 5, buffer
20, replay batch 5) for ocs, uniform, reservoir and kmeans_embedding x 2 seeds
with per-candidate score logs, which only the OCS runs write. On the rotated
balanced stream it runs once for each combination of --lambda {1.0, 0.0},
--agem {false, true} and --grad-layers {all, 1,2}; the other five --kind
{rotated, permuted} x --variant {balanced, imbalanced, noisy} streams run once
each at the default objective. Last, `coresel diagnose` runs once on a
300-row synthetic corpus (batch sizes 10 and full, 2 batches each), whose
cross-dataset columns come from the corpus's permuted copy. Each of the 13
configurations and the diagnose run writes its own subdirectory of OUT_DIR
(14 subdirectories, 573 files). BLAS is pinned to one thread, because the
thread count changes checkpoint bits.

Two checkouts are at parity where their outputs compare equal:

    PYTHONPATH=/path/to/old/src python3 scripts/parity_sweep.py out_old
    PYTHONPATH=src python3 scripts/parity_sweep.py out_new --against out_old

With `--against OLD_DIR`, the sweep ends by listing every file of OUT_DIR
that differs from its namesake in OLD_DIR, or that only one of the two holds,
then prints how many files it compared and how many differ, and exits 1 if
any differs. The comparison ignores only the `output_dir` line of each
`run_manifest.ini`, which names its own directory.
"""

import argparse
import itertools
import os
import sys

TINY_SWEEP = [
    "run", "--synthetic-train", "300", "--synthetic-test", "120", "--num-tasks", "3", "--train-per-task", "60",
    "--test-per-task", "30", "--stream-batch-size", "20", "--kappa", "5", "--buffer-capacity", "20",
    "--buffer-batch-size", "5", "--strategies", "ocs,uniform,reservoir,kmeans_embedding", "--num-seeds", "2",
    "--log-scores", "true",
]
OBJECTIVES = {"lambda": ("1.0", "0.0"), "agem": ("false", "true"), "grad-layers": ("all", "1,2")}
STREAMS = [("rotated", "imbalanced"), ("rotated", "noisy"), ("permuted", "balanced"), ("permuted", "imbalanced"),
           ("permuted", "noisy")]
TINY_DIAGNOSE = ["diagnose", "--synthetic-train", "300", "--batch-sizes", "10,full", "--n-batches", "2"]


def configurations():
    """(subdirectory name, command line) of each run: the objective grid, the other streams, then the diagnose."""
    for values in itertools.product(*OBJECTIVES.values()):
        name = "-".join(f"{key}{value.replace(',', '_')}" for key, value in zip(OBJECTIVES, values))
        yield name, TINY_SWEEP + [arg for key, value in zip(OBJECTIVES, values) for arg in (f"--{key}", value)]
    for kind, variant in STREAMS:
        yield f"{kind}-{variant}", TINY_SWEEP + ["--kind", kind, "--variant", variant]
    yield "diagnose", TINY_DIAGNOSE


def _comparable(path: str) -> bytes:
    """The file's bytes, less the `output_dir` line if it is a run_manifest.ini."""
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "run_manifest.ini":
        data = b"".join(line for line in data.splitlines(keepends=True) if not line.startswith(b"output_dir ="))
    return data


def differing_files(old_dir: str, new_dir: str) -> tuple[int, list[str]]:
    """(how many files the two trees hold together, sorted relative paths of those that differ or one lacks)."""
    def files(root):
        return {os.path.relpath(os.path.join(d, f), root) for d, _, names in os.walk(root) for f in names}

    old, new = files(old_dir), files(new_dir)
    both = old | new
    return len(both), sorted(rel for rel in both if rel not in old or rel not in new
                             or _comparable(os.path.join(old_dir, rel)) != _comparable(os.path.join(new_dir, rel)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="directory to write one subdirectory per configuration into")
    parser.add_argument("--against", metavar="OLD_DIR", help="an earlier sweep's output to compare this one with")
    args = parser.parse_args(argv)
    if args.against is not None and not os.path.isdir(args.against):
        parser.error(f"--against: {args.against} is not a directory")
    if "numpy" in sys.modules:
        raise SystemExit("numpy is already loaded, so its BLAS thread count can no longer be pinned")
    # OpenBLAS reads these once, when numpy loads.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    from coresel.cli import main as cli_main

    failed = []
    for name, argv in configurations():
        out = os.path.join(args.out_dir, name)
        print(f"{name} -> {out}", flush=True)
        if cli_main(argv + ["--output-dir", out]) != 0:
            failed.append(name)
    differing = []
    if args.against is not None:
        compared, differing = differing_files(args.against, args.out_dir)
        for rel in differing:
            print(f"differs from {args.against}: {rel}")
        print(f"compared {compared} files with {args.against}: {len(differing)} differ")
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())

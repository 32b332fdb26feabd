#!/usr/bin/env python3
"""Byte-parity sweep: the tiny four-strategy run under every objective variant and every stream, and small diagnoses,
on the synthetic corpus and on an IDX corpus.

Runs `coresel run` on three 60-row synthetic tasks (batch 20, kappa 5, buffer
20, replay batch 5) for ocs, uniform, reservoir and kmeans_embedding x 2 seeds
with per-candidate score logs, which only the OCS runs write. On the rotated
balanced stream it runs once for each combination of --lambda {1.0, 0.0},
--agem {false, true} and --grad-layers {all, 1,2}; the other five --kind
{rotated, permuted} x --variant {balanced, imbalanced, noisy} streams run once
each at the default objective. Then `coresel diagnose` runs on a 300-row
synthetic corpus (batch sizes 10 and full, 2 batches) and on a 2,500-row one
(batch sizes 10, 2,100 and full, 2 batches), whose full and 2,100-row
gradients are each read in two chunks of up to 2,048 rows.
A diagnose's cross-dataset columns come from a permuted view of its corpus.
Last, the sweep writes an IDX train and test pair of 300 and 120 images into
OUT_DIR/idx-data, drawn from a fixed seed with Python's own generator, and
runs the tiny sweep on its rotated noisy and permuted balanced streams, and
the 300-row diagnose's settings on its train pair. Each of the 15 configurations and the 3 diagnose runs writes its
own subdirectory of OUT_DIR (19 subdirectories with idx-data, 667 files).
BLAS is pinned to one thread, because the thread count changes checkpoint
bits.

Two checkouts are at parity where their outputs compare equal:

    PYTHONPATH=/path/to/old/src python3 scripts/parity_sweep.py out_old
    PYTHONPATH=src python3 scripts/parity_sweep.py out_new --against out_old

With `--against OLD_DIR`, the sweep ends by listing every file of OUT_DIR
that differs from its namesake in OLD_DIR, or that only one of the two holds,
then prints how many files it compared and how many differ, and exits 1 if
any differs. Under each differing UTF-8 text file it prints the first line
that differs: its number, the old text and the new text. The comparison
ignores only the lines of each `run_manifest.ini` that name a path inside
OUT_DIR: `output_dir`, its own directory, and the four IDX file paths, whose
files are compared in idx-data.
"""

import argparse
import itertools
import os
import random
import struct
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
# More rows than one gradient read (metrics._CHUNK_ROWS, 2,048), so the full and the 2,100-row gradients read two.
CHUNKED_DIAGNOSE = ["diagnose", "--synthetic-train", "2500", "--batch-sizes", "10,2100,full", "--n-batches", "2"]
IDX_STREAMS = [("rotated", "noisy"), ("permuted", "balanced")]
IDX_IMAGES = {"train": 300, "test": 120}
IDX_SEED = 2106


def write_idx_corpora(data_dir: str) -> list[str]:
    """Write the IDX train and test pairs of IDX_IMAGES images into data_dir; return the flags that name them.

    Pixels and labels are bytes drawn from random.Random(IDX_SEED), so every checkout writes the same files.
    """
    os.makedirs(data_dir, exist_ok=True)
    rng = random.Random(IDX_SEED)
    flags = ["--source", "idx"]
    for split, count in IDX_IMAGES.items():
        images = os.path.join(data_dir, f"{split}-images-idx3-ubyte")
        labels = os.path.join(data_dir, f"{split}-labels-idx1-ubyte")
        with open(images, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x803, count, 28, 28) + rng.randbytes(count * 28 * 28))
        with open(labels, "wb") as fh:
            fh.write(struct.pack(">II", 0x801, count) + bytes(rng.randrange(10) for _ in range(count)))
        flags += [f"--{split}-images", images, f"--{split}-labels", labels]
    return flags


def configurations(idx_flags: list[str]):
    """(subdirectory name, command line) of each run: the objective grid, the other streams, the two synthetic
    diagnoses, then the IDX streams and diagnose, each with `idx_flags`."""
    for values in itertools.product(*OBJECTIVES.values()):
        name = "-".join(f"{key}{value.replace(',', '_')}" for key, value in zip(OBJECTIVES, values))
        yield name, TINY_SWEEP + [arg for key, value in zip(OBJECTIVES, values) for arg in (f"--{key}", value)]
    for kind, variant in STREAMS:
        yield f"{kind}-{variant}", TINY_SWEEP + ["--kind", kind, "--variant", variant]
    yield "diagnose", TINY_DIAGNOSE
    yield "diagnose-chunked", CHUNKED_DIAGNOSE
    for kind, variant in IDX_STREAMS:
        yield f"idx-{kind}-{variant}", TINY_SWEEP + idx_flags + ["--kind", kind, "--variant", variant]
    yield "idx-diagnose", TINY_DIAGNOSE + idx_flags


# The run_manifest.ini keys whose values are paths inside OUT_DIR.
PATH_KEYS = tuple(f"{key} =".encode() for key in
                  ("output_dir", "train_images", "train_labels", "test_images", "test_labels"))


def _numbered_lines(path: str) -> list[tuple[int, bytes]]:
    """The file's lines, numbered from 1, less those that start with one of PATH_KEYS if it is a run_manifest.ini."""
    with open(path, "rb") as fh:
        lines = list(enumerate(fh.read().splitlines(keepends=True), 1))
    manifest = os.path.basename(path) == "run_manifest.ini"
    return [(number, line) for number, line in lines if not (manifest and line.startswith(PATH_KEYS))]


def _comparable(path: str) -> bytes:
    """The file's bytes, less the lines that start with one of PATH_KEYS if it is a run_manifest.ini."""
    return b"".join(line for _, line in _numbered_lines(path))


def first_difference(old_path: str, new_path: str) -> str | None:
    """'line N: OLD -> NEW' for the first compared line that differs between two UTF-8 text files, else None.

    N is the line's number in the new file, or in the old one past the new one's end; a side past its end reads
    <end of file>. None means the files are not both UTF-8 text, or no line differs but its line ending.
    """
    try:
        old, new = ([(number, line.decode().rstrip("\r\n")) for number, line in _numbered_lines(path)]
                    for path in (old_path, new_path))
    except UnicodeDecodeError:
        return None
    for k in range(max(len(old), len(new))):
        a, b = (lines[k] if k < len(lines) else None for lines in (old, new))
        if a is None or b is None or a[1] != b[1]:
            old_text, new_text = ("<end of file>" if side is None else repr(side[1]) for side in (a, b))
            return f"line {(b or a)[0]}: {old_text} -> {new_text}"
    return None


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
    for name, argv in configurations(write_idx_corpora(os.path.join(args.out_dir, "idx-data"))):
        out = os.path.join(args.out_dir, name)
        print(f"{name} -> {out}", flush=True)
        if cli_main(argv + ["--output-dir", out]) != 0:
            failed.append(name)
    differing = []
    if args.against is not None:
        compared, differing = differing_files(args.against, args.out_dir)
        for rel in differing:
            print(f"differs from {args.against}: {rel}")
            old, new = os.path.join(args.against, rel), os.path.join(args.out_dir, rel)
            line = first_difference(old, new) if os.path.isfile(old) and os.path.isfile(new) else None
            if line is not None:
                print(f"  {line}")
        print(f"compared {compared} files with {args.against}: {len(differing)} differ")
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())

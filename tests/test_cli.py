import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import coresel

from coresel.cli import build_stream, load_corpora, main
from coresel.config import parse_config, render_manifest
from coresel.errors import ConfigError
from coresel import trainer
from coresel.trainer import TrainConfig

MINIMAL = """\
[stream]
num_tasks = 2
train_per_task = 40
test_per_task = 20

[data]
synthetic_train = 200
synthetic_test = 80

[train]
stream_batch_size = 20
kappa = 5
hidden = 16

[experiment]
strategies = ocs,uniform
num_seeds = 2
output_dir = {out}
"""


def write_config(tmp_path, name="exp.ini", **fmt):
    fmt.setdefault("out", str(tmp_path / "runs"))
    path = tmp_path / name
    path.write_text(MINIMAL.format(**fmt))
    return str(path)


# ---------------------------------------------------------------------------
# parsing


def test_defaults_from_empty_config():
    cfg = parse_config(None, env={})
    assert cfg.kappa == 10
    assert cfg.tau == 1000.0
    assert cfg.lam == 1.0
    assert cfg.stream_batch_size == 100
    assert cfg.strategies == ("ocs",)


def test_train_defaults_are_train_config_defaults():
    assert parse_config(None, env={}).train_config("ocs", 0) == TrainConfig()


def test_file_values_and_flag_precedence(tmp_path):
    path = write_config(tmp_path)
    cfg = parse_config(path, env={})
    assert cfg.kappa == 5 and cfg.num_tasks == 2
    cfg = parse_config(path, {"kappa": "3", "tau": "0.5"}, env={})
    assert cfg.kappa == 3 and cfg.tau == 0.5


def test_env_overrides_file_but_not_flags(tmp_path):
    path = write_config(tmp_path)
    env = {"CORESEL_OUTPUT_DIR": "/tmp/env-runs"}
    assert parse_config(path, env=env).output_dir == "/tmp/env-runs"
    assert parse_config(path, {"output_dir": "flag-runs"}, env=env).output_dir == "flag-runs"
    # The environment's value is read like a flag's, so the manifest replays it.
    cfg = parse_config(path, env={"CORESEL_OUTPUT_DIR": " env-runs "})
    assert cfg.output_dir == "env-runs"
    manifest = tmp_path / "manifest.ini"
    manifest.write_text(render_manifest(cfg))
    assert parse_config(str(manifest), env={}) == cfg


def test_unknown_key_names_key_and_line(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[train]\nkapa = 5\n")
    with pytest.raises(ConfigError, match=r"kapa.*line 2"):
        parse_config(str(path), env={})


def test_parse_errors_are_specific(tmp_path):
    cases = [
        ("[nope]\n", r"unknown section.*nope.*line 1"),
        ("kappa = 5\n", r"before any \[section\].*line 1"),
        ("[train]\nkappa = ten\n", r"key 'kappa' must be an integer.*'ten'.*line 2"),
        ("[train]\nkappa 5\n", r"expected 'key = value'.*line 2"),
        ("[train]\nkappa = 5\nkappa = 6\n", r"duplicate key 'kappa'.*line 3"),
        ("[data]\nkappa = 5\n", r"unknown key 'kappa' in section \[data\].*line 2"),
        ("[stream]\nvariant = wobbly\n", r"key 'variant'.*'wobbly'.*line 2"),
    ]
    for text, pattern in cases:
        path = tmp_path / "case.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=pattern):
            parse_config(str(path), env={})


def test_cross_field_validation(tmp_path):
    with pytest.raises(ConfigError, match="kappa.*stream_batch_size"):
        parse_config(None, {"kappa": "200", "stream_batch_size": "100"}, env={})
    with pytest.raises(ConfigError, match="num_seeds"):
        parse_config(None, {"num_seeds": "0"}, env={})
    with pytest.raises(ConfigError, match="strategies"):
        parse_config(None, {"strategies": "ocs,herding"}, env={})
    with pytest.raises(ConfigError, match="key 'strategies' names 'uniform' twice"):
        parse_config(None, {"strategies": "uniform,ocs,uniform"}, env={})
    with pytest.raises(ConfigError, match="key 'output_dir': '#' or ';' after whitespace"):
        parse_config(None, {"output_dir": "runs #1"}, env={})  # the manifest would replay it as 'runs'
    with pytest.raises(ConfigError, match="key 'output_dir': '#' or ';' after whitespace"):
        parse_config(None, {"output_dir": "#1"}, env={})  # 'output_dir = #1' replays as ''
    for broken in ("a\nb", "a\rb"):  # the manifest line would split in two
        with pytest.raises(ConfigError, match="key 'output_dir': a line break"):
            parse_config(None, {"output_dir": broken}, env={})
        with pytest.raises(ConfigError, match="key 'output_dir': a line break"):
            parse_config(None, env={"CORESEL_OUTPUT_DIR": broken})
    with pytest.raises(ConfigError, match="key 'output_dir' must name a directory"):
        parse_config(None, {"output_dir": " "}, env={})
    with pytest.raises(ConfigError, match="key 'output_dir' must name a directory"):
        parse_config(None, env={"CORESEL_OUTPUT_DIR": " "})
    with pytest.raises(ConfigError, match="train_images"):
        parse_config(None, {"source": "idx"}, env={})
    for key, raw, rule in [("tau", "nan", "must be nonnegative and finite"), ("lr0", "inf", "must be positive and finite"),
                           ("lambda", "nan", "must be nonnegative and finite")]:
        with pytest.raises(ConfigError, match=f"{key} {rule}, got {raw}"):
            parse_config(None, {key: raw}, env={})
    for key in ("master_seed", "seed0"):
        with pytest.raises(ConfigError, match=f"key '{key}' must be at least 0, got -1"):
            parse_config(None, {key: "-1"}, env={})
        parse_config(None, {key: "0"}, env={})


@pytest.mark.parametrize("key, bad, good", [
    ("imbalance_reduced", ("-1", "11"), ("0", "10")),
    ("imbalance_keep", ("0.0", "1.5", "nan"), ("1e-3", "1.0")),
    ("noise_fraction", ("-0.1", "1.01", "nan"), ("0.0", "1.0")),
    ("num_tasks", ("0", "-1"), ("1",)),
    ("train_per_task", ("0",), ("1",)),
    ("test_per_task", ("0",), ("1",)),
    ("synthetic_train", ("0",), ("1",)),
    ("synthetic_test", ("0",), ("1",)),
    ("n_batches", ("0", "-2"), ("1",)),
])
def test_stream_keys_out_of_range_are_config_errors(key, bad, good):
    rule = "must lie in" if key in ("imbalance_reduced", "imbalance_keep", "noise_fraction") else "must be at least 1"
    for raw in bad:
        with pytest.raises(ConfigError, match=f"key '{key}' {rule}"):
            parse_config(None, {key: raw}, env={})
    for raw in good:
        parse_config(None, {key: raw}, env={})


def test_inline_comments_follow_whitespace(tmp_path):
    path = tmp_path / "comments.ini"
    path.write_text("[train]   # the trainer\nkappa = 5 ; kept per step\ntau = 2.0\t# tab first\n"
                    "  ; indented comment line\n[experiment]\noutput_dir = runs;1#2\n")
    cfg = parse_config(str(path), env={})
    assert (cfg.kappa, cfg.tau, cfg.output_dir) == (5, 2.0, "runs;1#2")


def test_readme_example_config_parses(tmp_path):
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    cfg = parse_config(str(path), env={})
    assert (cfg.source, cfg.kind, cfg.variant, cfg.stream_batch_size, cfg.agem) == (
        "synthetic", "rotated", "imbalanced", 100, False)
    assert cfg.strategies == ("ocs", "uniform", "reservoir", "kmeans_embedding")


def test_manifest_round_trip(tmp_path):
    path = write_config(tmp_path)
    cfg = parse_config(path, {"tau": "250.0", "grad_layers": "0,1", "batch_sizes": "5,full"}, env={})
    manifest = tmp_path / "manifest.ini"
    manifest.write_text(render_manifest(cfg))
    assert parse_config(str(manifest), env={}) == cfg


# ---------------------------------------------------------------------------
# orchestration


def run_cli(args, env, monkeypatch):
    for name in ("CORESEL_OUTPUT_DIR",):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    return main(args)


def test_run_experiment_artifacts_and_determinism(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    assert run_cli(["run", "--config", path], {}, monkeypatch) == 0
    out = tmp_path / "runs"
    summary = (out / "summary.csv").read_text()
    lines = summary.strip().splitlines()
    assert lines[0] == "strategy,runs,accuracy_mean,accuracy_std,forgetting_mean,forgetting_std"
    assert len(lines) == 3
    assert lines[1].startswith("ocs,2,") and lines[2].startswith("uniform,2,")
    for strategy in ("ocs", "uniform"):
        for seed in (0, 1):
            assert (out / f"{strategy}-seed{seed}" / "accuracy_matrix.csv").exists()

    # identical config → bit-identical summary
    assert run_cli(["run", "--config", path], {}, monkeypatch) == 0
    assert (out / "summary.csv").read_text() == summary

    # replaying the recorded manifest reproduces the summary too
    assert run_cli(["run", "--config", str(out / "run_manifest.ini")], {}, monkeypatch) == 0
    assert (out / "summary.csv").read_text() == summary


def fail_one_run(monkeypatch, strategy, seed):
    import coresel.cli as cli_mod

    real = cli_mod.run_stream

    def flaky(stream, cfg, out_dir=None):
        if (cfg.selection.strategy, cfg.seed) == (strategy, seed):
            raise RuntimeError("synthetic failure")
        return real(stream, cfg, out_dir)

    monkeypatch.setattr(cli_mod, "run_stream", flaky)


def test_run_partial_failure_exit_code(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    fail_one_run(monkeypatch, "ocs", 1)
    assert run_cli(["run", "--config", path], {}, monkeypatch) == 2
    out = tmp_path / "runs"
    assert "synthetic failure" in (out / "ocs-seed1" / "FAILED.txt").read_text()
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert lines[1].startswith("ocs,1,")  # one surviving ocs run aggregated
    assert lines[2].startswith("uniform,2,")


def test_a_successful_rerun_removes_an_earlier_failure(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    run_dir = tmp_path / "runs" / "ocs-seed0"
    with monkeypatch.context() as m:
        fail_one_run(m, "ocs", 0)
        assert run_cli(["run", "--config", path, "--num-seeds", "1"], {}, m) == 2
    (run_dir / "notes.txt").write_text("kept\n")  # not a file a run writes
    assert run_cli(["run", "--config", path, "--num-seeds", "1"], {}, monkeypatch) == 0
    assert sorted(p.name for p in run_dir.iterdir()) == sorted(
        {"notes.txt", *trainer.RUN_FILES} - {"FAILED.txt", "scores.csv"})


def test_a_failed_rerun_leaves_only_its_failure(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path)
    run_dir = tmp_path / "runs" / "ocs-seed0"
    assert run_cli(["run", "--config", path, "--num-seeds", "1", "--log-scores", "true"], {}, monkeypatch) == 0
    (run_dir / "notes.txt").write_text("kept\n")
    fail_one_run(monkeypatch, "ocs", 0)
    assert run_cli(["run", "--config", path, "--num-seeds", "1"], {}, monkeypatch) == 2
    assert sorted(p.name for p in run_dir.iterdir()) == ["FAILED.txt", "notes.txt"]
    capsys.readouterr()
    assert main(["dump-coreset", str(run_dir)]) == 1  # no stale dump is served
    assert capsys.readouterr().err == f"no coreset dump found at {run_dir / 'coreset_dump.csv'}\n"


def test_a_rerun_without_log_scores_removes_the_earlier_scores(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    run_dir = tmp_path / "runs" / "ocs-seed0"
    assert run_cli(["run", "--config", path, "--num-seeds", "1", "--log-scores", "true"], {}, monkeypatch) == 0
    assert (run_dir / "scores.csv").exists()
    assert run_cli(["run", "--config", path, "--num-seeds", "1"], {}, monkeypatch) == 0
    assert not (run_dir / "scores.csv").exists() and (run_dir / "model.ckpt").exists()


def test_only_ocs_runs_write_scores(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    args = ["run", "--config", path, "--strategies", "ocs,uniform,reservoir,kmeans_embedding", "--log-scores", "true"]
    assert run_cli(args, {}, monkeypatch) == 0
    out = tmp_path / "runs"
    assert len(list(out.glob("*-seed*/model.ckpt"))) == 8
    assert sorted(p.parent.name for p in out.glob("*/scores.csv")) == ["ocs-seed0", "ocs-seed1"]


def test_a_rerun_removes_the_run_directories_it_no_longer_names(tmp_path, monkeypatch):
    path = write_config(tmp_path)  # ocs and uniform, seeds 0 and 1
    out = tmp_path / "runs"
    assert run_cli(["run", "--config", path], {}, monkeypatch) == 0
    for name in ("herding-seed0", "uniform-seed01", "uniform-seed"):  # not the directory of a run
        (out / name).mkdir()
        (out / name / "metrics.json").write_text("{}\n")
    assert run_cli(["run", "--config", path, "--strategies", "ocs", "--num-seeds", "1"], {}, monkeypatch) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "herding-seed0", "ocs-seed0", "run_manifest.ini", "summary.csv", "uniform-seed", "uniform-seed01"]
    assert all((out / name / "metrics.json").read_text() == "{}\n" for name in ("herding-seed0", "uniform-seed01"))


def test_a_dropped_run_directory_keeps_the_files_no_run_writes(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    out = tmp_path / "runs"
    assert run_cli(["run", "--config", path, "--num-seeds", "1", "--log-scores", "true"], {}, monkeypatch) == 0
    (out / "uniform-seed0" / "notes.txt").write_text("kept\n")
    (out / "uniform-seed0" / "plots").mkdir()
    assert run_cli(["run", "--config", path, "--strategies", "ocs", "--num-seeds", "1"], {}, monkeypatch) == 0
    assert sorted(p.name for p in (out / "uniform-seed0").iterdir()) == ["notes.txt", "plots"]
    assert (out / "uniform-seed0" / "notes.txt").read_text() == "kept\n"


def test_stream_failure_fails_only_that_seeds_runs(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    import coresel.cli as cli_mod

    real = cli_mod.build_stream

    def flaky(cfg, train, test, run_seed):
        if run_seed == 1:
            raise ValueError("cannot take a larger sample than population")
        return real(cfg, train, test, run_seed)

    monkeypatch.setattr(cli_mod, "build_stream", flaky)
    assert run_cli(["run", "--config", path], {}, monkeypatch) == 2
    out = tmp_path / "runs"
    for strategy in ("ocs", "uniform"):
        text = (out / f"{strategy}-seed1" / "FAILED.txt").read_text()
        assert text == "stream for seed 1 failed to build: ValueError: cannot take a larger sample than population\n"
        assert not (out / f"{strategy}-seed0" / "FAILED.txt").exists()
        assert (out / f"{strategy}-seed0" / "metrics.json").exists()
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert lines[1].startswith("ocs,1,") and lines[2].startswith("uniform,1,")


def test_task_without_training_rows_fails_the_stream(tmp_path, monkeypatch):
    # Every class reduced to 5% of about 6 rows a task keeps none: no strategy may train, reservoir included.
    out = tmp_path / "runs"
    flags = ["--variant", "imbalanced", "--imbalance-reduced", "10", "--imbalance-keep", "0.05"]
    assert run_cli([*TINY_SWEEP, *flags, "--num-seeds", "1", "--output-dir", str(out)], {}, monkeypatch) == 2
    want = (
        "stream for seed 0 failed to build: EmptyInputError: "
        "task 0 has no training rows: 60 drawn, 0 after class imbalance\n"
    )
    for strategy in ("ocs", "uniform", "reservoir", "kmeans_embedding"):
        assert (out / f"{strategy}-seed0" / "FAILED.txt").read_text() == want


def test_out_of_range_stream_key_exits_before_any_run(tmp_path, monkeypatch, capsys):
    out = tmp_path / "runs"
    args = ["run", "--variant", "imbalanced", "--imbalance-reduced", "11", "--output-dir", str(out)]
    assert run_cli(args, {}, monkeypatch) == 1
    assert "key 'imbalance_reduced' must lie in 0..10, got 11" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--grad-layers", "5"], "grad layers (5,) outside the network's layers 0..1"),
    (["--grad-layers=-1,1"], "grad layers (-1, 1) outside the network's layers 0..1"),
    (["--hidden", "16,0"], "hidden widths must be >= 1, got (16, 0)"),
])
def test_bad_network_shape_exits_before_any_run(tmp_path, monkeypatch, capsys, flags, message):
    path = write_config(tmp_path)  # hidden = 16: layers 0 and 1
    assert run_cli(["run", "--config", path] + flags, {}, monkeypatch) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["run", "diagnose"])
def test_corpus_that_fails_to_load_exits_before_any_run(tmp_path, monkeypatch, capsys, command):
    labels = tmp_path / "labels-idx1-ubyte"
    labels.write_bytes(struct.pack(">II", 0x801, 2) + bytes([0, 1]))
    bad_magic = tmp_path / "images-idx3-ubyte"
    bad_magic.write_bytes(struct.pack(">IIII", 0x804, 2, 28, 28) + bytes(2 * 784))
    directory = tmp_path / "a-directory"
    directory.mkdir()
    images_ok = tmp_path / "ok-idx3-ubyte"
    images_ok.write_bytes(struct.pack(">IIII", 0x803, 3, 28, 28) + bytes(3 * 784))
    label_12 = tmp_path / "label-12-idx1-ubyte"  # the first label that is not a class is the second, at byte 9
    label_12.write_bytes(struct.pack(">II", 0x801, 3) + bytes([0, 12, 10]))
    no_images = tmp_path / "empty-idx3-ubyte"  # a well-formed pair of 0 images
    no_images.write_bytes(struct.pack(">IIII", 0x803, 0, 28, 28))
    no_labels = tmp_path / "empty-idx1-ubyte"
    no_labels.write_bytes(struct.pack(">II", 0x801, 0))
    out = tmp_path / "runs"
    cases = (  # a missing file is caught with the config; a directory gives an OSError from open()
        (tmp_path / "missing-idx3-ubyte", labels, "config error: key 'train_images': file not found"),
        (directory, labels, "corpus error: [Errno 21] Is a directory"),
        (bad_magic, labels, f"corpus error: {bad_magic}: bad image magic 0x00000804 at offset 0"),
        (images_ok, label_12, f"corpus error: {label_12}: label 12 at offset 9 lies outside 0..9\n"),
        (no_images, no_labels, f"corpus error: {no_images}: no images\n"),
    )
    for images, labels_path, message in cases:
        paths = ["--train-images", str(images), "--train-labels", str(labels_path),
                 "--test-images", str(images), "--test-labels", str(labels_path)]
        assert run_cli([command, "--source", "idx", *paths, "--output-dir", str(out)], {}, monkeypatch) == 1
        err = capsys.readouterr().err
        named = labels_path if labels_path == label_12 else images  # the file at fault
        assert err.startswith(message) and str(named) in err and err.count("\n") == 1
        assert not out.exists()


def test_empty_test_corpus_is_refused_at_load(tmp_path, monkeypatch, capsys):
    train = tmp_path / "train"
    train.mkdir()
    images, labels = train / "images-idx3-ubyte", train / "labels-idx1-ubyte"
    images.write_bytes(struct.pack(">IIII", 0x803, 40, 28, 28) + bytes(40 * 784))
    labels.write_bytes(struct.pack(">II", 0x801, 40) + bytes(k % 10 for k in range(40)))
    test = tmp_path / "test"  # an IDX pair of 0 images is well formed, but no task could be evaluated
    test.mkdir()
    (test / "images-idx3-ubyte").write_bytes(struct.pack(">IIII", 0x803, 0, 28, 28))
    (test / "labels-idx1-ubyte").write_bytes(struct.pack(">II", 0x801, 0))
    out = tmp_path / "runs"
    args = ["run", "--source", "idx", "--train-images", str(images), "--train-labels", str(labels),
            "--test-images", str(test / "images-idx3-ubyte"), "--test-labels", str(test / "labels-idx1-ubyte"),
            "--num-tasks", "2", "--train-per-task", "20", "--stream-batch-size", "10", "--kappa", "5",
            "--strategies", "ocs,uniform", "--num-seeds", "2", "--output-dir", str(out)]
    assert run_cli(args, {}, monkeypatch) == 1
    assert capsys.readouterr().err == f"corpus error: {test / 'images-idx3-ubyte'}: no images\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "diagnose"])
def test_output_dir_that_is_a_file_exits_before_any_run(tmp_path, monkeypatch, capsys, command):
    path = write_config(tmp_path)
    blocker = tmp_path / "a-file"
    blocker.write_text("kept\n")
    flags = ["--batch-sizes", "10", "--n-batches", "2", "--cross", "false"] if command == "diagnose" else []
    monkeypatch.setattr("coresel.cli.load_corpora", lambda cfg: pytest.fail("corpora built before the output check"))
    for out, reason in ((blocker, "File exists"), (blocker / "runs", "Not a directory")):
        assert run_cli([command, "--config", path, "--output-dir", str(out), *flags], {}, monkeypatch) == 1
        captured = capsys.readouterr()
        assert captured.err == f"output error: {out}: {reason}\n"
        assert captured.out == ""  # no run logged a result
        assert blocker.read_text() == "kept\n"


def test_diverging_sweep_fails_loudly(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli(
            ["run", "--config", path, "--lr0", "1e6", "--hidden", "256,256", "--num-tasks", "3",
             "--train-per-task", "60", "--synthetic-train", "300"],
            {}, monkeypatch,
        )
    assert code == 2
    out = tmp_path / "runs"
    failed = sorted(p.parent.name for p in out.glob("*/FAILED.txt"))
    assert failed == ["uniform-seed0", "uniform-seed1"]
    texts = [(out / name / "FAILED.txt").read_text() for name in failed]
    for text in texts:
        assert text.startswith("DivergenceError: run diverged at task 2, epoch 0, iteration ")
        assert ", lr 640000: " in text
    # One run is caught by the update check, the other by the evaluation check.
    assert "parameters non-finite" in texts[0] and "evaluation rows have non-finite logits" in texts[1]
    assert (out / "summary.csv").read_text().splitlines()[2] == "uniform,0,,,,"


# The tiny sweep of four strategies over three 60-row tasks that scripts/parity_sweep.py runs for parity checks.
TINY_SWEEP = [
    "run", "--synthetic-train", "300", "--synthetic-test", "120", "--num-tasks", "3", "--train-per-task", "60",
    "--test-per-task", "30", "--stream-batch-size", "20", "--kappa", "5", "--buffer-capacity", "20",
    "--buffer-batch-size", "5", "--strategies", "ocs,uniform,reservoir,kmeans_embedding", "--num-seeds", "2",
]


def test_dead_relu_sweep_fails_loudly(tmp_path, monkeypatch):
    # At lr0 1e6 every run kills a whole hidden layer: its logits are constant, yet finite.
    out = tmp_path / "runs"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli(TINY_SWEEP + ["--hidden", "16,16", "--lr0", "1e6", "--output-dir", str(out)], {}, monkeypatch)
    assert code == 2
    runs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert len(runs) == 8
    for name in runs:
        text = (out / name / "FAILED.txt").read_text()
        assert text.startswith("DivergenceError: run diverged at task "), name
        assert "evaluation rows: constant logits" in text, name
    assert [line.split(",")[1] for line in (out / "summary.csv").read_text().splitlines()[1:]] == ["0"] * 4


def test_rounded_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # The default 256-unit layers are wide enough for OpenBLAS to split its products over two threads,
    # which changes checkpoints in the last bits; the rounded artifacts must not change, nor the buffer
    # OCS keeps when it scores only layers 1 and 2 (rows that share those gradients tie exactly). A rerun
    # at two threads, where evaluations call into threaded OpenBLAS while training does, must repeat
    # every bit.
    src = os.path.dirname(os.path.dirname(os.path.abspath(coresel.__file__)))
    runs = {"out": [], "ocs-layers-1-2": ["--strategies", "ocs", "--grad-layers", "1,2"]}
    outs = []
    for k, threads in enumerate(("1", "2", "2")):
        cwd = tmp_path / f"run{k}"
        cwd.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=src)
        env.pop("CORESEL_OUTPUT_DIR", None)
        for out, flags in runs.items():
            # One relative output directory, so that every run_manifest.ini reads the same.
            cmd = [sys.executable, "-m", "coresel.cli", *TINY_SWEEP, *flags, "--output-dir", out]
            assert subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, timeout=300).returncode == 0
        assert f"OPENBLAS_NUM_THREADS = {threads}\n" in (cwd / "out" / "ocs-seed0" / "run_manifest.txt").read_text()
        outs.append(cwd)
    names = sorted(p.relative_to(outs[0]) for p in outs[0].glob("out/*/accuracy_matrix.csv"))
    assert len(names) == 8
    dumps = sorted(p.relative_to(outs[0]) for p in outs[0].glob("ocs-layers-1-2/*/coreset_dump.csv"))
    assert len(dumps) == 2
    for name in [*names, "out/summary.csv", *dumps]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    files = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(outs[2]) for p in outs[2].rglob("*") if p.is_file())
    assert sum(name.name == "model.ckpt" for name in files) == 10
    for name in files:
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name


def test_run_builds_one_stream_per_seed(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    import coresel.cli as cli_mod

    built = []
    real = cli_mod.build_stream

    def counting(cfg, train, test, run_seed):
        built.append(run_seed)
        return real(cfg, train, test, run_seed)

    monkeypatch.setattr(cli_mod, "build_stream", counting)
    assert run_cli(["run", "--config", path], {}, monkeypatch) == 0
    assert built == [0, 1]  # two seeds, each stream shared by ocs and uniform


@pytest.mark.parametrize("flags, noted", [
    (["--agem", "true", "--lambda", "0.5"], True),
    (["--agem", "true", "--lambda", "0"], True),
    (["--agem", "true"], False),  # the default lambda
    (["--agem", "true", "--lambda", "1.0"], False),
    (["--lambda", "0.5"], False),  # without A-GEM, lambda weighs the replay loss
])
def test_run_notes_a_lambda_that_agem_ignores(tmp_path, monkeypatch, capsys, flags, noted):
    path = write_config(tmp_path)
    assert run_cli(["run", "--config", path, "--num-seeds", "2", *flags], {}, monkeypatch) == 0
    notes = capsys.readouterr().err.splitlines().count("note: lambda has no effect with agem = true")
    assert notes == int(noted)  # once per sweep, not once per run


def test_config_error_exit_code(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[train]\nkapa = 1\n")
    assert run_cli(["run", "--config", str(bad)], {}, monkeypatch) == 1
    assert "kapa" in capsys.readouterr().err
    utf16 = tmp_path / "utf16.ini"  # a byte-order mark and text that are not UTF-8
    utf16.write_bytes(b"\xff\xfe[\x00t\x00r\x00a\x00i\x00n\x00]\x00")
    assert run_cli(["run", "--config", str(utf16)], {}, monkeypatch) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {utf16}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1
    import coresel.cli as cli_mod

    monkeypatch.setattr(cli_mod, "load_corpora", lambda cfg: pytest.fail("a corpus was built"))
    out = tmp_path / "runs"
    for flag, raw, message in [
        ("--tau", "nan", "tau must be nonnegative and finite, got nan"),
        ("--lr0", "nan", "lr0 must be positive and finite, got nan"),
        ("--lr0", "inf", "lr0 must be positive and finite, got inf"),
        ("--lambda", "nan", "lambda must be nonnegative and finite, got nan"),
        ("--master-seed", "-1", "key 'master_seed' must be at least 0, got -1"),
        ("--seed0", "-1", "key 'seed0' must be at least 0, got -1"),
    ]:
        assert run_cli(["run", flag, raw, "--output-dir", str(out)], {}, monkeypatch) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_diagnose_writes_table(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    args = ["diagnose", "--config", path, "--batch-sizes", "10,full", "--n-batches", "3"]
    assert run_cli(args, {}, monkeypatch) == 0
    lines = (tmp_path / "runs" / "diagnostic_table.csv").read_text().strip().splitlines()
    assert lines[0] == "batch_size,mean_l2,mean_cosine,cross_l2,cross_cosine"
    assert len(lines) == 3
    full_row = lines[2].split(",")
    assert full_row[0] == "200"
    assert float(full_row[1]) == pytest.approx(0.0, abs=1e-12)
    assert float(full_row[2]) == pytest.approx(1.0, abs=1e-12)
    assert full_row[3] != "" and full_row[4] != ""  # cross-dataset columns populated

    again = ["diagnose", "--config", path, "--batch-sizes", "10,full", "--n-batches", "3"]
    text = (tmp_path / "runs" / "diagnostic_table.csv").read_text()
    assert run_cli(again, {}, monkeypatch) == 0
    assert (tmp_path / "runs" / "diagnostic_table.csv").read_text() == text


def test_diagnose_without_cross_dataset(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    args = ["diagnose", "--config", path, "--batch-sizes", "10", "--n-batches", "2", "--cross", "false"]
    assert run_cli(args, {}, monkeypatch) == 0
    row = (tmp_path / "runs" / "diagnostic_table.csv").read_text().strip().splitlines()[1]
    assert row.endswith(",,")


def test_dump_coreset_roundtrip(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path)
    assert run_cli(["run", "--config", path, "--strategies", "ocs", "--num-seeds", "1"], {}, monkeypatch) == 0
    run_dir = str(tmp_path / "runs" / "ocs-seed0")
    capsys.readouterr()  # drop the run command's log lines
    assert main(["dump-coreset", run_dir]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("task_id,class,example_index_in_source,px0")
    target = tmp_path / "copy.csv"
    assert main(["dump-coreset", run_dir, "--out", str(target)]) == 0
    assert target.read_text() == stdout
    assert main(["dump-coreset", str(tmp_path / "missing")]) == 1
    short = tmp_path / "short"  # a dump whose header stops at the first pixel column
    short.mkdir()
    (short / "coreset_dump.csv").write_text("task_id,class,example_index_in_source,px0\n0,1,2,0.5\n")
    capsys.readouterr()
    assert main(["dump-coreset", str(short)]) == 1
    assert capsys.readouterr().err == f"{short / 'coreset_dump.csv'} does not look like a coreset dump\n"
    garbled = tmp_path / "garbled"  # a dump whose bytes are not UTF-8
    garbled.mkdir()
    (garbled / "coreset_dump.csv").write_bytes(b"task_id,class\xff\n")
    nested = tmp_path / "nested"  # a directory where the dump should be
    (nested / "coreset_dump.csv").mkdir(parents=True)
    for unreadable, reason in ((garbled, "'utf-8' codec can't decode byte 0xff"), (nested, "[Errno 21] Is a directory")):
        assert main(["dump-coreset", str(unreadable)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read coreset dump {unreadable / 'coreset_dump.csv'}: {reason}")
        assert err.count("\n") == 1
    unwritable = tmp_path / "nodir" / "x.csv"  # the error names this path, not the temp file beside it
    assert main(["dump-coreset", run_dir, "--out", str(unwritable)]) == 1
    assert capsys.readouterr().err == f"output error: {unwritable}: No such file or directory\n"


def test_imbalanced_and_noisy_streams_from_config(tmp_path):
    path = write_config(tmp_path)
    cfg = parse_config(path, {"variant": "imbalanced", "imbalance_keep": "0.25"}, env={})
    train, test = load_corpora(cfg)
    stream = build_stream(cfg, train, test, run_seed=3)
    counts = np.bincount(stream.tasks[0].train.y, minlength=10)
    assert counts.max() > counts[counts > 0].min()  # reduced classes actually smaller
    cfg = parse_config(path, {"variant": "noisy", "noise_fraction": "0.5"}, env={})
    stream = build_stream(cfg, train, test, run_seed=3)
    assert len(stream.tasks[0].noisy_source) == 20  # 0.5 * 40

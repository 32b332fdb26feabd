"""Every random draw is seeded by `seeds.derive`, and no two draws share a generator."""

import ast
import pathlib

import numpy as np
import pytest

from coresel import datastream, seeds
from coresel.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Every strategy over 7 tasks of 4 epochs, so that task, epoch and commit indices pass the purposes' word numbers.
SWEEP = [
    "run", "--synthetic-train", "300", "--synthetic-test", "120", "--num-tasks", "7", "--train-per-task", "40",
    "--test-per-task", "20", "--stream-batch-size", "10", "--kappa", "3", "--buffer-capacity", "14",
    "--buffer-batch-size", "3", "--epochs", "4", "--hidden", "16,16", "--num-seeds", "2",
    "--strategies", "ocs,uniform,reservoir,kmeans_embedding",
]
DIAGNOSE = ["diagnose", "--synthetic-train", "300", "--batch-sizes", "10,full", "--n-batches", "2"]


def test_derive_keys_end_in_their_purpose_word():
    assert seeds.derive(5, "corpus").entropy == [5, 1]
    assert seeds.derive(5, "select", 6, 3, 2).entropy == [5, 6, 3, 2, 14]
    assert len({purpose for purpose, _ in seeds.PURPOSES}) == len(seeds.PURPOSES)
    with pytest.raises(ValueError, match="a 'shuffle' seed takes 2 indices, got 1"):
        seeds.derive(5, "shuffle", 6)


def test_seed_sequences_are_built_only_in_seeds():
    named = []
    for path in sorted((ROOT / "src/coresel").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name is not None and name.rsplit(".", 1)[-1] == "SeedSequence" and path.name != "seeds.py":
                named.append(f"{path.name}:{node.lineno}")
    assert named == []


def test_no_two_draws_share_a_generator(tmp_path, monkeypatch):
    monkeypatch.delenv("CORESEL_OUTPUT_DIR", raising=False)
    keys, real = [], np.random.default_rng

    def recording(seed=None):
        keys.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    datastream._pattern_tables.cache_clear()  # so that the class canvases are drawn again
    for kind in ("rotated", "permuted"):
        for variant in ("balanced", "imbalanced", "noisy"):
            out = tmp_path / f"{kind}-{variant}"
            assert main(SWEEP + ["--kind", kind, "--variant", variant, "--output-dir", str(out)]) == 0
    assert main(DIAGNOSE + ["--output-dir", str(tmp_path / "diagnose")]) == 0

    # Every seed is a derive key: a SeedSequence whose last word names a purpose, after that purpose's indices.
    purposes = set()
    for key in keys:
        assert isinstance(key, np.random.SeedSequence) and isinstance(key.entropy, list), key
        assert 1 <= key.entropy[-1] <= len(seeds.PURPOSES), key.entropy
        purpose, arity = seeds.PURPOSES[key.entropy[-1] - 1]
        assert len(key.entropy) == arity + 2, (purpose, key.entropy)
        purposes.add(purpose)
    assert purposes == {purpose for purpose, _ in seeds.PURPOSES}
    states = {tuple(key.entropy): tuple(key.generate_state(4)) for key in keys}
    assert len(set(states.values())) == len(states)

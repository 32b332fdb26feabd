"""Experiment configuration: strict key = value files plus flag overrides.

The file format is line-oriented: ``[section]`` headers, ``key = value``
pairs, blank lines, and comment lines starting with ``#`` or ``;``. A ``#``
or ``;`` that follows whitespace starts a comment too, to the end of the
line, so neither can follow a space inside a value. Every
key is one field of ExperimentConfig, which also holds its section, converter
and default; anything else is an error that names the key and line, so typos
never silently fall back to defaults. The [train] defaults are TrainConfig's.
Flags override file values, which override defaults; the environment may
override only the output directory (CORESEL_OUTPUT_DIR, read like a flag).

An ExperimentConfig renders back to the same format via `render_manifest`,
and parsing that text reproduces the config exactly — which is what makes a
recorded manifest replayable.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, fields

from .datastream import NUM_CLASSES
from .errors import ConfigError
from .selection import SelectionConfig
from .trainer import REGISTRY, TrainConfig

_ENV_OUTPUT_DIR = "CORESEL_OUTPUT_DIR"

# FULL_DATASET is the batch_sizes sentinel for "use every example at once".
FULL_DATASET = 0


def _to_bool(raw: str):
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(raw)


def _to_str(raw: str):
    return raw.strip()


def _split_list(raw: str):
    parts = [p.strip() for p in raw.split(",")]
    if parts == [""]:
        raise ValueError("empty list")
    return parts


def _to_int_tuple(raw: str):
    return tuple(int(p) for p in _split_list(raw))


def _to_str_tuple(raw: str):
    return tuple(_split_list(raw))


def _to_layers(raw: str):
    """'all' means every layer; otherwise comma-separated layer indices."""
    if raw.strip().lower() == "all":
        return None
    return _to_int_tuple(raw)


def _to_batch_sizes(raw: str):
    """Comma-separated batch sizes; the token 'full' means the whole dataset."""
    out = []
    for part in _split_list(raw):
        if part.lower() == "full":
            out.append(FULL_DATASET)
        else:
            value = int(part)
            if value < 1:
                raise ValueError(part)
            out.append(value)
    return tuple(out)


def _key(section: str, convert, describe: str, default, choices: tuple | None = None, key: str | None = None):
    """An ExperimentConfig field read from `key` (default: the field name) under [section]."""
    meta = {"section": section, "convert": convert, "describe": describe, "choices": choices, "key": key}
    return field(default=default, metadata=meta)


_TRAIN = TrainConfig()  # the one set of [train] defaults


@dataclass(frozen=True)
class ExperimentConfig:
    """Every config key, one field each, in file and manifest order."""

    source: str = _key("data", _to_str, "one of synthetic, idx", "synthetic", ("synthetic", "idx"))
    train_images: str = _key("data", _to_str, "a file path", "")
    train_labels: str = _key("data", _to_str, "a file path", "")
    test_images: str = _key("data", _to_str, "a file path", "")
    test_labels: str = _key("data", _to_str, "a file path", "")
    synthetic_train: int = _key("data", int, "an integer", 2000)
    synthetic_test: int = _key("data", int, "an integer", 1000)
    kind: str = _key("stream", _to_str, "one of rotated, permuted", "rotated", ("rotated", "permuted"))
    variant: str = _key("stream", _to_str, "one of balanced, imbalanced, noisy", "balanced", ("balanced", "imbalanced", "noisy"))
    num_tasks: int = _key("stream", int, "an integer", 5)
    train_per_task: int = _key("stream", int, "an integer", 1000)
    test_per_task: int = _key("stream", int, "an integer", 500)
    noise_fraction: float = _key("stream", float, "a number", 0.6)
    imbalance_keep: float = _key("stream", float, "a number", 0.1)
    imbalance_reduced: int = _key("stream", int, "an integer", 8)
    master_seed: int = _key("stream", int, "an integer", 0)
    stream_batch_size: int = _key("train", int, "an integer", _TRAIN.stream_batch_size)
    buffer_batch_size: int = _key("train", int, "an integer", _TRAIN.buffer_batch_size)
    buffer_capacity: int = _key("train", int, "an integer", _TRAIN.buffer_capacity)
    lr0: float = _key("train", float, "a number", _TRAIN.lr0)
    lr_decay: float = _key("train", float, "a number", _TRAIN.lr_decay)
    epochs: int = _key("train", int, "an integer", _TRAIN.epochs)
    lam: float = _key("train", float, "a number", _TRAIN.lam, key="lambda")
    kappa: int = _key("train", int, "an integer", _TRAIN.selection.kappa)
    tau: float = _key("train", float, "a number", _TRAIN.selection.tau)
    agem: bool = _key("train", _to_bool, "a boolean", _TRAIN.agem)
    hidden: tuple = _key("train", _to_int_tuple, "comma-separated integers", _TRAIN.hidden)
    grad_layers: tuple | None = _key("train", _to_layers, "'all' or comma-separated integers", None)  # None: every layer
    log_scores: bool = _key("train", _to_bool, "a boolean", _TRAIN.log_scores)
    strategies: tuple = _key("experiment", _to_str_tuple, "comma-separated strategy names", (_TRAIN.selection.strategy,))
    num_seeds: int = _key("experiment", int, "an integer", 1)
    seed0: int = _key("experiment", int, "an integer", 0)
    output_dir: str = _key("experiment", _to_str, "a directory path", "runs")
    batch_sizes: tuple = _key("diagnose", _to_batch_sizes, "comma-separated sizes or 'full'", (10, 50, 100, 500))
    n_batches: int = _key("diagnose", int, "an integer", 20)
    cross: bool = _key("diagnose", _to_bool, "a boolean", True)

    def train_config(self, strategy: str, seed: int) -> TrainConfig:
        """The TrainConfig of one run: fields named like a TrainConfig field pass through unchanged."""
        same = {f.name: getattr(self, f.name) for f in fields(TrainConfig) if hasattr(self, f.name)}
        return TrainConfig(
            **same,
            selection=SelectionConfig(kappa=self.kappa, tau=self.tau, strategy=strategy),
            grad_selector=self.grad_layers,
            seed=seed,
        )


# Config key -> its ExperimentConfig field.
_FIELDS = {f.metadata["key"] or f.name: f for f in fields(ExperimentConfig)}
_SECTIONS = tuple(dict.fromkeys(f.metadata["section"] for f in _FIELDS.values()))
_INLINE_COMMENT = re.compile(r"\s[#;]")
# The least value of each integer key that has one: seeds count from 0, sizes from 1.
_LEAST = {key: 0 for key in ("master_seed", "seed0")} | {key: 1 for key in (
    "synthetic_train", "synthetic_test", "num_tasks", "train_per_task", "test_per_task", "num_seeds", "n_batches")}


def known_keys() -> tuple[str, ...]:
    return tuple(_FIELDS)


def _convert(key: str, raw: str, where: str):
    meta = _FIELDS[key].metadata
    try:
        value = meta["convert"](raw)
    except ValueError:
        raise ConfigError(f"value for key '{key}' must be {meta['describe']}, got '{raw}' {where}") from None
    if meta["choices"] is not None and value not in meta["choices"]:
        raise ConfigError(f"value for key '{key}' must be {meta['describe']}, got '{raw}' {where}")
    return value


def _parse_file(path: str, values: dict) -> None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    section = None
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        stripped = _INLINE_COMMENT.split(line, maxsplit=1)[0].strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section '[{section}]' (line {lineno})")
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got '{stripped}' (line {lineno})")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if section is None:
            raise ConfigError(f"key '{key}' appears before any [section] header (line {lineno})")
        if key not in _FIELDS or _FIELDS[key].metadata["section"] != section:
            raise ConfigError(f"unknown key '{key}' in section [{section}] (line {lineno})")
        if key in seen:
            raise ConfigError(f"duplicate key '{key}' (line {lineno})")
        seen.add(key)
        values[_FIELDS[key].name] = _convert(key, raw, f"(line {lineno})")


def parse_config(path: str | None = None, overrides: dict | None = None, env=None) -> ExperimentConfig:
    """Resolve defaults, then file, then environment, then flag overrides."""
    env = os.environ if env is None else env
    values = {}  # field name -> value; absent fields keep their defaults
    if path is not None:
        _parse_file(path, values)
    if env.get(_ENV_OUTPUT_DIR):
        values["output_dir"] = _convert("output_dir", env[_ENV_OUTPUT_DIR], f"({_ENV_OUTPUT_DIR})")
    for key, raw in (overrides or {}).items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown key '{key}' (flag)")
        values[_FIELDS[key].name] = _convert(key, raw, "(flag)")
    cfg = ExperimentConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.source == "idx":
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            path = getattr(cfg, key)
            if not path:
                raise ConfigError(f"key '{key}' is required when source = idx")
            if not os.path.exists(path):
                raise ConfigError(f"key '{key}': file not found: {path}")
    for key, f in _FIELDS.items():  # a flag or the environment could set what a manifest cannot hold
        value = getattr(cfg, f.name)
        if not isinstance(value, str):
            continue
        if _INLINE_COMMENT.search(f" {value}"):  # the manifest writes 'key = value'
            raise ConfigError(f"key '{key}': '#' or ';' after whitespace would start a comment in the manifest")
        if "\n" in value or "\r" in value:
            raise ConfigError(f"key '{key}': a line break would split its line in the manifest")
    if not cfg.output_dir:
        raise ConfigError("key 'output_dir' must name a directory, got an empty value")
    for key, least in _LEAST.items():
        if getattr(cfg, key) < least:
            raise ConfigError(f"key '{key}' must be at least {least}, got {getattr(cfg, key)}")
    if not 0 <= cfg.imbalance_reduced <= NUM_CLASSES:
        raise ConfigError(f"key 'imbalance_reduced' must lie in 0..{NUM_CLASSES}, got {cfg.imbalance_reduced}")
    if not 0.0 < cfg.imbalance_keep <= 1.0:
        raise ConfigError(f"key 'imbalance_keep' must lie in (0, 1], got {cfg.imbalance_keep}")
    if not 0.0 <= cfg.noise_fraction <= 1.0:
        raise ConfigError(f"key 'noise_fraction' must lie in [0, 1], got {cfg.noise_fraction}")
    for n, strategy in enumerate(cfg.strategies):
        if strategy not in REGISTRY:
            raise ConfigError(f"key 'strategies': unknown strategy '{strategy}' (choose from {', '.join(REGISTRY)})")
        if strategy in cfg.strategies[:n]:
            raise ConfigError(f"key 'strategies' names '{strategy}' twice")
    try:
        cfg.train_config(cfg.strategies[0], cfg.seed0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _render_value(key: str, value) -> str:
    if key == "grad_layers":
        return "all" if value is None else ",".join(str(v) for v in value)
    if key == "batch_sizes":
        return ",".join("full" if v == FULL_DATASET else str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def render_manifest(cfg: ExperimentConfig) -> str:
    """The fully resolved config in its own file format (replayable)."""
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        for key, f in _FIELDS.items():
            if f.metadata["section"] == section:
                lines.append(f"{key} = {_render_value(key, getattr(cfg, f.name))}")
        lines.append("")
    return "\n".join(lines)

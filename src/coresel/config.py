"""Experiment configuration: strict key = value files plus flag overrides.

The file format is line-oriented: ``[section]`` headers, ``key = value``
pairs, blank lines, and comment lines starting with ``#`` or ``;``. Every
key belongs to a fixed registry; anything else is an error that names the
key and line, so typos never silently fall back to defaults. Flags override
file values, which override defaults; the environment may override only the
output directory (CORESEL_OUTPUT_DIR).

An ExperimentConfig renders back to the same format via `render_manifest`,
and parsing that text reproduces the config exactly — which is what makes a
recorded manifest replayable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ConfigError
from .model import GradSelector
from .selection import STRATEGIES, SelectionConfig
from .trainer import TrainConfig

_ENV_OUTPUT_DIR = "CORESEL_OUTPUT_DIR"

# FULL_DATASET is the batch_sizes sentinel for "use every example at once".
FULL_DATASET = 0


def _to_int(raw: str):
    return int(raw, 10)


def _to_float(raw: str):
    return float(raw)


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
    return tuple(_to_int(p) for p in _split_list(raw))


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
            value = _to_int(part)
            if value < 1:
                raise ValueError(part)
            out.append(value)
    return tuple(out)


@dataclass(frozen=True)
class _KeySpec:
    section: str
    name: str
    convert: object
    default: object
    describe: str
    choices: tuple | None = None


_SPECS = (
    _KeySpec("data", "source", _to_str, "synthetic", "one of synthetic, idx", ("synthetic", "idx")),
    _KeySpec("data", "train_images", _to_str, "", "a file path"),
    _KeySpec("data", "train_labels", _to_str, "", "a file path"),
    _KeySpec("data", "test_images", _to_str, "", "a file path"),
    _KeySpec("data", "test_labels", _to_str, "", "a file path"),
    _KeySpec("data", "synthetic_train", _to_int, 2000, "an integer"),
    _KeySpec("data", "synthetic_test", _to_int, 1000, "an integer"),
    _KeySpec("stream", "kind", _to_str, "rotated", "one of rotated, permuted", ("rotated", "permuted")),
    _KeySpec("stream", "variant", _to_str, "balanced", "one of balanced, imbalanced, noisy", ("balanced", "imbalanced", "noisy")),
    _KeySpec("stream", "num_tasks", _to_int, 5, "an integer"),
    _KeySpec("stream", "train_per_task", _to_int, 1000, "an integer"),
    _KeySpec("stream", "test_per_task", _to_int, 500, "an integer"),
    _KeySpec("stream", "noise_fraction", _to_float, 0.6, "a number"),
    _KeySpec("stream", "imbalance_keep", _to_float, 0.1, "a number"),
    _KeySpec("stream", "imbalance_reduced", _to_int, 8, "an integer"),
    _KeySpec("stream", "master_seed", _to_int, 0, "an integer"),
    _KeySpec("train", "stream_batch_size", _to_int, 100, "an integer"),
    _KeySpec("train", "buffer_batch_size", _to_int, 10, "an integer"),
    _KeySpec("train", "buffer_capacity", _to_int, 200, "an integer"),
    _KeySpec("train", "lr0", _to_float, 0.005, "a number"),
    _KeySpec("train", "lr_decay", _to_float, 0.8, "a number"),
    _KeySpec("train", "epochs", _to_int, 1, "an integer"),
    _KeySpec("train", "lambda", _to_float, 1.0, "a number"),
    _KeySpec("train", "kappa", _to_int, 10, "an integer"),
    _KeySpec("train", "tau", _to_float, 1000.0, "a number"),
    _KeySpec("train", "agem", _to_bool, False, "a boolean"),
    _KeySpec("train", "hidden", _to_int_tuple, (256, 256), "comma-separated integers"),
    _KeySpec("train", "grad_layers", _to_layers, None, "'all' or comma-separated integers"),
    _KeySpec("train", "log_scores", _to_bool, False, "a boolean"),
    _KeySpec("experiment", "strategies", _to_str_tuple, ("ocs",), "comma-separated strategy names"),
    _KeySpec("experiment", "num_seeds", _to_int, 1, "an integer"),
    _KeySpec("experiment", "seed0", _to_int, 0, "an integer"),
    _KeySpec("experiment", "output_dir", _to_str, "runs", "a directory path"),
    _KeySpec("diagnose", "batch_sizes", _to_batch_sizes, (10, 50, 100, 500), "comma-separated sizes or 'full'"),
    _KeySpec("diagnose", "n_batches", _to_int, 20, "an integer"),
    _KeySpec("diagnose", "cross", _to_bool, True, "a boolean"),
)

_BY_KEY = {spec.name: spec for spec in _SPECS}
assert len(_BY_KEY) == len(_SPECS), "config key names must be globally unique"
_SECTIONS = tuple(dict.fromkeys(spec.section for spec in _SPECS))


def known_keys() -> tuple[str, ...]:
    return tuple(spec.name for spec in _SPECS)


def _convert(spec: _KeySpec, raw: str, where: str):
    try:
        value = spec.convert(raw)
    except ValueError:
        raise ConfigError(f"value for key '{spec.name}' must be {spec.describe}, got '{raw}' {where}") from None
    if spec.choices is not None and value not in spec.choices:
        raise ConfigError(f"value for key '{spec.name}' must be {spec.describe}, got '{raw}' {where}")
    return value


def _parse_file(path: str, values: dict) -> None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    section = None
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
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
        spec = _BY_KEY.get(key)
        if spec is None or spec.section != section:
            raise ConfigError(f"unknown key '{key}' in section [{section}] (line {lineno})")
        if key in seen:
            raise ConfigError(f"duplicate key '{key}' (line {lineno})")
        seen.add(key)
        values[key] = _convert(spec, raw, f"(line {lineno})")


@dataclass(frozen=True)
class ExperimentConfig:
    source: str
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str
    synthetic_train: int
    synthetic_test: int
    kind: str
    variant: str
    num_tasks: int
    train_per_task: int
    test_per_task: int
    noise_fraction: float
    imbalance_keep: float
    imbalance_reduced: int
    master_seed: int
    stream_batch_size: int
    buffer_batch_size: int
    buffer_capacity: int
    lr0: float
    lr_decay: float
    epochs: int
    lam: float
    kappa: int
    tau: float
    agem: bool
    hidden: tuple
    grad_layers: tuple | None
    log_scores: bool
    strategies: tuple
    num_seeds: int
    seed0: int
    output_dir: str
    batch_sizes: tuple
    n_batches: int
    cross: bool

    def train_config(self, strategy: str, seed: int) -> TrainConfig:
        selector = None if self.grad_layers is None else GradSelector(self.grad_layers)
        return TrainConfig(
            stream_batch_size=self.stream_batch_size,
            buffer_batch_size=self.buffer_batch_size,
            buffer_capacity=self.buffer_capacity,
            lr0=self.lr0,
            lr_decay=self.lr_decay,
            epochs=self.epochs,
            lam=self.lam,
            selection=SelectionConfig(kappa=self.kappa, tau=self.tau, strategy=strategy),
            agem=self.agem,
            grad_selector=selector,
            hidden=self.hidden,
            seed=seed,
            log_scores=self.log_scores,
        )


_FIELD_FOR_KEY = {"lambda": "lam"}


def _field_name(key: str) -> str:
    return _FIELD_FOR_KEY.get(key, key)


def parse_config(path: str | None = None, overrides: dict | None = None, env=None) -> ExperimentConfig:
    """Resolve defaults, then file, then environment, then flag overrides."""
    env = os.environ if env is None else env
    values = {spec.name: spec.default for spec in _SPECS}
    if path is not None:
        _parse_file(path, values)
    if env.get(_ENV_OUTPUT_DIR):
        values["output_dir"] = env[_ENV_OUTPUT_DIR]
    for key, raw in (overrides or {}).items():
        spec = _BY_KEY.get(key)
        if spec is None:
            raise ConfigError(f"unknown key '{key}' (flag)")
        values[key] = _convert(spec, raw, "(flag)")
    cfg = ExperimentConfig(**{_field_name(k): v for k, v in values.items()})
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
    if cfg.num_seeds < 1:
        raise ConfigError(f"key 'num_seeds' must be at least 1, got {cfg.num_seeds}")
    for strategy in cfg.strategies:
        if strategy not in STRATEGIES:
            raise ConfigError(f"key 'strategies': unknown strategy '{strategy}' (choose from {', '.join(STRATEGIES)})")
    try:
        cfg.train_config(cfg.strategies[0], cfg.seed0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _render_value(spec: _KeySpec, value) -> str:
    if spec.name == "grad_layers":
        return "all" if value is None else ",".join(str(v) for v in value)
    if spec.name == "batch_sizes":
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
        for spec in _SPECS:
            if spec.section != section:
                continue
            lines.append(f"{spec.name} = {_render_value(spec, getattr(cfg, _field_name(spec.name)))}")
        lines.append("")
    return "\n".join(lines)

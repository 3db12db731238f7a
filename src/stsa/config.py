"""Experiment configuration: a flat key = value text document.

The document is a run's only input: every key names an ``ExperimentConfig``
field, and a field it leaves out keeps its default. The defaults are the
paper's from-scratch regime (M=5000, gamma=1e4, K_D=50); its pretrained
regime is ``M = 1250``, ``gamma = 1e6`` and ``K_D = 10``. A config is
checked when it is built, so no invalid one exists: ``ExperimentConfig(...)``
and ``dataclasses.replace`` raise ``ConfigurationError`` on a bad value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigurationError

@dataclass(frozen=True)
class ExperimentConfig:
    # data source: "synthetic" or "files"
    data: str = "synthetic"
    train_path: str | None = None
    test_path: str | None = None
    synth_classes: int = 20
    synth_dim: int = 16
    synth_train_per_class: int = 200
    synth_test_per_class: int = 50
    synth_noise_std: float = 1.0
    # schedule and federation
    T: int = 10
    first_task_classes: int | None = None
    K: int = 5
    beta: float = 0.5
    seed: int = 0
    shuffle_classes: bool = False
    # random mapping and solve
    M: int = 5000
    gamma: float = 1e4
    # upload mode
    mode: str = "full"
    K_D: int = 50
    noise_q: float = 0.0
    noise_s: float = 0.0
    # verification and accounting
    oracle_check: bool = False
    elem_bytes: int = 4
    # estimator study
    study_K: str = "2,5,10,50"
    study_trials: int = 1000

    def __post_init__(self):
        for key, hint in _FIELDS.items():
            value = getattr(self, key)
            if hint is float and not math.isfinite(value):
                raise ConfigurationError(f"{key} must be finite, got {value}")
        if self.data not in ("synthetic", "files"):
            raise ConfigurationError(f"data must be synthetic or files, got {self.data!r}")
        if self.data == "files" and (not self.train_path or not self.test_path):
            raise ConfigurationError("files data source needs train_path and test_path")
        if self.mode not in ("full", "efficient"):
            raise ConfigurationError(f"mode must be full or efficient, got {self.mode!r}")
        for key in ("synth_classes", "synth_dim", "synth_train_per_class", "T", "K", "M", "K_D",
                    "first_task_classes"):
            value = getattr(self, key)
            if value is not None and value < 1:
                raise ConfigurationError(f"{key} must be >= 1, got {value}")
        if self.synth_test_per_class < 0:
            raise ConfigurationError(
                f"synth_test_per_class must be >= 0, got {self.synth_test_per_class}"
            )
        if self.beta <= 0.0:
            raise ConfigurationError(f"beta must be > 0, got {self.beta}")
        if self.gamma < 0.0:
            raise ConfigurationError(f"gamma must be >= 0, got {self.gamma}")
        if self.synth_noise_std < 0.0:
            raise ConfigurationError(f"synth_noise_std must be >= 0, got {self.synth_noise_std}")
        if self.noise_q < 0.0 or self.noise_s < 0.0:
            raise ConfigurationError("noise_q and noise_s must be >= 0")
        if self.elem_bytes < 1:
            raise ConfigurationError(f"elem_bytes must be >= 1, got {self.elem_bytes}")

    def study_k_values(self) -> tuple[int, ...]:
        try:
            values = tuple(int(part) for part in self.study_K.split(",") if part.strip())
        except ValueError:
            raise ConfigurationError(f"study_K must be comma-separated ints, got {self.study_K!r}")
        if not values:
            raise ConfigurationError("study_K must name at least one client count")
        return values

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


_HINTS = get_type_hints(ExperimentConfig)
_FIELDS = {f.name: _HINTS[f.name] for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    hint = _FIELDS[key]
    text = raw.strip()
    if hint in (int, int | None):
        if text.lower() == "none" and hint == (int | None):
            return None
        try:
            return int(text)
        except ValueError:
            raise ConfigurationError(f"{key} expects an integer, got {raw!r}")
    if hint is float:
        try:
            return float(text)
        except ValueError:
            raise ConfigurationError(f"{key} expects a number, got {raw!r}")
    if hint is bool:
        lowered = text.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigurationError(f"{key} expects true/false, got {raw!r}")
    return text  # str and str | None fields


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key = value document into a config."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, value.strip())
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    return parse_config(text)

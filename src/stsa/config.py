"""Experiment configuration: a flat key = value text document.

Presets carry the two reference regimes: "scratch" (M=5000, gamma=1e4,
K_D=50) and "pretrained" (M=1250, gamma=1e6, K_D=10). A preset key in the
document is applied first; explicit keys override it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigurationError

PRESETS = {
    "scratch": {"M": 5000, "gamma": 1e4, "K_D": 50},
    "pretrained": {"M": 1250, "gamma": 1e6, "K_D": 10},
}


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
    synth_mean_scale: float = 1.0
    synth_noise_std: float = 1.0
    # schedule and federation
    T: int = 10
    first_task_classes: int | None = None
    K: int = 5
    beta: float = 0.5
    seed: int = 0
    shuffle_classes: bool = False
    repartition_each_task: bool = True
    # random mapping and solve
    M: int = 5000
    map_enabled: bool = True
    map_scale: str = "unit"
    gamma: float = 1e4
    # upload mode
    mode: str = "full"
    K_D: int = 50
    stratified_dummy: bool = False
    noise_q: float = 0.0
    noise_s: float = 0.0
    # verification and accounting
    oracle_check: bool = False
    elem_bytes: int = 4
    # estimator study
    study_K: str = "2,5,10,50"
    study_trials: int = 1000

    def validate(self) -> "ExperimentConfig":
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
        if self.map_scale not in ("unit", "inv_dim"):
            raise ConfigurationError(f"map_scale must be unit or inv_dim, got {self.map_scale!r}")
        if self.T < 1:
            raise ConfigurationError(f"T must be >= 1, got {self.T}")
        if self.K < 1:
            raise ConfigurationError(f"K must be >= 1, got {self.K}")
        if self.M < 1:
            raise ConfigurationError(f"M must be >= 1, got {self.M}")
        if self.K_D < 1:
            raise ConfigurationError(f"K_D must be >= 1, got {self.K_D}")
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
        if self.study_trials < 1:
            raise ConfigurationError(f"study_trials must be >= 1, got {self.study_trials}")
        return self

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
    """Parse the flat key = value document into a validated config."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key != "preset" and key not in _FIELDS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    values: dict[str, object] = {}
    preset = raw.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {preset!r}; available: {sorted(PRESETS)}"
            )
        values.update(PRESETS[preset])
    for key, text_value in raw.items():
        values[key] = _parse_value(key, text_value)
    return ExperimentConfig(**values).validate()


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())

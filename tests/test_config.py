"""Flat key = value config parsing and validation."""

import re
import runpy
from dataclasses import fields, replace
from pathlib import Path

import pytest

from stsa.config import ExperimentConfig, load_config, parse_config
from stsa.errors import ConfigurationError

ROOT = Path(__file__).resolve().parent.parent
# The benchmark's workload table is pure data; run_path reads it without
# importing perfbench or writing bytecode next to it.
_WORKLOADS = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
SHIPPED = [
    pytest.param(path, id=f"configs/{path.name}")
    for path in sorted((ROOT / "configs").glob("*.cfg"))
] + [pytest.param(name, id=f"workload/{name}") for name in _WORKLOADS["WORKLOADS"]]


def test_defaults_follow_reference_setup():
    cfg = ExperimentConfig()
    assert cfg.T == 10 and cfg.K == 5
    assert cfg.mode == "full"


def test_parse_round_trip():
    cfg = ExperimentConfig(T=5, K=3, beta=0.1, seed=42, mode="efficient", K_D=7)
    again = parse_config(cfg.to_text())
    assert again == cfg


def test_comments_and_blank_lines_are_skipped():
    cfg = parse_config("# a comment\n\nT = 5\nsynth_classes = 10\n")
    assert cfg.T == 5 and cfg.synth_classes == 10


def test_unknown_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_config("bogus = 1\n")


@pytest.mark.parametrize("source", SHIPPED)
def test_every_shipped_config_parses(source):
    # Both readers validate what they parse.
    if isinstance(source, Path):
        load_config(source)
    else:
        assert parse_config(_WORKLOADS["config_text"](source, seed=1)).seed == 1


def test_removed_partition_key_is_unknown():
    # Every stage draws its own split; the one-global-split switch is gone.
    with pytest.raises(ConfigurationError, match="unknown key 'repartition_each_task'"):
        parse_config("repartition_each_task = true\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_config("T = 5\nT = 6\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigurationError, match="key = value"):
        parse_config("just some words\n")


def test_type_errors_are_configuration_errors():
    with pytest.raises(ConfigurationError):
        parse_config("T = soon\n")
    with pytest.raises(ConfigurationError):
        parse_config("beta = maybe\n")
    with pytest.raises(ConfigurationError, match="shuffle_classes expects true/false"):
        parse_config("shuffle_classes = perhaps\n")


def test_bool_spellings():
    assert parse_config("shuffle_classes = on\n").shuffle_classes is True
    assert parse_config("oracle_check = off\n").oracle_check is False
    assert parse_config("oracle_check = yes\n").oracle_check is True


def test_validation_catches_bad_values():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(mode="compressed")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(T=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(beta=0.0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(data="files")  # missing paths
    with pytest.raises(ConfigurationError):
        ExperimentConfig(noise_q=-1.0)
    with pytest.raises(ConfigurationError, match="M must be >= 1, got 0"):
        ExperimentConfig(M=0)


@pytest.mark.parametrize("build", ["constructor", "replace"])
def test_invalid_config_cannot_be_built(build):
    # A config is checked when it is built, so no invalid one exists for a
    # caller to forget to check, not even one derived from a valid config.
    with pytest.raises(ConfigurationError, match="^K must be >= 1, got 0$"):
        if build == "constructor":
            ExperimentConfig(K=0)
        else:
            replace(ExperimentConfig(), K=0)


@pytest.mark.parametrize(
    "key, value, bound",
    [
        ("synth_classes", 0, ">= 1"),
        ("synth_dim", 0, ">= 1"),
        ("synth_train_per_class", 0, ">= 1"),
        ("synth_test_per_class", -1, ">= 0"),
    ],
)
def test_synthetic_sizes_are_checked_when_the_config_is_built(key, value, bound):
    # A bad size is refused by its key, not later inside a run. A split may
    # hold no test rows (the estimator study draws none).
    with pytest.raises(ConfigurationError, match=f"^{key} must be {bound}, got {value}$"):
        ExperimentConfig(**{key: value})
    assert getattr(ExperimentConfig(**{key: value + 1}), key) == value + 1


@pytest.mark.parametrize("value", [0, -4])
def test_first_task_size_is_checked_when_the_config_is_built(value):
    # A first task of no classes is refused by its key, not later when the
    # schedule is split after the data is loaded; None keeps equal tasks.
    with pytest.raises(ConfigurationError, match=f"^first_task_classes must be >= 1, got {value}$"):
        ExperimentConfig(first_task_classes=value)
    with pytest.raises(ConfigurationError, match="first_task_classes must be >= 1"):
        parse_config(f"first_task_classes = {value}\n")
    assert ExperimentConfig(first_task_classes=1).first_task_classes == 1
    assert ExperimentConfig(first_task_classes=None).first_task_classes is None


def test_negative_synth_noise_std_is_rejected():
    # A negative spread is refused, not run as its absolute value.
    with pytest.raises(ConfigurationError, match="synth_noise_std must be >= 0, got -2.0"):
        parse_config("synth_noise_std = -2\n")
    assert parse_config("synth_noise_std = 0\n").synth_noise_std == 0.0


def test_study_k_values():
    assert ExperimentConfig(study_K="2, 5,10").study_k_values() == (2, 5, 10)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(study_K="2;5").study_k_values()
    with pytest.raises(ConfigurationError):
        ExperimentConfig(study_K="").study_k_values()


def test_readme_key_groups_name_every_config_key():
    # The README's "Key groups" list is the user's index of config keys; a
    # key added to or removed from ExperimentConfig must be listed there.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    groups = readme.split("Key groups:", 1)[1].lstrip().split("\n\n", 1)[0]
    named = [re.match(r"\w+", span).group() for span in re.findall(r"`([^`]+)`", groups)]
    assert sorted(named) == sorted(f.name for f in fields(ExperimentConfig))

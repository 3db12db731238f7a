"""Flat key = value config parsing, presets, validation."""

import pytest

from stsa.config import ExperimentConfig, parse_config
from stsa.errors import ConfigurationError


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


def test_preset_applies_before_overrides():
    cfg = parse_config("preset = scratch\n")
    assert (cfg.M, cfg.gamma, cfg.K_D) == (5000, 1e4, 50)
    cfg = parse_config("preset = pretrained\n")
    assert (cfg.M, cfg.gamma, cfg.K_D) == (1250, 1e6, 10)
    cfg = parse_config("preset = scratch\nM = 64\n")
    assert cfg.M == 64 and cfg.gamma == 1e4


def test_unknown_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_config("bogus = 1\n")


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
    with pytest.raises(ConfigurationError):
        parse_config("map_enabled = perhaps\n")


def test_bool_spellings():
    assert parse_config("map_enabled = off\n").map_enabled is False
    assert parse_config("oracle_check = yes\n").oracle_check is True


def test_validation_catches_bad_values():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(mode="compressed").validate()
    with pytest.raises(ConfigurationError):
        ExperimentConfig(T=0).validate()
    with pytest.raises(ConfigurationError):
        ExperimentConfig(beta=0.0).validate()
    with pytest.raises(ConfigurationError):
        ExperimentConfig(data="files").validate()  # missing paths
    with pytest.raises(ConfigurationError):
        ExperimentConfig(noise_q=-1.0).validate()
    # A disabled map ignores M, but M = 0 is still an invalid config.
    with pytest.raises(ConfigurationError, match="M must be >= 1, got 0"):
        ExperimentConfig(M=0, map_enabled=False).validate()


def test_negative_synth_noise_std_is_rejected():
    # The synthetic spec squares the std, so -2 used to run as 2.
    with pytest.raises(ConfigurationError, match="synth_noise_std must be >= 0, got -2.0"):
        parse_config("synth_noise_std = -2\n")
    assert parse_config("synth_noise_std = 0\n").synth_noise_std == 0.0


def test_study_k_values():
    assert ExperimentConfig(study_K="2, 5,10").study_k_values() == (2, 5, 10)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(study_K="2;5").study_k_values()
    with pytest.raises(ConfigurationError):
        ExperimentConfig(study_K="").study_k_values()

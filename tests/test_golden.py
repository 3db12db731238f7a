"""Checked-in reports: refactors must reproduce them byte for byte."""

from pathlib import Path

import pytest

from stsa.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
BENCHMARK_CFG = ROOT / "configs" / "benchmark.cfg"


@pytest.mark.parametrize(
    "mode, golden",
    [("full", "benchmark-full.txt"), ("efficient", "benchmark-efficient.txt")],
)
def test_benchmark_report_matches_golden(tmp_path, mode, golden):
    out = tmp_path / "report.txt"
    assert main(["run", "--config", str(BENCHMARK_CFG), "--mode", mode, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "mode, golden",
    [("full", "benchmark-noised-full.txt"), ("efficient", "benchmark-noised-efficient.txt")],
)
def test_noised_benchmark_report_matches_golden(tmp_path, mode, golden):
    """The benchmark config with privacy noise on pins the noise draw order."""
    config = tmp_path / "noised.cfg"
    config.write_text(BENCHMARK_CFG.read_text() + "noise_q = 0.2\nnoise_s = 0.05\n")
    out = tmp_path / "report.txt"
    assert main(["run", "--config", str(config), "--mode", mode, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_oracle_report_matches_golden(tmp_path):
    out = tmp_path / "oracle.txt"
    assert main(["oracle", "--config", str(BENCHMARK_CFG), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "benchmark-oracle.txt").read_bytes()

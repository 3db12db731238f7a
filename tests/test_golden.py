"""Checked-in reports: refactors must reproduce them byte for byte."""

from pathlib import Path

import pytest

from stsa.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "mode, golden",
    [("full", "benchmark-full.txt"), ("efficient", "benchmark-efficient.txt")],
)
def test_benchmark_report_matches_golden(tmp_path, mode, golden):
    out = tmp_path / "report.txt"
    config = ROOT / "configs" / "benchmark.cfg"
    assert main(["run", "--config", str(config), "--mode", mode, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_oracle_report_matches_golden(tmp_path):
    out = tmp_path / "oracle.txt"
    config = ROOT / "configs" / "benchmark.cfg"
    assert main(["oracle", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "benchmark-oracle.txt").read_bytes()

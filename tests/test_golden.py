"""Checked-in reports: refactors must reproduce them byte for byte.

The reports are pinned at one BLAS thread (see conftest.py). Only the
``[oracle]`` lines depend on the BLAS thread count.
"""

import os
import subprocess
import sys
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


def _outside_oracle(report: str) -> list[str]:
    """The report's lines, without the body of its ``[oracle]`` section."""
    kept, in_oracle = [], False
    for line in report.splitlines():
        if line.startswith("["):
            in_oracle = line == "[oracle]"
        elif in_oracle and line:
            continue
        kept.append(line)
    return kept


@pytest.mark.parametrize(
    "mode, golden",
    [("full", "benchmark-full.txt"), ("efficient", "benchmark-efficient.txt")],
)
def test_report_outside_oracle_does_not_depend_on_blas_threads(tmp_path, mode, golden):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    env.update({var: "3" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    out = tmp_path / "report.txt"
    done = subprocess.run(
        [sys.executable, "-m", "stsa", "run", "--config", str(BENCHMARK_CFG),
         "--mode", mode, "--out", str(out)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    expected = _outside_oracle((GOLDEN / golden).read_text())
    assert "[oracle]" in expected
    assert _outside_oracle(out.read_text()) == expected

"""Checked-in reports: refactors must reproduce them byte for byte.

The reports are pinned at one BLAS thread (see conftest.py). Only the
``[oracle]`` lines depend on the BLAS thread count.
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stsa.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
BENCHMARK_CFG = ROOT / "configs" / "benchmark.cfg"


def assert_matches_golden(out: Path, golden: str):
    """Byte equality of ``out`` and the golden; a mismatch shows a unified diff."""
    actual, expected = out.read_bytes(), (GOLDEN / golden).read_bytes()
    if actual != expected:
        pytest.fail(golden_diff(expected, actual, golden), pytrace=False)


def golden_diff(expected: bytes, actual: bytes, golden: str) -> str:
    """The differing lines of two reports; bytes that are not UTF-8 show escaped."""
    diff = difflib.unified_diff(
        expected.decode(errors="backslashreplace").splitlines(keepends=True),
        actual.decode(errors="backslashreplace").splitlines(keepends=True),
        fromfile=f"golden/{golden}",
        tofile="this run",
        n=0,
    )
    return f"report differs from golden/{golden}:\n" + "".join(diff)


@pytest.mark.parametrize(
    "mode, golden",
    [("full", "benchmark-full.txt"), ("efficient", "benchmark-efficient.txt")],
)
def test_benchmark_report_matches_golden(tmp_path, mode, golden):
    out = tmp_path / "report.txt"
    assert main(["run", "--config", str(BENCHMARK_CFG), "--mode", mode, "--out", str(out)]) == 0
    assert_matches_golden(out, golden)


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
    assert_matches_golden(out, golden)


def test_oracle_report_matches_golden(tmp_path):
    out = tmp_path / "oracle.txt"
    assert main(["oracle", "--config", str(BENCHMARK_CFG), "--out", str(out)]) == 0
    assert_matches_golden(out, "benchmark-oracle.txt")


def test_shuffled_oracle_report_matches_golden(tmp_path):
    """Shuffled classes and a larger first task leave each task's test rows
    scattered over the test set, and the tasks unequal in size."""
    config = tmp_path / "shuffled.cfg"
    shuffled = "shuffle_classes = true\nfirst_task_classes = 8\n"
    config.write_text(BENCHMARK_CFG.read_text() + shuffled)
    out = tmp_path / "oracle.txt"
    assert main(["oracle", "--config", str(config), "--out", str(out)]) == 0
    assert_matches_golden(out, "benchmark-oracle-shuffled.txt")


def test_estimator_study_report_matches_golden(tmp_path):
    """The study runs the gram estimator with no solve, so it pins the
    estimator's bits on their own."""
    out = tmp_path / "study.txt"
    config = ROOT / "configs" / "estimator-study.cfg"
    assert main(["estimator-study", "--config", str(config), "--out", str(out)]) == 0
    assert_matches_golden(out, "estimator-study.txt")


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


def test_golden_mismatch_shows_only_the_differing_lines():
    expected = b"[comm]\nstage 1 client 0: 67584\ntotal = 67584\n"
    actual = b"[comm]\nstage 1 client 0: 35072\ntotal = 35072\n"
    diff = golden_diff(expected, actual, "x.txt")
    assert diff.splitlines() == [
        "report differs from golden/x.txt:",
        "--- golden/x.txt",
        "+++ this run",
        "@@ -2,2 +2,2 @@",
        "-stage 1 client 0: 67584",
        "-total = 67584",
        "+stage 1 client 0: 35072",
        "+total = 35072",
    ]

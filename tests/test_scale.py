"""The scale-record script runs end to end at its tiny point."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_tiny_point_prints_and_writes_its_record(tmp_path):
    out = tmp_path / "BENCH_tiny.json"
    # No bytecode is written, so the run leaves nothing behind outside tmp_path.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "scale" / "run.py"), "--tiny", "--out", str(out)],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert time.perf_counter() - start < 10
    (record,) = json.loads(out.read_text(encoding="utf-8"))
    assert [json.loads(line) for line in done.stdout.splitlines()] == [record]
    assert record["point"] == "tiny"
    assert len(record["wall_s"]) == len(record["peak_rss_mb"]) == 2
    assert all(value > 0 for value in record["wall_s"] + record["peak_rss_mb"])
    assert isinstance(record["peaks_agree"], bool)
    # The peak net of the first tiny run, in M x M float64 units.
    assert record["tiny_peak_rss_mb"] > 0
    assert record["peak_units"] == pytest.approx(
        (max(record["peak_rss_mb"]) - record["tiny_peak_rss_mb"]) * 1e6 / (8 * record["config"]["M"] ** 2)
    )
    assert len(record["report_sha256"]) == 64
    env = record["env"]
    assert set(env) >= {
        "git_revision", "src_sha256", "python", "numpy", "scipy", "blas", "numpy_simd"
    }
    assert len(env["src_sha256"]) == 64

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
    record, files, shuffled = json.loads(out.read_text(encoding="utf-8"))
    assert [json.loads(line) for line in done.stdout.splitlines()] == [record, files, shuffled]
    assert record["point"] == "tiny"
    # The tiny config again, read from the feature files the script wrote
    # from it, named relative to the children's directory.
    assert files["point"] == "tiny-files"
    assert files["config"] == {
        **record["config"],
        "data": "files",
        "train_path": "features.train.stsafeat",
        "test_path": "features.test.stsafeat",
    }
    assert files["report_sha256"] != record["report_sha256"]  # the echo names the files
    assert files["env"] == record["env"]
    # The same files with their rows put in a seeded order, classes mixed.
    assert shuffled["point"] == "tiny-files-shuffled"
    assert shuffled["config"] == files["config"] and shuffled["env"] == record["env"]
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
    # Each child runs with glibc's mmap threshold pinned at this value.
    assert env["malloc_mmap_threshold"] == 131072

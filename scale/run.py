"""Scale records: wall time, peak RSS and report hash of stsa at fixed points.

    python3 scale/run.py [--root DIR] [--out FILE] [--tiny]

Runs each point as one ``run_experiment`` in a fresh child process at one
BLAS thread, against the stsa package in ``DIR/src`` (default: this
checkout), and runs it twice, each child at a pinned glibc mmap threshold
(``MALLOC_MMAP_THRESHOLD``) and in one temporary directory, which is
removed when the script ends. For each point it prints one JSON line:

- ``wall_s`` and ``peak_rss_mb`` of both runs: the ``run_experiment`` call's
  wall time, and the child's peak RSS from ``ru_maxrss`` (10^6 bytes per MB,
  as ``perfbench`` counts it);
- ``peaks_agree``: whether the two peaks are within 2% of each other;
- ``peak_units``: the higher peak net of ``tiny_peak_rss_mb``, in units of
  one M x M float64 array (8·M² bytes), M the point's mapped dimension;
  ``tiny_peak_rss_mb`` is the peak of one run of the tiny point, made first
  in the same invocation, which stands for the interpreter and libraries;
- ``report_sha256``: the sha256 of the report, which both runs must share;
- ``env``: the git revision of ``DIR`` (``-dirty`` when its ``src/`` differs
  from that revision), the sha256 of ``src/stsa/*.py``, the Python, numpy
  and scipy versions, the BLAS, the numpy SIMD targets this CPU runs and
  the pinned mmap threshold.

``--out FILE`` also writes the records as one JSON list, such as
``scale/BENCH_<rev>.json``. ``--tiny`` runs three small points, in seconds,
instead of the scale points: the tiny point, and the same config read from
feature files, sorted by class and shuffled.

The points are the pretrained shape (d=768, M=1250, 500 train and 100 test
rows per class, K=5, ``synth_noise_std = 6``) in full mode, efficient mode
and full mode with the oracle check, and M=2500 full mode at K=5 on the
``perfbench`` data shape (d=64, 200 train and 50 test rows per class,
``synth_noise_std = 2``). These draw synthetic data: the pretrained points'
peaks include the generator's one task of raw rows at a time. The last
point, pretrained-files, is pretrained full mode with ``data = files``: the
script writes its two feature files with ``stsa gen-features`` from the
same config, once, into the temporary directory, untimed, and the run reads
a task's rows from them when it takes the task. Its config names the files
relative to that directory, so its report is the same on every invocation.
pretrained-files-shuffled runs the same config from the same files once a
child has put each file's rows in one seeded random order, classes mixed,
as features an extractor wrote in dataset order would be; ``--tiny`` runs
``tiny-files-shuffled`` likewise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Without it glibc raises the threshold as large blocks are freed, so where
# later arrays land, and the peak RSS, depends on what ran before them.
MALLOC_MMAP_THRESHOLD = 131072
CHILD_TIMEOUT_S = 1200
PEAK_AGREEMENT = 0.02
# A files point reads the feature files that `stsa gen-features` writes
# from its config under this prefix, in the directory every child runs in.
FEATURES = "features"
# The rows of these points' feature files are put in one seeded random
# order once written, as an extractor run in dataset order writes them:
# classes mixed, where `stsa gen-features` writes each class's rows together.
SHUFFLED = frozenset({"pretrained-files-shuffled", "tiny-files-shuffled"})
SHUFFLE_SEED = 1

# Settings every point shares: 100 classes in 10 tasks, as perfbench runs.
_COMMON = dict(synth_classes=100, T=10, beta=0.5, gamma=1e6, seed=1, K=5, K_D=10)
_PRETRAINED = dict(
    _COMMON,
    synth_dim=768,
    synth_train_per_class=500,
    synth_test_per_class=100,
    synth_noise_std=6.0,
    M=1250,
)


def from_files(config: dict) -> dict:
    """``config`` run from the feature files written from its synthetic keys."""
    return dict(
        config, data="files",
        train_path=f"{FEATURES}.train.stsafeat", test_path=f"{FEATURES}.test.stsafeat",
    )


POINTS = {
    "pretrained-full": dict(_PRETRAINED, mode="full"),
    "pretrained-efficient": dict(_PRETRAINED, mode="efficient"),
    "pretrained-full-oracle": dict(_PRETRAINED, mode="full", oracle_check=True),
    "m2500-full": dict(
        _COMMON,
        synth_dim=64,
        synth_train_per_class=200,
        synth_test_per_class=50,
        synth_noise_std=2.0,
        M=2500,
        mode="full",
    ),
    "pretrained-files": from_files(dict(_PRETRAINED, mode="full")),
    "pretrained-files-shuffled": from_files(dict(_PRETRAINED, mode="full")),
}

_TINY = dict(
    synth_classes=6, synth_dim=4, synth_train_per_class=40, synth_test_per_class=20,
    T=3, K=3, beta=0.5, M=16, gamma=10.0, seed=7, mode="full", oracle_check=True,
)
TINY_POINTS = {
    "tiny": _TINY, "tiny-files": from_files(_TINY), "tiny-files-shuffled": from_files(_TINY),
}

CHILD = """
import hashlib, json, resource, sys, time
import stsa
from stsa.config import ExperimentConfig
from stsa.runner import run_experiment
config = ExperimentConfig(**json.loads(sys.argv[1]))
start = time.perf_counter()
report = run_experiment(config)
wall_s = time.perf_counter() - start
print(json.dumps({
    "wall_s": wall_s,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    "report_sha256": hashlib.sha256(report.to_text().encode()).hexdigest(),
    "stsa": stsa.__file__,
}))
"""

# Rewrites each feature file named in argv[2:] with its rows, and their
# labels, in the order of a permutation seeded by argv[1]. It reads the
# file format itself, so it runs the same against any checkout's stsa.
SHUFFLE = """
import struct, sys
import numpy as np
HEADER = struct.Struct("<8sIQIIB7x")  # magic, version, n, d, class_count, role
for path in sys.argv[2:]:
    with open(path, "rb") as f:
        head = f.read(HEADER.size)
        _, _, n, d, _, _ = HEADER.unpack(head)
        rows = np.fromfile(f, dtype="<f4", count=n * d).reshape(n, d)
        labels = np.fromfile(f, dtype="<u4", count=n)
    order = np.random.default_rng(int(sys.argv[1])).permutation(n)
    with open(path, "wb") as f:
        f.write(head)
        f.write(np.ascontiguousarray(rows[order]))
        f.write(labels[order])
"""


def run_python(root: Path, work: Path, *args: str) -> str:
    """Run ``args`` in a fresh Python child in ``work``, against ``root``'s
    stsa, at one BLAS thread and the pinned mmap threshold; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["MALLOC_MMAP_THRESHOLD_"] = str(MALLOC_MMAP_THRESHOLD)
    done = subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, encoding="utf-8", env=env, cwd=work,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"child failed ({done.returncode}):\n{done.stderr}")
    return done.stdout


def write_features(root: Path, work: Path, config: dict, shuffled: bool = False) -> None:
    """``stsa gen-features`` from ``config``, written in ``work`` as ``FEATURES``;
    with ``shuffled``, each file's rows then go in ``SHUFFLE_SEED``'s order."""
    path = work / f"{FEATURES}.cfg"
    text = "".join(f"{key} = {value}\n" for key, value in config.items())
    path.write_text(text, encoding="utf-8")
    run_python(root, work, "-m", "stsa", "gen-features", "--config", path.name, "--out", FEATURES)
    if shuffled:
        files = [f"{FEATURES}.{role}.stsafeat" for role in ("train", "test")]
        run_python(root, work, "-c", SHUFFLE, str(SHUFFLE_SEED), *files)


def run_child(root: Path, work: Path, config: dict) -> dict:
    """One ``run_experiment`` of ``config`` in a fresh child in ``work``."""
    stdout = run_python(root, work, "-c", CHILD, json.dumps(config))
    result = json.loads(stdout.splitlines()[-1])
    if Path(result.pop("stsa")).resolve().parent != root / "src" / "stsa":
        raise SystemExit(f"the child did not import stsa from {root / 'src'}")
    return result


def git_revision(root: Path) -> str:
    """``root``'s HEAD, with ``-dirty`` when its ``src/`` differs from HEAD."""
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True, text=True, encoding="utf-8", timeout=30,
        )

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return "unknown"
    dirty = git("status", "--porcelain", "--", "src").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def source_digest(root: Path) -> str:
    """sha256 over ``src/stsa/*.py``, each file's relative path then its bytes."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "stsa").glob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    import numpy as np
    import scipy

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    features = umath.__cpu_features__
    return {
        "git_revision": git_revision(root),
        "src_sha256": source_digest(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "malloc_mmap_threshold": MALLOC_MMAP_THRESHOLD,
        "numpy_simd": {
            "baseline": list(umath.__cpu_baseline__),
            "dispatched": [t for t in umath.__cpu_dispatch__ if features.get(t)],
        },
    }


def measure(root: Path, work: Path, name: str, config: dict, env: dict, tiny_peak: float) -> dict:
    """Run one point twice in ``work``; its record, its peak net of ``tiny_peak`` MB.

    A files point's features are written first, outside the timed runs.
    """
    if config.get("data") == "files":
        write_features(root, work, config, shuffled=name in SHUFFLED)
    runs = [run_child(root, work, config) for _ in range(2)]
    hashes = {run["report_sha256"] for run in runs}
    if len(hashes) != 1:
        raise SystemExit(f"{name}: two runs made different reports")
    peaks = [run["peak_rss_mb"] for run in runs]
    return {
        "point": name,
        "config": config,
        "wall_s": [run["wall_s"] for run in runs],
        "peak_rss_mb": peaks,
        "peaks_agree": abs(peaks[0] - peaks[1]) <= PEAK_AGREEMENT * max(peaks),
        "tiny_peak_rss_mb": tiny_peak,
        "peak_units": (max(peaks) - tiny_peak) * 1e6 / (8 * config["M"] ** 2),
        "report_sha256": hashes.pop(),
        "env": env,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ runs")
    parser.add_argument("--out", type=Path, help="also write the records here, as a JSON list")
    parser.add_argument("--tiny", action="store_true", help="one small point, in seconds")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "stsa").is_dir():
        parser.error(f"{root} has no src/stsa")
    env = environment(root)
    records = []
    with tempfile.TemporaryDirectory(prefix="stsa-scale-") as work:
        work = Path(work)
        tiny_peak = run_child(root, work, TINY_POINTS["tiny"])["peak_rss_mb"]
        for name, config in (TINY_POINTS if args.tiny else POINTS).items():
            records.append(measure(root, work, name, config, env, tiny_peak))
            print(json.dumps(records[-1]), flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

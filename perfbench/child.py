"""One repetition of one workload, in a fresh process.

Started by run.py with ``--t0``, the parent's ``time.perf_counter()`` just
before the spawn (CLOCK_MONOTONIC, shared by all processes on Linux), so
``setup_s`` covers interpreter start, imports and config load up to the
``run_experiment`` call. That call is timed on its own, peak RSS is read
right after it, and the correctness checks run outside the timed region. The
process prints one JSON object on stdout.

With ``--spans PATH`` the stsa layers are traced; spans are kept in memory
and written to PATH only after the workload and its checks have ended.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import stsa  # noqa: E402
from stsa.data import dirichlet_partition  # noqa: E402
from stsa.metrics import comm_bytes  # noqa: E402
from stsa.prng import derive_seed  # noqa: E402
from stsa.runner import load_experiment_data, make_schedule  # noqa: E402

from spans import ENTRY_SPAN, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BREAKABLE_CHECKS,
    ORACLE_STATS_TOLERANCE,
    ORACLE_W_TOLERANCE,
    WORKLOADS,
    config_text,
)


def expected_upload_bytes(config) -> int:
    """Ledger total recomputed from comm_bytes over every stage and client.

    Efficient mode sends min(K_D, shard size) records per client, one for an
    empty shard, so the client shards are recomputed from the same seeded
    Dirichlet split the runner uses.
    """
    train, _ = load_experiment_data(config)
    schedule = make_schedule(config, train.class_count)
    total = 0
    for t, task in enumerate(schedule.tasks, start=1):
        if config.mode == "full":
            records = [1] * config.K
        else:
            task_idx = np.flatnonzero(np.isin(train.labels, task))
            parts = dirichlet_partition(
                train.labels[task_idx],
                config.K,
                config.beta,
                derive_seed(config.seed, f"partition/stage={t}"),
            )
            records = [min(config.K_D, p.size) if p.size else 1 for p in parts]
        total += sum(
            comm_bytes(config.M, len(task), r, config.mode, config.elem_bytes)
            for r in records
        )
    return total


def check_run(report, config, name: str, broken: str | None) -> list[str]:
    """The ledger and oracle checks. ``broken`` names one to corrupt: the
    ledger then expects one byte more, the oracle tolerances fall below
    zero."""
    failures = []
    expected = expected_upload_bytes(config) + (1 if broken == "ledger" else 0)
    if report.comm.total != expected:
        failures.append(f"ledger total {report.comm.total} != expected {expected}")
    w_tol, stats_tol = ORACLE_W_TOLERANCE, ORACLE_STATS_TOLERANCE
    if broken == "oracle":
        w_tol = stats_tol = -1.0
    if name == "full-oracle":
        if report.oracle is None or len(report.oracle) != config.T:
            failures.append("report lacks one oracle entry per stage")
        for entry in report.oracle or ():
            if not (
                entry.w_delta <= w_tol
                and entry.gram_delta <= stats_tol
                and entry.corr_delta <= stats_tol
            ):
                failures.append(f"oracle stage {entry.stage} out of tolerance: {entry}")
    return failures


def peak_gflops(m: int, min_seconds: float = 0.3) -> float:
    """Best dgemm rate at size m x m through numpy, in GFLOP/s."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((m, m)), rng.standard_normal((m, m))
    best, reps = float("inf"), 0
    stop = time.perf_counter() + min_seconds
    while reps < 3 or time.perf_counter() < stop:
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
        reps += 1
    return 2.0 * m**3 / best / 1e9


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "stsa": str(Path(stsa.__file__).resolve().parent),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--break-check", choices=BREAKABLE_CHECKS)
    parser.add_argument(
        "--reference",
        action="store_true",
        help="run the workload's config in exact full mode without noise",
    )
    args = parser.parse_args()

    if Path(stsa.__file__).resolve().parent != ROOT / "src" / "stsa":
        raise SystemExit(f"stsa imported from {stsa.__file__}, not from {ROOT / 'src'}")
    config = stsa.parse_config(config_text(args.workload, args.seed, args.tiny))
    if args.reference:
        config = replace(config, mode="full", noise_q=0.0, noise_s=0.0, oracle_check=False)

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()

    setup_s = time.perf_counter() - args.t0
    start = time.perf_counter()
    if tracer is None:
        report = stsa.run_experiment(config)
    else:
        with tracer.span(ENTRY_SPAN):
            report = stsa.run_experiment(config)
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "final_acc": report.a_t,
        "upload_mb": report.comm.total / 1e6,
        "report_sha256": hashlib.sha256(report.to_text().encode()).hexdigest(),
        "env": environment(),
        "failures": check_run(report, config, args.workload, args.break_check),
    }
    if tracer is not None:
        out["blas_peak_gflops"] = peak_gflops(config.M)
        Path(args.spans).write_text(json.dumps(tracer.spans))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

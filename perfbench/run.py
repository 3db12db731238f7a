"""stsa benchmark harness.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs one workload (or ``all`` of them in turn) from the root of a source
checkout, against the stsa package in ``src/``. Every repetition is one
fresh child process (child.py) that makes one ``run_experiment`` call, so
``setup_s`` and ``peak_rss_mb`` are per repetition: a closed loop with one
caller.
Repetitions run back to back for ``--seconds``, at least ``MIN_REPS``.
``run_s`` and ``setup_s`` are the lower quartiles of their repetitions, the
other end-to-end metrics medians; see ``lower_quartile`` for why.
Each repetition's outputs are checked; ``pass_rate`` is the share of
repetitions that raised nothing and failed no check. A result line is
printed even when repetitions fail; a metric with no value to report is NaN.

With ``--trace 1`` one more repetition runs with the stsa layers wrapped
(spans.py); the per-layer metrics come from its spans, and
``trace.overhead_s`` is its ``run_s`` minus the untraced ``run_s``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, with the end-to-end metrics of BENCHMARK.json
for ``--trace 0`` and its per-layer metrics for ``--trace 1``. Full records,
spans and the pinned environment go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics
from workloads import BREAKABLE_CHECKS, EFFICIENT_ACC_TOLERANCE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_REPS = 4
CHILD_TIMEOUT_S = 150
# One BLAS thread: on the shared 2-core hosts this was measured both faster
# and steadier than two.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({var: BLAS_THREADS for var in BLAS_THREAD_VARS})
    return env


def warm_bytecode() -> None:
    """Compile stsa and the benchmark's modules before any child starts.

    Every child then loads the same up-to-date bytecode, so setup_s does not
    depend on whether an earlier test or run left a cache behind.
    """
    for directory, levels in ((ROOT / "src" / "stsa", 10), (HERE, 0)):
        if not compileall.compile_dir(directory, maxlevels=levels, quiet=1):
            raise SystemExit(f"could not compile {directory}")


def run_child(flags: list[str]) -> dict:
    """One child process; its JSON result, or a failure record."""
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "child.py"), *flags, "--t0", repr(t0)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"failures": [f"timed out after {CHILD_TIMEOUT_S} s"], "wall_s": CHILD_TIMEOUT_S}
    wall_s = time.perf_counter() - t0
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"failures": [f"exit {proc.returncode}: {tail[0]}"], "wall_s": wall_s}
    result["wall_s"] = wall_s
    return result


def lower_quartile(values: list[float]) -> float:
    """The statistic reported for timings.

    Shared hosts switch between a fast and a slow state every few seconds:
    a fixed piece of work took 0.11 s or 0.15 s, in runs of several in a
    row, on either CPU, with CPU time equal to wall time. The median of a
    window reports how much of it was slow; the lower quartile tracks the
    program's own speed and was the steadiest across runs.
    """
    if len(values) < 2:
        return values[0] if values else math.nan
    return statistics.quantiles(values, n=4)[0]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        only = values[0] if values else math.nan
        return {"n": len(values), **dict.fromkeys(("min", "q1", "median", "q3", "max"), only)}
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "min": min(values), "q1": q1, "median": mid, "q3": q3,
            "max": max(values)}


def git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stsa").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def mark_failures(reps: list[dict], name: str, flags: list[str], broken: str | None) -> None:
    """Cross-repetition checks: identical reports, and the efficient-mode
    accuracy against the exact full-mode classifier on the same seed.

    ``broken`` names a check to corrupt: ``report`` expects a hash with one
    digit changed, ``acc`` a tolerance below zero, which nothing can meet.
    """
    hashes = [r["report_sha256"] for r in reps if "report_sha256" in r]
    expected = hashes[0] if hashes else None
    if expected and broken == "report":
        expected = ("1" if expected[0] == "0" else "0") + expected[1:]
    for rep in reps:
        if "report_sha256" in rep and rep["report_sha256"] != expected:
            rep["failures"].append("report differs from the first repetition's")
    if not WORKLOADS[name].get("reference"):
        return
    tolerance = -1.0 if broken == "acc" else EFFICIENT_ACC_TOLERANCE
    ref = run_child(flags + ["--reference"])
    for rep in reps:
        if "final_acc" not in rep:
            continue
        if ref["failures"]:
            rep["failures"].append(f"full-mode reference failed: {ref['failures']}")
        elif not abs(rep["final_acc"] - ref["final_acc"]) <= tolerance:
            rep["failures"].append(
                f"A_T {rep['final_acc']} is more than {tolerance} "
                f"from full mode's {ref['final_acc']}"
            )


def measure(
    name: str, seed: int, seconds: float, trace: bool, extra: list[str], broken: str | None
) -> dict:
    """All repetitions of one workload; returns the full record."""
    flags = ["--workload", name, "--seed", str(seed), *extra]
    reps: list[dict] = []
    deadline = time.perf_counter() + seconds
    longest = 0.0
    # At least MIN_REPS repetitions. Another starts only if one as long as
    # the longest so far still ends inside the measuring window.
    while len(reps) < MIN_REPS or time.perf_counter() + longest <= deadline:
        reps.append(run_child(flags))
        longest = max(longest, reps[-1]["wall_s"])
    timed = [r for r in reps if "run_s" in r]
    traced = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{name}-seed{seed}.json"
        spans_path.unlink(missing_ok=True)
        traced = run_child(flags + ["--spans", str(spans_path)])
    checked = reps + ([traced] if traced else [])
    mark_failures(checked, name, flags, broken)

    failed = sum(1 for r in checked if r["failures"])
    timings = {key: [r[key] for r in timed] for key in ("run_s", "setup_s")}
    e2e = {key: lower_quartile(values) for key, values in timings.items()}
    e2e.update(
        {key: median([r[key] for r in timed]) for key in ("peak_rss_mb", "final_acc", "upload_mb")}
    )
    e2e["pass_rate"] = (len(checked) - failed) / len(checked)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "attempted": len(checked),
        "failed": failed,
        "end_to_end": e2e,
        "timings": {key: summary(values) for key, values in timings.items()},
        "reps": reps,
        "traced": traced,
        "env": {
            **next((r["env"] for r in checked if "env" in r), {}),
            "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(),
            "cpus_allowed": sorted(os.sched_getaffinity(0)),
            "git_revision": git_revision(),
            "src_sha256": source_digest(),
        },
    }
    if traced is not None:
        layers = {}
        if "run_s" in traced and spans_path.is_file():
            spans = json.loads(spans_path.read_text())
            layers = layer_metrics(spans)
            layers["blas.peak_gflops"] = traced["blas_peak_gflops"]
            layers["trace.overhead_s"] = traced["run_s"] - e2e["run_s"]
        record["per_layer"] = layers
    return record


def result_line(record: dict, values: dict, specs: list[dict]) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            s["name"]: {"value": values.get(s["name"], math.nan), "unit": s["unit"]}
            for s in specs
        },
    }


def describe(record: dict, bench: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']}")
    print("env =", json.dumps(record["env"], sort_keys=True))
    labelled = [(f"rep {i}", rep) for i, rep in enumerate(record["reps"])]
    if record["traced"]:
        labelled.append(("traced", record["traced"]))
    for label, rep in labelled:
        if "run_s" in rep:
            print(
                f"{label}: setup_s={rep['setup_s']:.4f} run_s={rep['run_s']:.4f} "
                f"peak_rss_mb={rep['peak_rss_mb']:.1f} failures={rep['failures']}"
            )
        else:
            print(f"{label}: failures={rep['failures']}")
    for key, stats in record["timings"].items():
        print(f"{key} over repetitions:", " ".join(f"{k}={v:.4g}" for k, v in stats.items()))
    for spec in bench["end_to_end"]:
        print(f"{spec['name']} = {record['end_to_end'][spec['name']]!r} {spec['unit']}")
    for spec in bench["per_layer"] if "per_layer" in record else ():
        value = record["per_layer"].get(spec["name"], math.nan)
        print(f"{spec['name']} = {value!r} {spec['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, help="measuring window (default: BENCHMARK.json run_seconds)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test scale (M=32, T=2)")
    parser.add_argument(
        "--break-check",
        choices=BREAKABLE_CHECKS,
        help="corrupt the expected value of one check, to see that check fail",
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "stsa" / "__init__.py").is_file():
        print(f"no stsa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    extra = ["--tiny"] * args.tiny
    if args.break_check:
        extra += ["--break-check", args.break_check]
    key = "per_layer" if args.trace else "end_to_end"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    warm_bytecode()

    lines = {}
    for name in names:
        record = measure(name, args.seed, seconds, bool(args.trace), extra, args.break_check)
        OUT.mkdir(exist_ok=True)
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1)
        )
        describe(record, bench)
        lines[name] = result_line(record, record[key], bench[key])
        if len(names) > 1:
            print(f"{name}:", json.dumps(lines[name]))
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, line in lines.items()
                for metric, value in line["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

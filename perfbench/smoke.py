"""Smoke test of the benchmark harness at tiny scale (M=32, T=2).

    python3 perfbench/smoke.py

Runs every workload untraced and traced, and then once per check with
that check deliberately broken. Exits 0 when every end-to-end and per-layer
metric of BENCHMARK.json is printed by name with its unit, the unbroken
runs pass every check, and each broken check fails every repetition of the
workloads it guards and no other. Takes under a minute on two cores.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from workloads import BREAKABLE_CHECKS, WORKLOADS  # noqa: E402

# The workloads whose repetitions each broken check must fail.
GUARDED = {
    "ledger": list(WORKLOADS),
    "report": list(WORKLOADS),
    "oracle": ["full-oracle"],
    "acc": ["efficient-noisy"],
}


def harness(*flags: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--tiny",
         "--seconds", "0.1", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py {flags} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke test failed: {message}")


def check_metrics(result: dict, text: str, specs: list[dict], label: str) -> None:
    for name in WORKLOADS:
        for spec in specs:
            key = f"{name}/{spec['name']}"
            metric = result["metrics"].get(key)
            check(metric is not None, f"{label}: {key} missing")
            check(metric["unit"] == spec["unit"], f"{label}: {key} has unit {metric['unit']}")
            check(math.isfinite(metric["value"]), f"{label}: {key} is {metric['value']}")
            check(f"\n{spec['name']} = " in text, f"{label}: {spec['name']} not printed")
    check(len(result["metrics"]) == len(WORKLOADS) * len(specs), f"{label}: extra metrics")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "workload names differ")

    plain, text = harness("--trace", "0")
    check_metrics(plain, text, bench["end_to_end"], "trace 0")
    check(plain["correct"] and plain["failed"] == 0, f"unbroken run failed a check:\n{text}")
    for name in WORKLOADS:
        check(plain["metrics"][f"{name}/pass_rate"]["value"] == 1.0, f"{name} pass_rate < 1")

    traced, text = harness("--trace", "1")
    check_metrics(traced, text, bench["per_layer"], "trace 1")
    check(traced["correct"], f"traced run failed a check:\n{text}")

    check(sorted(GUARDED) == sorted(BREAKABLE_CHECKS), "a breakable check is not exercised")
    for kind, guarded in GUARDED.items():
        broken, text = harness("--trace", "0", "--break-check", kind)
        check(not broken["correct"], f"broken {kind} check still reports correct")
        for name in WORKLOADS:
            rate = broken["metrics"][f"{name}/pass_rate"]["value"]
            want = 0.0 if name in guarded else 1.0
            check(rate == want, f"{name}: broken {kind} check gave pass_rate {rate}, not {want}")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: one stsa config document each.

Each workload is a flat ``key = value`` config as ``stsa run`` reads it and
``run_experiment`` runs; the benchmark appends ``seed = <n>`` from its
``--seed`` argument. This module is pure data so that the parent harness can
read it without importing stsa.
"""

from __future__ import annotations

# Shared by all workloads. synth_noise_std = 2 keeps A_T near 0.82,
# away from the 1.0 ceiling where a loss of accuracy would not show.
_COMMON = """\
synth_classes = 100
synth_dim = 64
synth_train_per_class = 200
synth_test_per_class = 50
synth_noise_std = 2
T = 10
beta = 0.5
gamma = 1e6
"""

WORKLOADS = {
    "full-skewed-k20": {
        "config": _COMMON
        + """\
mode = full
K = 20
M = 800
""",
    },
    "efficient-noisy": {
        # Also run this config in exact full mode to compare A_T.
        "reference": True,
        "config": _COMMON
        + """\
mode = efficient
K = 5
M = 600
K_D = 10
noise_q = 0.2
noise_s = 0.05
""",
    },
    "full-oracle": {
        "config": _COMMON
        + """\
mode = full
K = 5
M = 600
K_D = 10
oracle_check = true
""",
    },
}

# Keys overridden by --tiny, the smoke-test scale (M=32, T=2).
TINY = """\
synth_classes = 10
synth_dim = 16
synth_train_per_class = 60
synth_test_per_class = 20
T = 2
M = 32
"""

# efficient-noisy's A_T must lie within this absolute distance of the A_T
# of the same config in exact full mode without noise (full-oracle's
# classifier at the same seed; the oracle check does not change it).
EFFICIENT_ACC_TOLERANCE = 0.02

# Per-stage exactness of full mode against the pooled centralized solution.
ORACLE_W_TOLERANCE = 1e-8
ORACLE_STATS_TOLERANCE = 1e-12

# Checks that --break-check can corrupt, one at a time: the ledger total,
# the byte-identical report, the oracle tolerances, and efficient-noisy's
# A_T against full mode.
BREAKABLE_CHECKS = ("ledger", "report", "oracle", "acc")


def config_text(name: str, seed: int, tiny: bool = False) -> str:
    """The workload's config document with the seed and any tiny overrides."""
    spec = WORKLOADS[name]
    pairs = _pairs(spec["config"])
    if tiny:
        pairs.update(_pairs(TINY))
    pairs["seed"] = str(seed)
    return "".join(f"{key} = {value}\n" for key, value in pairs.items())


def _pairs(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out

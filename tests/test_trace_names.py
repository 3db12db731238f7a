"""The benchmark tracer still sees every layer a run reaches.

``perfbench/spans.py`` wraps the names that ``stsa.runner``, ``stsa.client``
and ``stsa.server`` look up at call time. A call that stops going through one
of those names drops out of the traced per-layer metrics without failing an
untraced run, so this runs one tiny traced run per mode and requires each
layer the mode reaches to show up. Each run goes in a fresh interpreter, so
the wrappers never reach this test process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TINY = dict(
    synth_classes=6, synth_dim=4, synth_train_per_class=40, synth_test_per_class=20,
    T=3, K=3, beta=0.5, M=16, gamma=10.0, seed=7,
)

TRACED_RUN = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import spans
from stsa.config import ExperimentConfig
from stsa.runner import run_experiment
tracer = spans.Tracer()
tracer.install()
with tracer.span(spans.ENTRY_SPAN):
    run_experiment(ExperimentConfig(**{config!r}))
print(json.dumps(spans.layer_metrics(tracer.spans)))
"""

# Metrics that are positive once their layer is called: a call count or a
# draw count where the tracer keeps one, else the layer's self time.
EVERY_MODE = [
    "data.load_experiment_data_s",
    "data.dirichlet_partition_s",
    "core.local_statistics.calls",
    "core.apply_map_s",
    "core.ridge_solve.calls",
    "core.predict_s",
    "client.extract_payload_s",
    "client.add_noise_s",
    "server.spatial_aggregate_s",
    "server.temporal_aggregate_s",
    "server.update_classifier_s",
    "prng.standard_normal.draws",
]


@pytest.mark.parametrize(
    "extra, reached",
    [
        ({"oracle_check": True}, ["runner.centralized_oracle_s"]),
        (
            {"mode": "efficient", "K_D": 2, "noise_q": 0.2, "noise_s": 0.05},
            ["server.estimate_gram.calls"],
        ),
    ],
    ids=["full-oracle", "efficient-noisy"],
)
def test_traced_run_shows_every_layer_it_reaches(extra, reached):
    code = TRACED_RUN.format(
        src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"), config={**TINY, **extra}
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, encoding="utf-8", env=os.environ, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout)
    assert [name for name in EVERY_MODE + reached if not metrics[name] > 0] == []

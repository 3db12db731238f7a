"""What ``import stsa`` loads, what a run adds, and where the BLAS/LAPACK routines come from.

Each check runs in a fresh interpreter, since the test process has long
since imported whatever its other modules use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stsa.core

ROOT = Path(__file__).resolve().parent.parent

ROUTINES = {"lapack": ("dsfrk", "dtpttf", "dtfttr", "dpftrf", "dpftrs", "dgesv")}


def fresh_python(code: str):
    """Run ``code`` in a new interpreter that imports stsa from src/; parse its printed JSON."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_stsa_leaves_scipy_linalg_and_numpy_extras_unloaded():
    heavy = ["scipy.linalg", "numpy.f2py", "numpy.testing", "numpy.ma"]
    loaded = fresh_python(
        f"import json, sys, stsa; print(json.dumps([m for m in {heavy!r} if m in sys.modules]))"
    )
    assert loaded == []


RUN_ADDS = """
import json, sys
from stsa.config import ExperimentConfig
from stsa.runner import run_experiment
before = set(sys.modules)
run_experiment(ExperimentConfig(**{config!r}))
print(json.dumps(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize(
    "extra",
    [{"oracle_check": True}, {"mode": "efficient", "K_D": 2, "noise_q": 0.2, "noise_s": 0.05}],
    ids=["full-oracle", "efficient-noisy"],
)
def test_a_run_imports_no_module(extra):
    # An import made inside a run is start-up cost moved into the run.
    config = dict(
        synth_classes=6, synth_dim=4, synth_train_per_class=40, synth_test_per_class=20,
        T=3, K=3, beta=0.5, M=16, gamma=10.0, seed=7, **extra,
    )
    added = fresh_python(RUN_ADDS.format(config=config))
    assert added == []


SAME_ROUTINES = """
import importlib, json, sys
for name in {imports!r}:
    importlib.import_module(name)
core = sys.modules["stsa.core"]
print(json.dumps({{
    name: getattr(core, name) is getattr(sys.modules["scipy.linalg." + lib], name)
    for lib, names in {routines!r}.items()
    for name in names
}}))
"""


@pytest.mark.parametrize("scipy_linalg_first", [False, True], ids=["stsa-first", "scipy-first"])
def test_routines_are_the_objects_scipy_exports(scipy_linalg_first):
    imports = ["stsa.core", "scipy.linalg.lapack"]
    if scipy_linalg_first:
        imports.reverse()
    same = fresh_python(SAME_ROUTINES.format(imports=imports, routines=ROUTINES))
    assert same == {name: True for names in ROUTINES.values() for name in names}


def test_a_missing_compiled_module_is_an_import_error_naming_it():
    with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_wrapper") as caught:
        stsa.core._scipy_linalg_extension("_no_such_wrapper")
    assert caught.value.name == "scipy.linalg._no_such_wrapper"
    assert "scipy.linalg._no_such_wrapper" not in sys.modules


ROOT_EXPORTS = {
    "ExperimentConfig", "load_config", "parse_config",
    "run_experiment", "run_oracle", "run_estimator_study",
    "ExperimentReport", "OracleReport", "EstimatorStudy",
    "StsaError", "ConfigurationError", "DimensionError", "DomainError",
    "EstimationError", "FormatError", "NumericalError", "OutOfMemoryError", "ProtocolError",
}


def test_package_root_exports_only_the_entry_points():
    # The root holds a config, the runner entry points, their reports and
    # the errors; every other name is imported from its module.
    import stsa

    assert sorted(stsa.__all__) == sorted(ROOT_EXPORTS)
    for name in stsa.__all__:
        assert getattr(stsa, name) is not None

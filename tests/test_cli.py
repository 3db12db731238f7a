"""CLI subcommands and exit-code mapping."""

import os
import subprocess
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import stsa.runner
from stsa.cli import main
from stsa.config import ExperimentConfig, load_config, parse_config
from stsa.core import apply_map
from stsa.data import SyntheticSplit, load_features, save_features
from stsa.errors import DomainError, NumericalError

ROOT = Path(__file__).resolve().parent.parent

SMALL_CONFIG = """
synth_classes = 6
synth_dim = 4
synth_train_per_class = 40
synth_test_per_class = 20
T = 3
K = 3
M = 16
gamma = 10.0
seed = 7
"""


def write_config(tmp_path, text=SMALL_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_run_writes_report(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.txt"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("schema = stsa-report/1")
    assert "[accuracy]" in text and "[comm]" in text


@pytest.mark.parametrize("flag", [["--mode", "efficient"], ["--seed", "12"]], ids=["mode", "seed"])
def test_run_takes_no_config_overrides(tmp_path, capsys, flag):
    # The config file is a run's only input: mode and seed are config keys.
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_run_prints_to_stdout_without_out(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    assert "schema = stsa-report/1" in capsys.readouterr().out


def test_oracle_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["oracle", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("schema = stsa-oracle/1")
    assert "final average accuracy" in out


def test_oracle_command_pools_task_by_task(tmp_path, capsys, pooled_blocks):
    # Every training row is pooled exactly once, task by task in blocks of at
    # most B rows, so the whole training set is never mapped at once.
    cfg = write_config(tmp_path)
    assert main(["oracle", "--config", str(cfg)]) == 0
    config = load_config(cfg)
    train = SyntheticSplit(stsa.runner.synth_spec_from_config(config), "train")
    schedule = stsa.runner.make_schedule(config, train.class_count)
    pooled_blocks.assert_each_training_row_once(train, schedule, config.M)
    assert len(pooled_blocks) > len(schedule.tasks)
    assert capsys.readouterr().out.startswith("schema = stsa-oracle/1")


def test_estimator_study_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        SMALL_CONFIG + "study_K = 2,5\nstudy_trials = 120\n",
        name="study.cfg",
    )
    assert main(["estimator-study", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "stsa-estimator-study/1" in out
    assert "K = 2:" in out and "K = 5:" in out


def test_gen_features_takes_config_not_spec(tmp_path, capsys):
    # Every command names its config file --config; gen-features has no second name for it.
    with pytest.raises(SystemExit) as exc:
        main(["gen-features", "--spec", str(write_config(tmp_path)), "--out", "feat"])
    assert exc.value.code == 2
    assert "the following arguments are required: --config" in capsys.readouterr().err


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{run,oracle,estimator-study,gen-features}" in capsys.readouterr().out


def test_gen_features_then_run_from_files(tmp_path):
    gen_cfg = write_config(tmp_path)
    prefix = tmp_path / "bench"
    assert main(["gen-features", "--config", str(gen_cfg), "--out", str(prefix)]) == 0
    train = load_features(tmp_path / "bench.train.stsafeat")
    assert train.class_count == 6 and train.labels.size == 6 * 40

    run_cfg = write_config(
        tmp_path,
        SMALL_CONFIG
        + f"data = files\ntrain_path = {prefix}.train.stsafeat\n"
        + f"test_path = {prefix}.test.stsafeat\n",
        name="files.cfg",
    )
    out = tmp_path / "files-report.txt"
    assert main(["run", "--config", str(run_cfg), "--out", str(out)]) == 0
    assert "[metrics]" in out.read_text(encoding="utf-8")


@pytest.mark.parametrize("swap", ["both", "train_only", "test_only"])
def test_feature_file_in_the_wrong_role_exits_2(tmp_path, capsys, swap):
    # With no test samples the test file is empty, and a classifier fit on
    # it would report chance accuracy without complaint.
    gen_cfg = write_config(
        tmp_path, SMALL_CONFIG.replace("synth_test_per_class = 20", "synth_test_per_class = 0")
    )
    prefix = tmp_path / "bench"
    assert main(["gen-features", "--config", str(gen_cfg), "--out", str(prefix)]) == 0
    train_file, test_file = f"{prefix}.train.stsafeat", f"{prefix}.test.stsafeat"
    train_path, test_path = {
        "both": (test_file, train_file),
        "train_only": (test_file, test_file),
        "test_only": (train_file, train_file),
    }[swap]
    run_cfg = write_config(
        tmp_path,
        SMALL_CONFIG + f"data = files\ntrain_path = {train_path}\ntest_path = {test_path}\n",
        name="swapped.cfg",
    )
    capsys.readouterr()
    assert main(["run", "--config", str(run_cfg)]) == 2
    err = capsys.readouterr().err
    if swap == "test_only":
        assert "test_path holds a train split, not a test split" in err
    else:
        assert "train_path holds a test split, not a train split" in err


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_task_with_no_test_rows_exits_2(tmp_path, capsys, command):
    # With no test rows a task's accuracy is undefined; scoring it 0.0 would
    # report A_T = 0.0 for a run that never evaluated anything.
    text = (ROOT / "configs" / "benchmark.cfg").read_text(encoding="utf-8")
    text = text.replace("synth_test_per_class = 50", "synth_test_per_class = 0")
    cfg = write_config(tmp_path, text, name="no-test.cfg")
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: task 1 (classes [0, 1, 2, 3]) has no test rows to evaluate\n"
    )


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_test_file_of_another_width_exits_2_before_any_stage(tmp_path, capsys, command):
    # The test split is mapped only when a stage scores it, so a width
    # mismatch must be caught when the splits are loaded.
    for name, dim in (("wide", 8), ("narrow", 6)):
        sized = SMALL_CONFIG.replace("synth_dim = 4", f"synth_dim = {dim}")
        gen_cfg = write_config(tmp_path, sized)
        assert main(["gen-features", "--config", str(gen_cfg), "--out", str(tmp_path / name)]) == 0
    cfg = write_config(
        tmp_path,
        SMALL_CONFIG
        + f"data = files\ntrain_path = {tmp_path / 'wide'}.train.stsafeat\n"
        + f"test_path = {tmp_path / 'narrow'}.test.stsafeat\n",
        name="widths.cfg",
    )
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: train features have 8 columns, test features 6\n"
    )


@pytest.mark.parametrize(
    "sizes, named",
    [
        ("synth_classes = -3", "synth_classes must be >= 1, got -3"),
        ("synth_dim = -2", "synth_dim must be >= 1, got -2"),
        ("synth_classes = -3\nsynth_dim = -2", "synth_classes must be >= 1, got -3"),
    ],
    ids=["classes", "dim", "both"],
)
def test_negative_synthetic_size_exits_2(tmp_path, capsys, sizes, named):
    # The class means are drawn as synth_classes * synth_dim normals, a
    # count that is negative, or positive when both sizes are; the config
    # refuses either size, by its key, before anything is drawn.
    sized = ("synth_classes", "synth_dim")
    kept = [line for line in SMALL_CONFIG.splitlines() if not line.startswith(sized)]
    cfg = write_config(tmp_path, "\n".join(kept) + f"\n{sizes}\n", name="negative.cfg")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"configuration error: {named}\n"


@pytest.mark.parametrize("oracle_check", [True, False])
def test_first_task_with_no_training_rows_exits_0(tmp_path, capsys, oracle_check):
    # Task 1's classes keep their test rows but lose every training row. The
    # federated stage and the oracle both solve gamma I W = 0 from zero
    # statistics, so they agree exactly there.
    gen_cfg = write_config(tmp_path, SMALL_CONFIG, name="gen.cfg")
    assert main(["gen-features", "--config", str(gen_cfg), "--out", str(tmp_path / "feat")]) == 0
    train_path = tmp_path / "feat.train.stsafeat"
    train = load_features(train_path)
    features, labels = train.task(range(train.class_count))
    kept = ~np.isin(labels, [0, 1])
    save_features(train_path, features[kept], labels[kept], train.class_count, train.role)
    cfg = write_config(
        tmp_path,
        SMALL_CONFIG
        + f"data = files\ntrain_path = {train_path}\n"
        + f"test_path = {tmp_path / 'feat'}.test.stsafeat\n"
        + f"oracle_check = {str(oracle_check).lower()}\n",
        name="no-train.cfg",
    )
    capsys.readouterr()
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "\nA[3][3] = " in out
    stage_1 = "\nstage 1: w_delta = 0.0 gram_delta = 0.0 corr_delta = 0.0\n"
    assert (stage_1 in out) is oracle_check
    assert main(["oracle", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("schema = stsa-oracle/1\n")


SINGULAR_ORACLE_CONFIG = """
synth_classes = 2
synth_dim = 4
synth_train_per_class = 20
synth_test_per_class = 5
synth_noise_std = 0
seed = 2
T = 1
K = 1
gamma = 0
M = 8
"""


@pytest.mark.parametrize(
    "command, extra", [("oracle", ""), ("run", "oracle_check = true\n")], ids=["oracle", "run"]
)
def test_singular_oracle_system_exits_3(tmp_path, capsys, command, extra):
    # With no noise every training row is its class mean, and some mapped
    # column is zero in every row, where both means project negatively. That
    # column makes the pooled gram exactly singular at gamma = 0; the
    # federated solve gets past it on the jitter ladder.
    config = parse_config(SINGULAR_ORACLE_CONFIG)
    spec = stsa.runner.synth_spec_from_config(config)
    train, _ = SyntheticSplit(spec, "train").task(range(spec.class_count))
    mapped = apply_map(stsa.runner.experiment_map(config, config.synth_dim), train)
    assert (mapped == 0.0).all(axis=0).any()
    cfg = write_config(tmp_path, SINGULAR_ORACLE_CONFIG + extra, name="singular.cfg")
    assert main([command, "--config", str(cfg)]) == 3
    # A run names the stage whose oracle failed; the oracle command has no stages.
    where = "stage 1: " if command == "run" else ""
    assert capsys.readouterr().err == (
        f"numerical error: {where}the oracle's pooled system G + gamma I is singular: "
        "Singular matrix\n"
    )


def test_study_trials_is_bounded_by_the_study_alone(tmp_path, capsys):
    # Only the estimator study reads study_trials, so only it refuses too few.
    cfg = write_config(tmp_path, SMALL_CONFIG + "study_trials = 0\n", name="trials.cfg")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "report.txt")]) == 0
    assert main(["estimator-study", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: estimator study needs >= 100 trials, got 0\n"
    )


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "T = 0\n", name="bad.cfg")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "configuration error" in capsys.readouterr().err


FLOAT_KEYS = [k for k, hint in get_type_hints(ExperimentConfig).items() if hint is float]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_config_float_exits_2(tmp_path, capsys, key, value):
    # A NaN or infinite beta would make the Dirichlet sampler spin forever,
    # and NaN noise_q would silently switch noise off.
    kept = [line for line in SMALL_CONFIG.splitlines() if not line.startswith(key)]
    cfg = write_config(tmp_path, "\n".join(kept) + f"\n{key} = {value}\n", name="nf.cfg")
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"{key} must be finite, got {value}" in capsys.readouterr().err


def test_negative_synth_noise_std_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG + "synth_noise_std = -2\n", name="neg.cfg")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "synth_noise_std must be >= 0, got -2.0" in capsys.readouterr().err
    # Zero spread stays legal: every sample is its class mean.
    cfg = write_config(tmp_path, SMALL_CONFIG + "synth_noise_std = 0\n", name="zero.cfg")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "report.txt")]) == 0


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"T = 3\n\xff\n")
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert f"{cfg}: not UTF-8 text (byte 6: invalid start byte)" in err


def test_unknown_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, "whatever = 1\n", name="odd.cfg")
    assert main(["run", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "line",
    [
        "map_scale = unit",
        "stratified_dummy = false",
        "map_enabled = false",
        "synth_mean_scale = 2",
        "preset = scratch",
    ],
)
def test_removed_key_exits_2(tmp_path, capsys, line):
    # None of these keys exists: a constant scale on the map or on the class
    # means is absorbed by gamma and the noise spread, the dummy split is one
    # seeded shuffle of the shard, every run lifts through the random map, and
    # a regime is written as its keys (the defaults are the scratch regime).
    cfg = write_config(tmp_path, SMALL_CONFIG + line + "\n", name="removed.cfg")
    assert main(["run", "--config", str(cfg)]) == 2
    key = line.split(" = ")[0]
    assert f"unknown key {key!r}" in capsys.readouterr().err


def test_truncated_feature_file_exits_4(tmp_path, capsys):
    gen_cfg = write_config(tmp_path)
    prefix = tmp_path / "bench"
    assert main(["gen-features", "--config", str(gen_cfg), "--out", str(prefix)]) == 0
    train_path = tmp_path / "bench.train.stsafeat"
    train_path.write_bytes(train_path.read_bytes()[:-3])
    run_cfg = write_config(
        tmp_path,
        SMALL_CONFIG
        + f"data = files\ntrain_path = {train_path}\n"
        + f"test_path = {prefix}.test.stsafeat\n",
        name="trunc.cfg",
    )
    assert main(["run", "--config", str(run_cfg)]) == 4
    assert "format error" in capsys.readouterr().err


def test_non_finite_feature_file_exits_4(tmp_path, capsys):
    gen_cfg = write_config(tmp_path)
    prefix = tmp_path / "bench"
    assert main(["gen-features", "--config", str(gen_cfg), "--out", str(prefix)]) == 0
    train_path = tmp_path / "bench.train.stsafeat"
    train = load_features(train_path)
    features, labels = train.task(range(train.class_count))
    features[0, 0] = np.nan
    save_features(train_path, features, labels, train.class_count, train.role)
    run_cfg = write_config(
        tmp_path,
        SMALL_CONFIG
        + f"data = files\ntrain_path = {train_path}\n"
        + f"test_path = {prefix}.test.stsafeat\n",
        name="nan.cfg",
    )
    assert main(["run", "--config", str(run_cfg)]) == 4
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, called",
    [
        ("run", "load_experiment_data"),
        ("oracle", "load_experiment_data"),
        ("estimator-study", "estimate_gram"),
    ],
    ids=["run", "oracle", "estimator-study"],
)
def test_numerical_error_exits_3(tmp_path, monkeypatch, capsys, command, called):
    # Each report command reaches the exit mapping through the one shared
    # command body; the error comes from a name its runner entry point calls.
    cfg = write_config(tmp_path, SMALL_CONFIG + "study_K = 2\nstudy_trials = 100\n")

    def failing(*args, **kwargs):
        raise NumericalError("boom")

    monkeypatch.setattr(stsa.runner, called, failing)
    assert main([command, "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == "numerical error: boom\n"


def test_non_finite_upload_exits_2(tmp_path, monkeypatch, capsys):
    # The server checks each stage's summed uploads, so one client's NaN
    # gram fails the stage, not a client.
    extract = stsa.runner.extract_payload

    def poisoned(shard, *args, **kwargs):
        payload = extract(shard, *args, **kwargs)
        if (shard.task_id, shard.client_id) == (2, 1):
            payload.records[0].gram[0] = np.nan  # G[8, 8] at M = 16, the first RFP slot
        return payload

    monkeypatch.setattr(stsa.runner, "extract_payload", poisoned)
    assert main(["run", "--config", str(write_config(tmp_path))]) == 2
    assert capsys.readouterr().err == (
        "configuration error: stage 2: summed uploads have non-finite gram entries\n"
    )


def test_python_dash_m_runs_the_cli():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    config = ROOT / "configs" / "benchmark.cfg"
    done = subprocess.run(
        [sys.executable, "-m", "stsa", "oracle", "--config", str(config)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (ROOT / "tests" / "golden" / "benchmark-oracle.txt").read_bytes()


def test_estimation_shortfall_exits_2(tmp_path, capsys):
    # One client, one dummy: per-class holder count is 1 and estimation
    # is impossible, which is a configuration-class failure.
    solo = SMALL_CONFIG.replace("K = 3", "K = 1") + "mode = efficient\nK_D = 1\n"
    cfg = write_config(tmp_path, solo, name="kd.cfg")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "single record" in capsys.readouterr().err


@pytest.mark.parametrize("drained", [False, True], ids=["lazy", "drained"])
@pytest.mark.parametrize(
    "error, code, label",
    [
        (NumericalError, 3, "numerical error"),
        (DomainError, 2, "configuration error"),
        (MemoryError, 5, "out of memory"),
    ],
)
def test_client_error_is_prefixed_once(tmp_path, monkeypatch, capsys, error, code, label, drained):
    # The server consumes the uploads as clients make them, so a client
    # failure surfaces inside the server's aggregation; it must still name
    # the stage and the client once.
    extract = stsa.runner.extract_payload

    def failing(shard, *args, **kwargs):
        if (shard.task_id, shard.client_id) == (2, 1):
            raise error("boom")
        return extract(shard, *args, **kwargs)

    monkeypatch.setattr(stsa.runner, "extract_payload", failing)
    if drained:
        # A wrapper that lists every upload before aggregating, as a tracer may.
        aggregate = stsa.runner.spatial_aggregate
        monkeypatch.setattr(
            stsa.runner,
            "spatial_aggregate",
            lambda payloads, *args: aggregate(list(payloads), *args),
        )
    assert main(["run", "--config", str(write_config(tmp_path))]) == code
    assert capsys.readouterr().err == f"{label}: stage 2, client 1: boom\n"


def test_a_stage_that_cannot_take_its_task_names_the_stage(tmp_path, monkeypatch, capsys):
    # A stage takes its task inside the stage's error context, so a failure
    # there is prefixed like any other stage failure. The test split's tasks
    # are drawn only when scoring, after the last stage, which this run never
    # reaches, so only the training split's calls are counted.
    task = SyntheticSplit.task
    taken = []

    def failing(split, classes):
        if split.role == "train":
            taken.append(classes)
            if len(taken) == 2:
                raise MemoryError("boom")
        return task(split, classes)

    monkeypatch.setattr(SyntheticSplit, "task", failing)
    assert main(["run", "--config", str(write_config(tmp_path))]) == 5
    assert capsys.readouterr().err == "out of memory: stage 2: boom\n"
    assert len(taken) == 2


@pytest.mark.parametrize(
    "error, code, label",
    [(MemoryError, 5, "out of memory"), (NumericalError, 3, "numerical error")],
    ids=["memory", "numerical"],
)
def test_an_oracle_pooling_failure_names_the_task(
    tmp_path, monkeypatch, capsys, error, code, label
):
    # stsa oracle pools one task at a time; a failure while pooling names
    # the task as stsa run names its stage, and keeps its exit code, and a
    # MemoryError exits 5 as an OutOfMemoryError.
    pooled = []
    mapped_statistics = stsa.runner.mapped_statistics

    def failing(*args, **kwargs):
        pooled.append(args)
        if len(pooled) == 2:
            raise error("boom")
        return mapped_statistics(*args, **kwargs)

    monkeypatch.setattr(stsa.runner, "mapped_statistics", failing)
    assert main(["oracle", "--config", str(write_config(tmp_path))]) == code
    assert capsys.readouterr().err == f"{label}: pooling task 2: boom\n"
    assert len(pooled) == 2


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize(
    "error, code, label",
    [(MemoryError, 5, "out of memory"), (NumericalError, 3, "numerical error")],
    ids=["memory", "numerical"],
)
def test_a_scoring_failure_names_the_task(
    tmp_path, monkeypatch, capsys, command, error, code, label
):
    # Both report commands score through one function, after every stage
    # or pooling is done; a failure there names the task being scored and
    # keeps its exit code, and a MemoryError exits 5 as an OutOfMemoryError.
    task = SyntheticSplit.task
    taken = []

    def failing(split, classes):
        if split.role == "test":
            taken.append(classes)
            if len(taken) == 2:
                raise error("boom")
        return task(split, classes)

    monkeypatch.setattr(SyntheticSplit, "task", failing)
    assert main([command, "--config", str(write_config(tmp_path))]) == code
    assert capsys.readouterr().err == f"{label}: scoring task 2: boom\n"
    assert len(taken) == 2


@pytest.mark.parametrize(
    "m, where", [(200000, ""), (20000, "stage 1, client 0: ")], ids=["state", "client"]
)
def test_out_of_memory_exits_5(tmp_path, m, where):
    # The child limits its own address space to 3 GB. At M = 200000 the
    # state's RFP gram (160 GB) does not fit, before any stage; at
    # M = 20000 it does (1.6 GB, never touched), and client 0's RFP gram,
    # another 1.6 GB, does not fit beside it.
    cfg = write_config(tmp_path, SMALL_CONFIG.replace("M = 16", f"M = {m}"))
    code = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from stsa.cli import main
sys.exit(main(["run", "--config", {str(cfg)!r}]))
"""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=env,
        encoding="utf-8",
        timeout=120,
    )
    assert done.returncode == 5, done.stderr
    assert done.stderr.startswith(f"out of memory: {where}Unable to allocate ")

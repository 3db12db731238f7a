"""Command-line front end.

Subcommands: ``run`` (full experiment), ``oracle`` (pooled centralized
reference), ``estimator-study`` (gram-estimator error sweep) and
``gen-features`` (write synthetic feature files). Exit codes: 0 success,
2 configuration error, 3 numerical error, 4 format error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import load_config
from .data import save_features, generate_synthetic
from .errors import FormatError, NumericalError, StsaError
from .runner import (
    _pool_task,
    centralized_oracle,
    experiment_map,
    load_experiment_data,
    make_schedule,
    run_estimator_study,
    run_experiment,
    synth_spec_from_config,
    task_accuracy,
    task_test_rows,
)
from .server import TemporalState

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_FORMAT = 4


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.mode:
        config = replace(config, mode=args.mode)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    report = run_experiment(config)
    _emit(report.to_text(), args.out)
    return 0


def _cmd_oracle(args) -> int:
    config = load_config(args.config)
    train, test = load_experiment_data(config)
    schedule = make_schedule(config, train.class_count)
    test_rows = task_test_rows(schedule, test.labels)
    rmap = experiment_map(config, train.features.shape[1])
    pooled = TemporalState.initial(rmap.output_dim)
    for task in schedule.tasks:
        pooled = _pool_task(
            pooled, rmap, train, np.flatnonzero(np.isin(train.labels, task)), task
        )
    weights = centralized_oracle(pooled, config.gamma)
    per_task = [task_accuracy(weights, rmap, test, rows) for rows in test_rows]
    lines = ["schema = stsa-oracle/1"]
    lines += [f"task {tau} accuracy = {acc!r}" for tau, acc in enumerate(per_task, start=1)]
    lines.append(f"final average accuracy = {sum(per_task) / len(per_task)!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_estimator_study(args) -> int:
    config = load_config(args.config)
    spec = synth_spec_from_config(config)
    study = run_estimator_study(
        spec, config.study_k_values(), config.study_trials, config.seed
    )
    _emit(study.to_text(), args.out)
    return 0


def _cmd_gen_features(args) -> int:
    config = load_config(args.spec)
    train, test = generate_synthetic(synth_spec_from_config(config))
    prefix = Path(args.out)
    train_path = prefix.with_name(prefix.name + ".train.stsafeat")
    test_path = prefix.with_name(prefix.name + ".test.stsafeat")
    save_features(train, train_path)
    save_features(test, test_path)
    sys.stdout.write(f"wrote {train_path}\nwrote {test_path}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stsa",
        description="Federated class-incremental learning via statistics aggregation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment config")
    run.add_argument("--config", required=True)
    run.add_argument("--mode", choices=["full", "efficient"])
    run.add_argument("--seed", type=int)
    run.add_argument("--out")
    run.set_defaults(func=_cmd_run)

    oracle = sub.add_parser("oracle", help="pooled centralized reference solution")
    oracle.add_argument("--config", required=True)
    oracle.add_argument("--out")
    oracle.set_defaults(func=_cmd_oracle)

    study = sub.add_parser("estimator-study", help="gram-estimator error sweep over K")
    study.add_argument("--config", required=True)
    study.add_argument("--out")
    study.set_defaults(func=_cmd_estimator_study)

    gen = sub.add_parser("gen-features", help="write synthetic feature files")
    gen.add_argument("--spec", required=True)
    gen.add_argument("--out", required=True, help="output path prefix")
    gen.set_defaults(func=_cmd_gen_features)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except StsaError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

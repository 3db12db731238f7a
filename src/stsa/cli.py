"""Command-line front end.

Subcommands: ``run`` (full experiment), ``oracle`` (pooled centralized
reference), ``estimator-study`` (gram-estimator error sweep) and
``gen-features`` (write synthetic feature files). Each reads its config
file and nothing else. Exit codes: 0 success, 2 configuration error,
3 numerical error, 4 format error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config
from .data import save_features, generate_synthetic
from .errors import FormatError, NumericalError, StsaError
from .runner import run_estimator_study, run_experiment, run_oracle, synth_spec_from_config

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_FORMAT = 4


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    report = run_experiment(load_config(args.config))
    _emit(report.to_text(), args.out)
    return 0


def _cmd_oracle(args) -> int:
    report = run_oracle(load_config(args.config))
    _emit(report.to_text(), args.out)
    return 0


def _cmd_estimator_study(args) -> int:
    config = load_config(args.config)
    study = run_estimator_study(
        synth_spec_from_config(config), config.study_k_values(), config.study_trials, config.seed
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
    except (StsaError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

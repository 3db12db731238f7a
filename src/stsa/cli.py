"""Command-line front end.

Three report commands share one path: ``run`` (full experiment), ``oracle``
(pooled centralized reference) and ``estimator-study`` (gram-estimator
error sweep) each load ``--config``, call one runner entry point and write
its report. ``gen-features`` writes synthetic feature files from the same
``--config``. A config file is a command's only input. Exit codes:
0 success, 2 configuration error, 3 numerical error, 4 format error, 5 out
of memory.
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
EXIT_MEMORY = 5


def _estimator_study(config):
    return run_estimator_study(
        synth_spec_from_config(config), config.study_k_values(), config.study_trials, config.seed
    )


# Each report command: the runner entry point it calls, and its help line.
REPORT_COMMANDS = {
    "run": (run_experiment, "run one experiment config"),
    "oracle": (run_oracle, "pooled centralized reference solution"),
    "estimator-study": (_estimator_study, "gram-estimator error sweep over K"),
}


def _cmd_report(args) -> int:
    text = args.entry(load_config(args.config)).to_text()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gen_features(args) -> int:
    config = load_config(args.config)
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
    for name, (entry, help_text) in REPORT_COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", required=True)
        command.add_argument("--out")
        command.set_defaults(func=_cmd_report, entry=entry)

    gen = sub.add_parser("gen-features", help="write synthetic feature files")
    gen.add_argument("--config", required=True)
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
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_MEMORY
    except (StsaError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

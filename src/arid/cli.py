"""Command-line entry point.

Exit codes: 0 success, 2 configuration or usage problem, 3 numerical failure,
4 input/output failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import (
    AridError,
    NoConvergence,
    NonFinite,
    NotPositiveDefinite,
    ParseError,
    RaggedRows,
    SingularSystem,
)
from .experiments import KEYS, ExperimentConfig, run_experiment


_BLURBS = {
    "simulate": "generate a noisy synthetic series",
    "fit-ar": "fit a scalar autoregressive model with denoising",
    "fit-var": "fit a first-order vector autoregressive model",
    "fit-nar": "fit a signature-based nonlinear autoregressive model",
    "order-scan": "sweep window lengths and report fit quality",
    "convergence-study": "repeat fits across trials with known truth",
    "artefact-study": "inject an artefact, denoise, check forecasts",
    "predict": "one-step forecasts from a previously fitted model",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged.

    Each subcommand has ``--config`` and one flag per key of its row in
    ``KEYS``; flags leave unset keys at None, so a config file can set them.
    """
    parser = argparse.ArgumentParser(
        prog="arid",
        description="identify autoregressive dynamics from noisy time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, blurb in _BLURBS.items():
        # No abbreviations: --channel must not pass for --channels where only the latter is read.
        p = sub.add_parser(command, help=blurb, allow_abbrev=False)
        p.add_argument("--config", help="JSON file with configuration values; flags override it")
        for key, spec in KEYS[command].items():
            flag = "--" + key.replace("_", "-")
            if spec.type is not bool:
                p.add_argument(flag, dest=key, type=spec.type, help=spec.help)
            elif spec.default:
                p.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction, help=spec.help)
            else:
                p.add_argument(flag, dest=key, action="store_const", const=True, help=spec.help)
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path}: expected a JSON object")
    return data


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data = _load_config_file(args.config) if args.config else {}
    for name, value in vars(args).items():
        if name in ("command", "config") or value is None:
            continue
        data[name] = value
    return ExperimentConfig.from_mapping(args.command, data)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        report = run_experiment(cfg)
    except (ParseError, RaggedRows) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (NonFinite, SingularSystem, NotPositiveDefinite, NoConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AridError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # The report as run_experiment wrote it, not encoded a second time.
    sys.stdout.write((Path(cfg.out_dir) / "report.json").read_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
from .experiments import COMMANDS, ExperimentConfig, run_experiment


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with configuration values; flags override it")
    p.add_argument("--out-dir", dest="out_dir", help="directory for outputs and report.json")
    p.add_argument("--seed", type=int, help="base seed for all random draws")
    p.add_argument("--rho", type=float, help="measurement fidelity weight")
    p.add_argument("--lambda", dest="lam", type=float, help="ridge regularization weight")
    p.add_argument("--order", type=int, help="autoregressive window length")
    p.add_argument("--depth", type=int, help="signature truncation depth")
    p.add_argument("--iterations", type=int, help="alternation iteration cap")
    p.add_argument("--trials", type=int, help="number of independent trials")
    p.add_argument("--convergence-tol", dest="convergence_tol", type=float,
                   help="relative change that stops the alternation: of the objective, "
                        "or of the trajectory for fit-nar and artefact-study")
    p.add_argument("--anchor-all", dest="anchor_all", action="store_const", const=True,
                   help="measurement term on every sample (default for experiments)")
    p.add_argument("--no-anchor-all", dest="anchor_all", action="store_const", const=False,
                   help="literal objective: no measurement term on the first r-1 samples")


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="CSV file with one column per channel")
    p.add_argument("--has-header", dest="has_header", action="store_const", const=True,
                   help="treat the first CSV row as channel names")
    p.add_argument("--sample-rate-hz", dest="sample_rate_hz", type=float)
    p.add_argument("--channels", type=_int_list, help="1-based channel selection, e.g. 1,3")
    p.add_argument("--limit-steps", dest="limit_steps", type=int,
                   help="keep only the first so many time steps")
    p.add_argument("--first-difference", dest="first_difference", action="store_const",
                   const=True, help="difference the series before fitting")


def _add_synthetic(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-steps", dest="n_steps", type=int, help="length of each simulated series")
    p.add_argument("--transition-std", dest="transition_std", type=float)
    p.add_argument("--measurement-std", dest="measurement_std", type=float)
    p.add_argument("--theta", type=_float_list,
                   help="autoregressive coefficients for the simulator, newest lag first")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="arid",
        description="identify autoregressive dynamics from noisy time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a noisy synthetic series")
    _add_common(p)
    _add_synthetic(p)

    for name, blurb in (
        ("fit-ar", "fit a scalar autoregressive model with denoising"),
        ("fit-var", "fit a first-order vector autoregressive model"),
        ("fit-nar", "fit a signature-based nonlinear autoregressive model"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_common(p)
        _add_input(p)
        _add_synthetic(p)

    p = sub.add_parser("order-scan", help="sweep window lengths and report fit quality")
    _add_common(p)
    _add_input(p)
    _add_synthetic(p)
    p.add_argument("--orders", type=_int_list, help="window lengths to scan, e.g. 1,2,3,4,5")

    p = sub.add_parser("convergence-study", help="repeat fits across trials with known truth")
    _add_common(p)
    _add_synthetic(p)

    p = sub.add_parser("artefact-study", help="inject an artefact, denoise, check forecasts")
    _add_common(p)
    _add_input(p)
    _add_synthetic(p)
    p.add_argument("--channel", type=int, help="1-based channel receiving the artefact")
    p.add_argument("--t-start", dest="t_start", type=int, help="1-based first corrupted step")
    p.add_argument("--t-end", dest="t_end", type=int, help="1-based last corrupted step")
    p.add_argument("--artefact-std", dest="artefact_std", type=float)

    p = sub.add_parser("predict", help="one-step forecasts from a previously fitted model")
    _add_common(p)
    _add_input(p)
    p.add_argument("--report", help="report.json of the run that fitted the model")

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

"""Command line front end for the experiment scenarios.

Each subcommand maps to one scenario. Options resolve in three layers:
scenario defaults, then a YAML config file, then explicit flags. Exit
codes: 0 success, 2 configuration or usage problems, 3 mathematical or
generation failures, 4 output failures.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from .errors import (
    ConfigError,
    DomainError,
    GenerationError,
    InversionError,
    NumericalError,
    OutputError,
    StabilityError,
    UsageError,
)

__all__ = ["main", "console"]

_SUBCOMMANDS = {
    "transient": ("transient", "solve the bundled three-node system and record its trace"),
    "lambda-sweep": ("lambda_sweep", "sweep random discrete-conductance systems across eigenvalue spread"),
    "invert": ("inversion", "invert a covariance matrix column by column"),
    "scaling": ("scaling", "measure computing time across model sizes, ideal and device-quantized"),
    "sparse-suite": ("sparse_suite", "run the sparse positive-definite suite with conjugate-gradient baseline"),
    "estimate": ("estimate", "print algebraic complexity estimates without running dynamics"),
}

# flag name -> scenario parameter key it overrides
_FLAG_PARAMS = {"epsilon": "epsilon", "gbw": "gbw", "levels": "num_levels", "ratio": "ratio"}

_CONFIG_KEYS = {"scenario", "seed", "output_dir", "threads", "parameters"}


def _config_loader() -> type:
    """YAML's safe loader, also reading 1e-3 and 1.0e4 as numbers, as YAML 1.2 does.

    YAML 1.1 reads a number with an exponent as text unless it has both a
    dot and a signed exponent (1.0e-3), and a scenario's numeric parameters
    take numbers only. Built where a config file is read, so a run without
    one does not import yaml.
    """
    import yaml

    class ConfigLoader(yaml.SafeLoader):
        pass

    ConfigLoader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
        list("-+0123456789."),
    )
    return ConfigLoader


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossolve",
        description="Simulate crosspoint feedback circuits that solve linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="YAML config file")
        cmd.add_argument("--seed", type=int, help="master seed (required here or in config)")
        cmd.add_argument("--epsilon", type=float, help="convergence threshold")
        cmd.add_argument("--gbw", type=float, help="gain-bandwidth product in rad/s")
        cmd.add_argument("--levels", type=int, help="number of conductance levels")
        cmd.add_argument("--ratio", type=float, help="max/min conductance ratio")
        cmd.add_argument("--out", help="output directory (default runs/<scenario>)")
        cmd.add_argument("--threads", type=int, help="worker processes for independent systems (default 1)")
    return parser


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    import yaml

    try:
        data = yaml.load(text, Loader=_config_loader())
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a mapping, got {type(data).__name__}")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "parameters" in data and not isinstance(data["parameters"], dict):
        raise ConfigError("config key 'parameters' must be a mapping")
    return data


def _resolve_spec(args: argparse.Namespace):
    from .experiments import ExperimentSpec, scenario_defaults

    scenario = _SUBCOMMANDS[args.command][0]
    config = _load_config(args.config) if args.config else {}
    if config.get("scenario") is not None and config["scenario"] != scenario:
        raise ConfigError(
            f"config names scenario {config['scenario']!r} but the {args.command} command runs {scenario!r}"
        )
    defaults = scenario_defaults(scenario)
    parameters = dict(config.get("parameters") or {})
    for flag, key in _FLAG_PARAMS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if key not in defaults:
            raise ConfigError(f"--{flag} does not apply to the {args.command} command")
        parameters[key] = value
    seed = args.seed if args.seed is not None else config.get("seed")
    if seed is None:
        raise ConfigError("a master seed is required (--seed or config 'seed')")
    threads = args.threads if args.threads is not None else config.get("threads", 1)
    output_dir = args.out if args.out is not None else config.get("output_dir", f"runs/{scenario}")
    return ExperimentSpec(
        scenario=scenario,
        seed=seed,
        output_dir=output_dir,
        parameters=parameters,
        threads=threads,
    )


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the selected scenario, and return an exit code.

    run_experiment runs every scenario with each OpenBLAS on one thread, so
    a process that has not loaded numpy yet asks OpenBLAS for one thread
    from the start (OPENBLAS_NUM_THREADS, unless set): it then starts no
    pool of threads that the run never uses. A caller that already loaded
    numpy keeps its pools.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .experiments import run_experiment

    try:
        spec = _resolve_spec(args)
        _, summary = run_experiment(spec)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, NumericalError, StabilityError, GenerationError, InversionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OutputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(summary)
    out = Path(spec.output_dir)
    print(f"wrote {out / 'records.csv'} and {out / 'summary.txt'}")
    return 0


def console() -> None:
    """Entry point for the installed crossolve script."""
    sys.exit(main())

"""Command-line entry point.

Subcommands bind a JSON config file to the solvers, the verifier, the
simulator and the sweep harness.  Exit codes: 0 on success, 2 when a
structural verification check fails, 1 for config/budget/IO errors and for a
sweep in which no cell succeeds (its sweep.csv and manifest are still written).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .dp_complete import (
    initial_value,
    policy_to_json,
    solve_complete,
    state_space_census,
    verify_complete_conjectures,
)
from .dp_restricted import (
    NonThresholdSetError,
    backward_induction,
    extract_thresholds,
    tables_to_json,
    verify_structure,
)
from .experiments import (
    POLICY_NAMES,
    SweepSpec,
    calibrate_eta,
    check_threads,
    complete_components,
    emit_plot_data,
    manifest,
    policy_levels,
    restricted_components,
    run_sweep,
    write_json,
)
from .model import (
    ConfigError,
    ModelConfig,
    build_forwarding_region,
    build_ordered_family,
    family_to_json,
    finite_number,
)
from .simulate import check_episode_count, check_seed, monte_carlo

COMMANDS = (
    "solve-restricted", "solve-complete", "simulate", "verify", "sweep",
    "calibrate", "census",
)

# the sweep block's keys are SweepSpec's fields, less those the CLI fills from
# its flags and the config
_SWEEP_KEYS = {f.name for f in dataclasses.fields(SweepSpec)} - {"base", "seed", "threads"}


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _checked_flag(convert, check, source: str):
    """An argparse type: the text as ``convert`` reads it, which must pass
    ``check``, whose error names the ``source`` of the text."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = text  # not a number: the check says what it wants
        try:
            return check(value)
        except ConfigError as err:
            raise argparse.ArgumentTypeError(f"{err} (from {source})") from None
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="relaymdp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"relaymdp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=_checked_flag(int, check_seed, "--seed"), default=0)
        p.add_argument("--threads", type=_checked_flag(int, check_threads, "--threads"),
                       default=1, help="worker cap")
        p.add_argument(
            "--override", action="append", default=[], metavar="KEY=VALUE",
            help="config override, e.g. eta=5.0 or sweep.n_episodes=500",
        )
        if name == "simulate":
            p.add_argument("--policy", choices=POLICY_NAMES, default="rst")
            p.add_argument("--episodes",
                           type=_checked_flag(int, check_episode_count, "--episodes"),
                           default=10000)
        if name == "calibrate":
            p.add_argument("--gamma", required=True, help="effective-reward target",
                           type=_checked_flag(
                               float, lambda v: finite_number(v, "target_gamma"), "--gamma"))
        if name == "solve-complete":
            p.add_argument("--export-policy", action="store_true",
                           help="also write the (large) per-state policy")
    return parser


def _parse_override(text: str) -> tuple[list[str], object]:
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not KEY=VALUE")
    key, raw = text.split("=", 1)
    keys = key.strip().split(".")
    if len(keys) > 2:
        raise ConfigError(f"override path {key.strip()!r} reaches below a config block's keys")
    try:
        value = json.loads(raw)
    except ValueError:  # not JSON, or an integer past int's digit limit: the key's rule names it
        value = raw
    return keys, value


def _load_config_doc(path: str, overrides: list[str]) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except ValueError as err:  # JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"config file {p} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")

    for text in overrides:
        keys, value = _parse_override(text)
        target = doc
        for key in keys[:-1]:
            target.setdefault(key, {})
            target = _config_block(target, key)
        target[keys[-1]] = value

    extra = set(_config_block(doc, "sweep")) - _SWEEP_KEYS
    if extra:
        raise ConfigError(f"unknown sweep keys: {sorted(extra)}")
    return doc


def _config_block(doc: dict, name: str) -> dict:
    """A block of a config ({} when absent); ConfigError unless an object."""
    block = doc.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"config block {name!r} must be a JSON object, got {block!r}")
    return block


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except CliUsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    try:
        doc = _load_config_doc(args.config, args.override)
        # the model's keys, and any unknown one, which from_dict rejects
        config = ModelConfig.from_dict({k: v for k, v in doc.items() if k != "sweep"})
        out_dir = Path(args.out)
        return _dispatch(args, doc, config, out_dir)
    except (NonThresholdSetError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, NonThresholdSetError) else 1


def _dispatch(args, doc: dict, config: ModelConfig, out_dir: Path) -> int:
    command = args.command
    # sweep and calibrate build their own region and family; census needs none
    if command not in ("sweep", "calibrate", "census"):
        grid = build_forwarding_region(config)
        family = build_ordered_family(grid, config)

    artifacts: list[str] = []
    status, code = "ok", 0

    def write(name: str, payload: dict) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / name, payload)
        artifacts.append(name)

    if command == "solve-restricted":
        tables = backward_induction(family, config)
        thresholds = extract_thresholds(tables)
        write("tables.json", tables_to_json(tables))
        write("thresholds.json", thresholds.to_json())
        write("family.json", family_to_json(grid, family))
        summary = {
            "initial_value": initial_value(tables),
            "components": restricted_components(tables).to_json(),
        }
        write("summary.json", summary)

    elif command == "solve-complete":
        tables = solve_complete(family, config)
        summary = {
            "initial_value": initial_value(tables),
            "components": complete_components(tables).to_json(),
            "census": state_space_census(config).to_json(),
            "conjectures": verify_complete_conjectures(tables),
        }
        write("summary.json", summary)
        if args.export_policy:
            write("policy.json", policy_to_json(tables))

    elif command == "simulate":
        levels = policy_levels(args.policy, family, config)
        estimates = monte_carlo(levels, args.episodes, args.seed)
        payload = {"policy": args.policy, "eta": config.eta, "delta": config.delta}
        payload.update(estimates.to_json())
        write("estimates.json", payload)

    elif command == "verify":
        report = verify_structure(backward_induction(family, config))
        write("report.json", report.to_json())
        if report.passed:
            print("verification passed: checks (a)-(i) hold")
        else:
            status, code = "verification_failed", 2
            failed = [k for k, c in report.checks.items() if not c.passed]
            print(f"verification FAILED: {failed}", file=sys.stderr)

    elif command == "sweep":
        spec = SweepSpec(base=config, seed=args.seed, threads=args.threads,
                         **_config_block(doc, "sweep"))
        result = run_sweep(spec)
        # emit_plot_data writes the sweep's manifest (per-cell status, trend
        # observations); do not clobber it
        emit_plot_data(result, out_dir)
        failed = sum(c.status != "ok" for c in result.cells)
        if failed:
            print(f"{failed} sweep cells failed (see manifest)", file=sys.stderr)
        return 1 if failed == len(result.cells) else 0

    elif command == "calibrate":
        result = calibrate_eta(args.gamma, config.delta, config)
        write("calibration.json", result.to_json())
        print(f"eta = {result.eta:.6g} meets gamma = {result.target_gamma}")

    elif command == "census":
        write("census.json", state_space_census(config).to_json())

    write("manifest.json", manifest(config, args.seed, command=command,
                                    artifacts=sorted(artifacts), status=status))
    return code


if __name__ == "__main__":
    sys.exit(main())

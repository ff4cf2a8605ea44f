"""Command-line entry point.

Subcommands bind a JSON config file to the solvers, the verifier, the
simulator and the sweep harness.  Exit codes: 0 on success, 2 when a
structural verification check fails, 1 for config/budget/IO errors and for a
sweep in which no cell succeeds (its CSVs and manifest are still written).
"""
from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys
from pathlib import Path

from . import __version__
from .dp_complete import (
    BudgetExceededError,
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
    InfeasibleGammaError,
    SweepSpec,
    calibrate_eta,
    complete_components,
    config_hash,
    emit_plot_data,
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
)
from .simulate import monte_carlo

COMMANDS = (
    "solve-restricted", "solve-complete", "simulate", "verify", "sweep",
    "calibrate", "census",
)

# the blocks' keys are their owners' parameters, less those the CLI fills from its flags
_SWEEP_KEYS = {f.name for f in dataclasses.fields(SweepSpec)} - {"base", "seed", "threads"}
_CALIBRATE_KEYS = set(inspect.signature(calibrate_eta).parameters) - {"config"}


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _whole_number(low: int, high: float, wanted: str, source: str):
    """An argparse type: a whole number with low <= n < high, whose error
    says what is ``wanted`` and names the ``source`` of the text."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if not low <= value < high:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a whole number {wanted} (from {source})")
        return value
    return parse


# a master seed keys the counter-based streams, which take 128-bit keys
_seed = _whole_number(0, 2 ** 128, "in 0 .. 2**128 - 1", "--seed")
_thread_count = _whole_number(1, float("inf"), "of at least 1", "--threads or RELAYMDP_THREADS")


def _build_parser() -> _Parser:
    parser = _Parser(prog="relaymdp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"relaymdp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=_seed, default=0)
        # a string default goes through the type check too, when the flag is absent
        p.add_argument(
            "--threads", type=_thread_count,
            default=os.environ.get("RELAYMDP_THREADS", "1"),
            help="worker cap (env RELAYMDP_THREADS as fallback)",
        )
        p.add_argument(
            "--override", action="append", default=[], metavar="KEY=VALUE",
            help="config override, e.g. eta=5.0 or sweep.n_episodes=500",
        )
        if name == "simulate":
            p.add_argument("--policy", choices=POLICY_NAMES, default="rst")
            p.add_argument("--episodes", type=int, default=10000)
        if name == "calibrate":
            p.add_argument("--gamma", type=float, default=None,
                           help="effective-reward target (overrides config)")
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
    except json.JSONDecodeError:
        value = raw
    return keys, value


def _load_config_doc(path: str, overrides: list[str]) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as err:
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

    known_top = set(ModelConfig.field_names()) | {"sweep", "calibrate"}
    unknown = set(doc) - known_top
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for block, allowed in (("sweep", _SWEEP_KEYS), ("calibrate", _CALIBRATE_KEYS)):
        extra = set(_config_block(doc, block)) - allowed
        if extra:
            raise ConfigError(f"unknown {block} keys: {sorted(extra)}")
    return doc


def _config_block(doc: dict, name: str) -> dict:
    """A block of a config ({} when absent); ConfigError unless an object."""
    block = doc.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"config block {name!r} must be a JSON object, got {block!r}")
    return block


def _model_config(doc: dict) -> ModelConfig:
    fields = {k: v for k, v in doc.items() if k in ModelConfig.field_names()}
    return ModelConfig.from_dict(fields)


def _write_json(out_dir: Path, name: str, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    write_json(path, payload)
    return path


def _manifest(out_dir: Path, command: str, config: ModelConfig, seed: int,
              artifacts: list[str], status: str = "ok") -> None:
    _write_json(out_dir, "manifest.json", {
        "build": f"relaymdp-{__version__}",
        "command": command,
        "config": config.to_dict(),
        "config_hash": config_hash(config),
        "seed": seed,
        "artifacts": sorted(artifacts),
        "status": status,
    })


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except CliUsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    try:
        doc = _load_config_doc(args.config, args.override)
        config = _model_config(doc)
        out_dir = Path(args.out)
        return _dispatch(args, doc, config, out_dir)
    except (ConfigError, BudgetExceededError, InfeasibleGammaError, OSError, ValueError,
            NonThresholdSetError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, NonThresholdSetError) else 1


def _dispatch(args, doc: dict, config: ModelConfig, out_dir: Path) -> int:
    command = args.command
    grid_needed = command != "census"
    if grid_needed:
        grid = build_forwarding_region(config)
        family = build_ordered_family(grid, config)

    artifacts: list[str] = []

    def write(name: str, payload: dict) -> None:
        artifacts.append(_write_json(out_dir, name, payload).name)

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
        tables = backward_induction(family, config)
        thresholds = extract_thresholds(tables)
        report = verify_structure(tables, thresholds)
        write("report.json", report.to_json())
        _manifest(out_dir, command, config, args.seed, artifacts,
                  status="ok" if report.passed else "verification_failed")
        if not report.passed:
            failed = [k for k, c in report.checks.items() if not c.passed]
            print(f"verification FAILED: {failed}", file=sys.stderr)
            return 2
        print("verification passed: checks (a)-(h) hold")
        return 0

    elif command == "sweep":
        spec = SweepSpec(base=config, seed=args.seed, threads=args.threads,
                         **_config_block(doc, "sweep"))
        result = run_sweep(spec)
        for path in emit_plot_data(result, out_dir):
            artifacts.append(Path(path).name)
        failed = sum(c.status != "ok" for c in result.cells)
        if failed:
            print(f"{failed} sweep cells failed (see manifest)", file=sys.stderr)
        # emit_plot_data already wrote the authoritative manifest (config hash,
        # seeds, per-cell status, trend observations); do not clobber it
        return 1 if failed == len(result.cells) else 0

    elif command == "calibrate":
        block = {"delta": config.delta, **_config_block(doc, "calibrate")}
        if args.gamma is not None:
            block["target_gamma"] = args.gamma
        if block.get("target_gamma") is None:
            raise ConfigError("calibrate needs --gamma or a calibrate.target_gamma entry")
        result = calibrate_eta(config=config, **block)
        write("calibration.json", result.to_json())
        print(f"eta = {result.eta:.6g} meets gamma = {result.target_gamma}")

    elif command == "census":
        write("census.json", state_space_census(config).to_json())

    _manifest(out_dir, command, config, args.seed, artifacts)
    return 0


if __name__ == "__main__":
    sys.exit(main())

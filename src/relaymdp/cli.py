"""Command-line entry point.

Subcommands bind a JSON config file to the solvers, the verifier, the
simulator and the sweep harness.  Exit codes: 0 on success, 2 when a
structural verification check fails, 1 for config/budget/IO errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .dp_complete import (
    BudgetExceededError,
    policy_to_json,
    solve_complete,
    state_space_census,
    verify_complete_conjectures,
)
from .dp_complete import initial_value as complete_initial_value
from .dp_restricted import (
    NonThresholdSetError,
    backward_induction,
    extract_thresholds,
    tables_to_json,
    verify_structure,
)
from .dp_restricted import initial_value as restricted_initial_value
from .experiments import (
    POLICY_NAMES,
    InfeasibleGammaError,
    SweepSpec,
    calibrate_eta,
    complete_components,
    config_hash,
    default_eta_grid,
    emit_plot_data,
    policy_levels,
    restricted_components,
    run_sweep,
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

_SWEEP_KEYS = {"eta_values", "delta_values", "policies", "n_episodes"}
_CALIBRATE_KEYS = {"target_gamma", "delta", "eta_lo", "eta_hi", "resolution"}


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _thread_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a whole number of at least 1 (from --threads or RELAYMDP_THREADS)")
    return count


def _build_parser() -> _Parser:
    parser = _Parser(prog="relaymdp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"relaymdp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0)
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
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip().split("."), value


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
        _apply_override(doc, keys, value)

    known_top = set(ModelConfig.field_names()) | {"sweep", "calibrate"}
    unknown = set(doc) - known_top
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for block, allowed in (("sweep", _SWEEP_KEYS), ("calibrate", _CALIBRATE_KEYS)):
        extra = set(doc.get(block, {})) - allowed
        if extra:
            raise ConfigError(f"unknown {block} keys: {sorted(extra)}")
    return doc


def _apply_override(doc: dict, keys: list[str], value) -> None:
    schema = {name: None for name in ModelConfig.field_names()}
    schema["sweep"] = {k: None for k in _SWEEP_KEYS}
    schema["calibrate"] = {k: None for k in _CALIBRATE_KEYS}
    node = schema
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"override path {'.'.join(keys)} references unknown key {key!r}")
        node = node[key]
    if not isinstance(node, dict) or keys[-1] not in node:
        raise ConfigError(f"override path {'.'.join(keys)} references unknown key {keys[-1]!r}")

    target = doc
    for key in keys[:-1]:
        target = target.setdefault(key, {})
    target[keys[-1]] = value


def _model_config(doc: dict) -> ModelConfig:
    fields = {k: v for k, v in doc.items() if k in ModelConfig.field_names()}
    return ModelConfig.from_dict(fields)


def _write_json(out_dir: Path, name: str, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
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

    if command == "solve-restricted":
        tables = backward_induction(family, config)
        thresholds = extract_thresholds(tables)
        artifacts.append(_write_json(out_dir, "tables.json", tables_to_json(tables)).name)
        artifacts.append(
            _write_json(out_dir, "thresholds.json", thresholds.to_json()).name
        )
        artifacts.append(
            _write_json(out_dir, "family.json", family_to_json(grid, family)).name
        )
        summary = {
            "initial_value": restricted_initial_value(tables),
            "components": restricted_components(tables).to_json(),
        }
        artifacts.append(_write_json(out_dir, "summary.json", summary).name)

    elif command == "solve-complete":
        tables = solve_complete(family, config)
        summary = {
            "initial_value": complete_initial_value(tables),
            "components": complete_components(tables).to_json(),
            "census": state_space_census(config).to_json(),
            "conjectures": verify_complete_conjectures(tables),
        }
        artifacts.append(_write_json(out_dir, "summary.json", summary).name)
        if args.export_policy:
            artifacts.append(
                _write_json(out_dir, "policy.json", policy_to_json(tables)).name
            )

    elif command == "simulate":
        levels = policy_levels(args.policy, family, config)
        estimates = monte_carlo(levels, args.episodes, args.seed)
        payload = {"policy": args.policy, "eta": config.eta, "delta": config.delta}
        payload.update(estimates.to_json())
        artifacts.append(_write_json(out_dir, "estimates.json", payload).name)

    elif command == "verify":
        tables = backward_induction(family, config)
        thresholds = extract_thresholds(tables)
        report = verify_structure(tables, thresholds, family)
        artifacts.append(_write_json(out_dir, "report.json", report.to_json()).name)
        _manifest(out_dir, command, config, args.seed, artifacts,
                  status="ok" if report.passed else "verification_failed")
        if not report.passed:
            failed = [k for k, c in report.checks.items() if not c.passed]
            print(f"verification FAILED: {failed}", file=sys.stderr)
            return 2
        print("verification passed: checks (a)-(h) hold")
        return 0

    elif command == "sweep":
        block = doc.get("sweep", {})
        spec = SweepSpec(
            base=config,
            eta_values=tuple(block.get("eta_values", default_eta_grid())),
            delta_values=tuple(block.get("delta_values", (0.1, 0.01))),
            policies=tuple(block.get("policies", ("rst", "glb"))),
            n_episodes=block.get("n_episodes", 2000),
            seed=args.seed,
            threads=args.threads,
        )
        result = run_sweep(spec)
        for path in emit_plot_data(result, out_dir):
            artifacts.append(Path(path).name)
        bad = [c for c in result.cells if c.status != "ok"]
        if bad:
            print(f"{len(bad)} sweep cells failed (see manifest)", file=sys.stderr)
        # emit_plot_data already wrote the authoritative manifest (config hash,
        # seeds, per-cell status, trend observations); do not clobber it
        return 0

    elif command == "calibrate":
        block = doc.get("calibrate", {})
        gamma = args.gamma if args.gamma is not None else block.get("target_gamma")
        if gamma is None:
            raise ConfigError("calibrate needs --gamma or a calibrate.target_gamma entry")
        result = calibrate_eta(
            target_gamma=float(gamma),
            delta=float(block.get("delta", config.delta)),
            config=config,
            eta_lo=float(block.get("eta_lo", 0.0)),
            eta_hi=float(block.get("eta_hi", 60.0)),
            resolution=float(block.get("resolution", 1e-3)),
        )
        artifacts.append(_write_json(out_dir, "calibration.json", result.to_json()).name)
        print(f"eta = {result.eta:.6g} meets gamma = {gamma}")

    elif command == "census":
        artifacts.append(
            _write_json(out_dir, "census.json", state_space_census(config).to_json()).name
        )

    _manifest(out_dir, command, config, args.seed, artifacts)
    return 0


if __name__ == "__main__":
    sys.exit(main())

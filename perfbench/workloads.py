"""Workload inputs, CLI argument lists and per-op output checks.

Each workload is an endless sequence of rounds drawn from the benchmark seed.
A round covers every stratum of the workload's input distribution once, in a
shuffled order, so every run holds the same mix of regimes however many rounds
it completes, while the individual inputs still change with the seed.  The
program only sees the resulting CLI arguments.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (
    TABLE_KEYS,
    check_calibrate,
    check_simulate,
    check_solve_complete,
    check_solve_restricted,
    check_verify,
    load_artifact,
)

REFERENCE_BINS = 100          # reference config: 20 locations, 100 bins, 5 relays
RESTRICTED_BINS = 400         # rst-verify stresses the restricted class at 400 bins
MC_EPISODES = 10_000          # per simulate op, equal for rst, glb and first
DELTA = 0.1

@dataclass(frozen=True)
class Op:
    command: str
    eta: float
    delta: float = DELTA
    n_bins: int = REFERENCE_BINS
    policy: str | None = None
    episodes: int = 0
    mc_seed: int = 0
    gamma: float | None = None

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        args = [
            self.command, "--config", str(config_path), "--out", str(out_dir),
            "--threads", "1", "--seed", str(self.mc_seed),
            "--override", f"eta={self.eta!r}", "--override", f"delta={self.delta!r}",
            "--override", f"n_reward_bins={self.n_bins}",
        ]
        if self.command == "simulate":
            args += ["--policy", self.policy, "--episodes", str(self.episodes)]
        if self.command == "calibrate":
            args += ["--gamma", repr(self.gamma)]
        return args

    @property
    def kind(self) -> str:
        return f"simulate-{self.policy}" if self.command == "simulate" else self.command


def _strata(rng: random.Random, n: int) -> list[float]:
    """One uniform draw from each of n equal strata of [0, 1], shuffled."""
    draws = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(draws)
    return draws


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * math.exp(u * math.log(hi / lo))


def solve_complete_round(rng: random.Random) -> list[Op]:
    """One eta in [0.1, 0.85], where the optimal policy stops at stage 1, and
    one from each of 2 log-strata of [1.1, 60], where it continues.  The band
    between, about 4% of log-uniform [0.1, 60], is skipped: there the regime
    depends on delta (it flips near 0.89 for delta 0.01 and 1.06 for 0.1), and
    a run with one extra stopping op moves the median op by 10-15%."""
    stop, (u1, u2) = rng.random(), _strata(rng, 2)
    etas = [_log_uniform(stop, 0.1, 0.85), _log_uniform(u1, 1.1, 60.0),
            _log_uniform(u2, 1.1, 60.0)]
    rng.shuffle(etas)
    return [Op("solve-complete", eta=eta, delta=rng.choice((0.1, 0.01))) for eta in etas]


def simulate_round(rng: random.Random) -> list[Op]:
    ops = []
    for u in _strata(rng, 3):
        eta = _log_uniform(u, 1.5, 60.0)
        policies = ["rst", "glb", "first"]
        rng.shuffle(policies)
        ops += [
            Op("simulate", eta=eta, policy=p, episodes=MC_EPISODES,
               mc_seed=rng.randrange(2**31))
            for p in policies
        ]
    return ops


def rst_verify_round(rng: random.Random) -> list[Op]:
    ops = []
    for u in _strata(rng, 4):
        eta = _log_uniform(u, 1.5, 60.0)
        ops += [Op(c, eta=eta, n_bins=RESTRICTED_BINS) for c in ("verify", "solve-restricted")]
    ops += [
        Op("calibrate", eta=1.0, n_bins=RESTRICTED_BINS, gamma=0.15 + 0.15 * u)
        for u in _strata(rng, 4)
    ]
    rng.shuffle(ops)
    return ops


ROUNDS = {
    "solve-complete": solve_complete_round,
    "simulate-mc": simulate_round,
    "rst-verify": rst_verify_round,
}

# fixed inputs of the untimed first op of every run; reference.json holds
# their DP values
REFERENCE_OPS = {
    "solve-complete": [Op("solve-complete", eta=5.0, delta=0.1)],
    "simulate-mc": [Op("simulate", eta=5.0, policy="glb", episodes=MC_EPISODES, mc_seed=2468)],
    "rst-verify": [
        Op("verify", eta=5.0, n_bins=RESTRICTED_BINS),
        Op("solve-restricted", eta=5.0, n_bins=RESTRICTED_BINS),
        Op("calibrate", eta=1.0, n_bins=RESTRICTED_BINS, gamma=0.2),
    ],
}


def uses_complete_class(workload: str) -> bool:
    return workload in ("solve-complete", "simulate-mc")


@dataclass
class Oracle:
    """Independent library solves, made outside timing, that the checks
    compare the CLI artifacts against."""

    relaymdp: object
    base: dict
    _families: dict = field(default_factory=dict)
    _values: dict = field(default_factory=dict)

    def config(self, op: Op):
        doc = dict(self.base, eta=op.eta, delta=op.delta, n_reward_bins=op.n_bins)
        return self.relaymdp.ModelConfig.from_dict(doc)

    def family(self, config):
        if config.n_reward_bins not in self._families:
            grid = self.relaymdp.build_forwarding_region(config)
            self._families[config.n_reward_bins] = self.relaymdp.build_ordered_family(grid, config)
        return self._families[config.n_reward_bins]

    def dp_value(self, op: Op, policy: str) -> float:
        key = (policy, op.eta, op.delta, op.n_bins)
        if key not in self._values:
            r = self.relaymdp
            config = self.config(op)
            family = self.family(config)
            if policy == "rst":
                value = r.restricted_initial_value(r.backward_induction(family, config))
            elif policy == "glb":
                value = r.complete_initial_value(r.solve_complete(family, config))
            else:
                value = r.experiments.baseline_components(family, config).cost
            self._values[key] = value
        return self._values[key]

    def sentinel_counts(self, op: Op) -> dict[str, int]:
        config = self.config(op)
        tables = self.relaymdp.backward_induction(self.family(config), config)
        return {k: int((~np.isfinite(getattr(tables, k))).sum()) for k in TABLE_KEYS}


def _artifacts(out_dir: Path, *names: str) -> tuple[list, list[str]]:
    docs, problems = [], []
    for name in names:
        doc, errs = load_artifact(out_dir / name)
        docs.append(doc)
        problems += errs
    return docs, problems


def check_op(op: Op, out_dir: Path, oracle: Oracle) -> tuple[list[str], dict]:
    """Check one op's artifacts; return the problems and the values that the
    metrics and the reference comparison use."""
    (manifest,), problems = _artifacts(out_dir, "manifest.json")
    status = manifest.get("status") if isinstance(manifest, dict) else None
    if not problems and status != "ok":
        problems.append(f"manifest status {status!r}")
    info: dict = {}
    if op.command == "solve-complete":
        (summary,), errs = _artifacts(out_dir, "summary.json")
        if not errs:
            rst = oracle.dp_value(op, "rst")
            errs = check_solve_complete(summary, rst)
        if not errs:
            waiting = summary["components"].get("waiting")
            info = {"value": summary["initial_value"],
                    "continuing": isinstance(waiting, float) and waiting > 0.0}
        problems += errs
    elif op.command == "simulate":
        (est,), errs = _artifacts(out_dir, "estimates.json")
        if not errs:
            dp = oracle.dp_value(op, op.policy)
            errs = check_simulate(est, op.policy, op.episodes, dp)
        if not errs:
            info = {"value": dp, "episodes": op.episodes}
        problems += errs
    elif op.command == "verify":
        (report,), errs = _artifacts(out_dir, "report.json")
        problems += errs or check_verify(report)
    elif op.command == "solve-restricted":
        (summary, tables), errs = _artifacts(out_dir, "summary.json", "tables.json")
        if not errs:
            errs = check_solve_restricted(summary, tables, oracle.sentinel_counts(op))
        if not errs:
            info = {"value": summary["initial_value"]}
        problems += errs
    elif op.command == "calibrate":
        (cal,), errs = _artifacts(out_dir, "calibration.json")
        if not errs:
            errs = check_calibrate(cal, op.gamma)
        if not errs:
            info = {"value": cal["eta"], "evaluations": cal.get("evaluations", 0)}
        problems += errs
    if out_dir.is_dir():
        info["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    return problems, info

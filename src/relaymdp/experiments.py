"""Sweep harness: eta sweeps over both policy classes, exact component
accounting, effective-reward calibration, and plot-data emission.

Expected components (delay, reward, probe count) under a fixed solved policy
are computed by one exact forward sweep, for either class, over the same
discrete probability space used by the solvers, which keeps the acceptance
checks free of sampling noise; Monte-Carlo estimates are recorded alongside as
confirmation.
"""
from __future__ import annotations

import csv
import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from ._kernels import CONTINUE, STOP
from .dp_complete import BATCH_ELEMENTS, BudgetExceededError, CompleteTables, solve_complete
from .dp_complete import initial_value as complete_initial_value
from .dp_restricted import (
    RestrictedTables,
    backward_induction,
    level_thresholds,
    restricted_levels,
)
from .model import (
    ModelConfig,
    OrderedFamily,
    build_forwarding_region,
    build_ordered_family,
    reward_grid,
)
from .simulate import Estimates, check_episode_count, monte_carlo, probe_first_levels

POLICY_NAMES = ("rst", "glb", "first")


def policy_levels(name: str, family: OrderedFamily, config: ModelConfig) -> CompleteTables:
    """The action tables of a named policy as levels of the capacity-c
    induction: RST-OPT (capacity 1), GLB-OPT (capacity N) or the probe-first
    baseline (capacity 1)."""
    if name == "rst":
        return restricted_levels(backward_induction(family, config))
    if name == "glb":
        return solve_complete(family, config)
    if name == "first":
        return probe_first_levels(family, config)
    raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")


class InfeasibleGammaError(ValueError):
    def __init__(self, target: float, achievable: float):
        super().__init__(
            f"effective-reward target {target} exceeds the achievable supremum "
            f"{achievable} on the searched eta range"
        )
        self.target = target
        self.achievable = achievable


@dataclass(frozen=True)
class PolicyComponents:
    """Exact expectations under a fixed policy.

    ``waiting`` is E[D - U_1] (the controllable part of the delay);
    ``mean_delay`` adds back the mean first wait tau."""

    waiting: float
    mean_delay: float
    reward: float
    probes: float
    cost: float
    effective_reward: float
    probing_cost: float
    stopped_mass: float

    def to_json(self) -> dict:
        return {
            "waiting": self.waiting,
            "mean_delay": self.mean_delay,
            "mean_reward": self.reward,
            "mean_probes": self.probes,
            "cost": self.cost,
            "effective_reward": self.effective_reward,
            "probing_cost": self.probing_cost,
        }


def _components(waits: float, reward: float, probes: float, stopped: float,
                config: ModelConfig) -> PolicyComponents:
    waiting = config.tau * waits
    return PolicyComponents(
        waiting=waiting,
        mean_delay=config.tau + waiting,
        reward=reward,
        probes=probes,
        cost=waiting - config.eta * reward + config.eta * config.delta * probes,
        effective_reward=reward - config.delta * probes,
        probing_cost=config.delta * probes,
        stopped_mass=stopped,
    )


def restricted_components(tables: RestrictedTables) -> PolicyComponents:
    """Forward probability sweep under the optimal restricted policy: the
    shared sweep on its capacity-1 levels."""
    return complete_components(restricted_levels(tables))


def complete_components(tables: CompleteTables) -> PolicyComponents:
    """Forward probability sweep under a solved policy of any capacity.

    Mass moves over (stage, multiset, best reward) as the action tables say;
    a continue from the full capacity goes where the overflow rule keeps it.
    Only the masses of the current and the next stage are alive at a time.
    """
    config = tables.config
    family = tables.family
    space = tables.space
    n_bins = tables.n_bins
    none = tables.none_index
    n_loc = len(family)
    n_stages = tables.n_stages
    capacity = tables.capacity
    grid = reward_grid(n_bins)
    pmf, cdf = family.pmf_matrix, family.cdf_matrix

    def level(masses: dict, s: int) -> np.ndarray:
        if s not in masses:
            masses[s] = np.zeros((len(space.members[s]), n_bins + 1))
        return masses[s]

    current = {}
    level(current, 1)[:, none] = 1.0 / n_loc  # msets of size 1 are ordered by type

    reward = probes = waits = stopped = 0.0
    for k in range(1, n_stages + 1):
        following = {}
        for s in range(min(k, capacity), -1, -1):
            m = current.pop(s, None)
            if m is None:
                continue
            act = tables.actions[k - 1][s]
            tgt = tables.probe_targets[k - 1][s]

            stopping = m * (act == STOP)
            reward += float(stopping[:, :n_bins].sum(axis=0) @ grid)
            stopped += float(stopping.sum())
            del stopping

            if s >= 1:
                # probing t from the set of row plus[s-1][t][f] leaves row f
                out = level(current, s - 1)
                per_call = max(1, BATCH_ELEMENTS // out.size)
                for first in range(0, n_loc, per_call):
                    types = np.arange(first, min(first + per_call, n_loc))
                    src = space.plus[s - 1][first:first + per_call]
                    w = m[src] * (tgt[src] == types[:, None, None])
                    if not w.any():
                        continue
                    probes += float(w.sum())
                    # prefix[..., j]: the probing mass at the none row and below bin j
                    below = np.cumsum(w[..., :n_bins - 1], axis=-1)
                    prefix = w[..., none, None] + np.concatenate(
                        [np.zeros(w.shape[:-1] + (1,)), below], axis=-1
                    )
                    out[:, :n_bins] += (
                        w[..., :n_bins] * cdf[types, None] + pmf[types, None] * prefix
                    ).sum(axis=0)

            if k < n_stages:
                cw = m * (act == CONTINUE)
                total = float(cw.sum())
                if total > 0.0:
                    waits += total
                    cw /= n_loc
                    if s == capacity:  # one relay is dropped, as the overflow rule says
                        out = level(following, s)
                        kept = tables.overflow_keep(k + 1)
                        at = kept * np.intp(n_bins + 1) + np.arange(n_bins + 1)
                        out += np.bincount(at.ravel(), np.broadcast_to(cw, at.shape).ravel(),
                                           out.size).reshape(out.shape)
                    else:
                        out = level(following, s + 1)
                        for t in range(n_loc):
                            out[space.plus[s][t]] += cw
        current = following

    return _components(waits, reward, probes, stopped, config)


def baseline_components(family: OrderedFamily, config: ModelConfig) -> PolicyComponents:
    """Probe-first-then-stop: one probe, stop at the first wake-up."""
    mean_reward = float((family.pmf_matrix @ reward_grid(family.n_bins)).mean())
    return _components(0.0, mean_reward, 1.0, 1.0, config)


@dataclass(frozen=True)
class SweepSpec:
    base: ModelConfig
    eta_values: tuple[float, ...]
    delta_values: tuple[float, ...]
    policies: tuple[str, ...] = ("rst", "glb")
    n_episodes: int = 2000
    seed: int = 0
    threads: int = 1

    def validate(self) -> "SweepSpec":
        if not self.eta_values or not self.delta_values:
            raise ValueError("eta_values and delta_values must be non-empty")
        if any(e < 0 for e in self.eta_values) or any(d < 0 for d in self.delta_values):
            raise ValueError("eta and delta values must be nonnegative")
        unknown = set(self.policies) - set(POLICY_NAMES)
        if unknown:
            raise ValueError(f"unknown policies {sorted(unknown)}; choose from {POLICY_NAMES}")
        check_episode_count(self.n_episodes)
        return self


def default_eta_grid(n: int = 20, lo: float = 0.1, hi: float = 60.0) -> tuple[float, ...]:
    """Log-spaced multiplier grid covering both asymptotic regimes."""
    return tuple(float(x) for x in np.geomspace(lo, hi, n))


@dataclass(frozen=True)
class SweepCell:
    policy: str
    eta: float
    delta: float
    status: str                      # "ok" or an error tag
    dp_value: Optional[float] = None
    components: Optional[PolicyComponents] = None
    estimates: Optional[Estimates] = None
    thresholds: Optional[dict] = None
    message: str = ""

    def row(self) -> dict:
        return {
            "policy": self.policy,
            "eta": self.eta,
            "delta": self.delta,
            "dp_cost": self.dp_value,
            "mc_cost": self.estimates.mean_cost if self.estimates else None,
            "mc_se": self.estimates.se_cost if self.estimates else None,
            "mean_delay": self.components.mean_delay if self.components else None,
            "mean_reward": self.components.reward if self.components else None,
            "mean_probe_cost": self.components.probing_cost if self.components else None,
            "eff_reward": self.components.effective_reward if self.components else None,
        }

    @property
    def mc_z(self) -> Optional[float]:
        """(mc_cost - dp_cost) / mc_se; None without estimates or when mc_se is 0."""
        if self.estimates is None or self.estimates.se_cost == 0.0:
            return None
        return (self.estimates.mean_cost - self.dp_value) / self.estimates.se_cost


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    cells: tuple[SweepCell, ...]

    def cell(self, policy: str, eta: float, delta: float) -> SweepCell:
        for c in self.cells:
            if c.policy == policy and c.eta == eta and c.delta == delta:
                return c
        raise KeyError((policy, eta, delta))

    def series(self, policy: str, delta: float) -> list[SweepCell]:
        return [c for c in self.cells if c.policy == policy and c.delta == delta]


def _cell_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence(master, spawn_key=(index,)).generate_state(1)[0])


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Solve, evaluate exactly, and simulate every (policy, eta, delta) cell.

    Budget failures on complete-class cells are recorded per cell and the
    sweep continues.  Deterministic for a fixed spec."""
    spec.validate()
    grid = build_forwarding_region(spec.base)
    family = build_ordered_family(grid, spec.base)

    keys = [
        (policy, eta, delta)
        for policy in spec.policies
        for delta in spec.delta_values
        for eta in spec.eta_values
    ]

    def run_cell(args) -> SweepCell:
        index, (policy, eta, delta) = args
        config = spec.base.with_overrides(eta=eta, delta=delta)
        seed = _cell_seed(spec.seed, index)
        try:
            levels = policy_levels(policy, family, config)
            comps = complete_components(levels)
            dp_value = complete_initial_value(levels)
            estimates = monte_carlo(levels, spec.n_episodes, seed)
        except BudgetExceededError as err:
            return SweepCell(
                policy=policy, eta=eta, delta=delta,
                status="budget_exceeded", message=str(err),
            )
        snapshot = None
        if policy == "rst":
            thresholds = level_thresholds(levels)
            snapshot = {"x": thresholds.x.tolist(), "x_l": thresholds.x_l.tolist()}
        return SweepCell(
            policy=policy, eta=eta, delta=delta, status="ok",
            dp_value=dp_value, components=comps, estimates=estimates,
            thresholds=snapshot,
        )

    jobs = list(enumerate(keys))
    if spec.threads > 1:
        with ThreadPoolExecutor(max_workers=spec.threads) as pool:
            cells = tuple(pool.map(run_cell, jobs))
    else:
        cells = tuple(run_cell(job) for job in jobs)
    return SweepResult(spec=spec, cells=cells)


@dataclass(frozen=True)
class CalibrationResult:
    eta: float
    effective_reward: float
    mean_delay: float
    target_gamma: float
    bracket: tuple[float, float]
    evaluations: int

    def to_json(self) -> dict:
        return {
            "eta": self.eta,
            "effective_reward": self.effective_reward,
            "mean_delay": self.mean_delay,
            "target_gamma": self.target_gamma,
            "bracket": list(self.bracket),
            "evaluations": self.evaluations,
        }


def calibrate_eta(
    target_gamma: float,
    delta: float,
    config: ModelConfig,
    eta_lo: float = 0.0,
    eta_hi: float = 60.0,
    resolution: float = 1e-3,
) -> CalibrationResult:
    """Smallest multiplier (to within ``resolution``) whose optimal restricted
    policy meets the effective-reward constraint E[R] - delta E[M] >= gamma.

    Uses bisection on the exact (expectation-pass) effective reward, which is
    monotone in eta for this family.  Raises InfeasibleGammaError with the
    achievable supremum when the target is out of reach."""
    grid = build_forwarding_region(config)
    family = build_ordered_family(grid, config)
    evaluations = 0

    def eff(eta: float) -> PolicyComponents:
        nonlocal evaluations
        evaluations += 1
        tables = backward_induction(family, config.with_overrides(eta=eta, delta=delta))
        return restricted_components(tables)

    lo_comp = eff(eta_lo)
    if lo_comp.effective_reward >= target_gamma:
        return CalibrationResult(
            eta=eta_lo, effective_reward=lo_comp.effective_reward,
            mean_delay=lo_comp.mean_delay, target_gamma=target_gamma,
            bracket=(eta_lo, eta_lo), evaluations=evaluations,
        )
    hi_comp = eff(eta_hi)
    if hi_comp.effective_reward < target_gamma:
        raise InfeasibleGammaError(target_gamma, hi_comp.effective_reward)

    lo, hi = eta_lo, eta_hi
    hi_result = hi_comp
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        mid_comp = eff(mid)
        if mid_comp.effective_reward >= target_gamma:
            hi, hi_result = mid, mid_comp
        else:
            lo = mid
    return CalibrationResult(
        eta=hi, effective_reward=hi_result.effective_reward,
        mean_delay=hi_result.mean_delay, target_gamma=target_gamma,
        bracket=(lo, hi), evaluations=evaluations,
    )


_CSV_COLUMNS = (
    "policy", "eta", "delta", "dp_cost", "mc_cost", "mc_se",
    "mean_delay", "mean_reward", "mean_probe_cost", "eff_reward",
)
_FIGURE_FILES = (
    "fig_total_cost.csv", "fig_delay.csv", "fig_reward.csv", "fig_probing_cost.csv",
)


def config_hash(config: ModelConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def emit_plot_data(result: SweepResult, out_dir) -> list[Path]:
    """Write one CSV per figure analog (total cost, delay, reward, probing
    cost vs eta; one series per policy and delta) plus a manifest carrying the
    config hash, seeds and per-cell status.  Re-runs are byte-identical."""
    if not result.cells:
        raise ValueError("empty sweep result")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    rows = [c.row() for c in result.cells if c.status == "ok"]
    for name in _FIGURE_FILES:
        path = out / name
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_CSV_COLUMNS)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _fmt(row[k]) for k in _CSV_COLUMNS})
        written.append(path)

    manifest = {
        "build": f"relaymdp-{__version__}",
        "config": result.spec.base.to_dict(),
        "config_hash": config_hash(result.spec.base),
        "seed": result.spec.seed,
        "n_episodes": result.spec.n_episodes,
        "eta_values": list(result.spec.eta_values),
        "delta_values": list(result.spec.delta_values),
        "policies": list(result.spec.policies),
        "observations": _component_observations(result),
        "cells": [
            {"policy": c.policy, "eta": c.eta, "delta": c.delta,
             "status": c.status, "message": c.message, "mc_z": c.mc_z,
             "stopped_mass": c.components.stopped_mass if c.components else None}
            for c in result.cells
        ],
    }
    manifest_path = out / "manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(manifest_path)
    return written


def _component_observations(result: SweepResult) -> dict:
    """Recorded (never asserted) trends of the exact cost components along the
    eta axis, per policy/delta series; occasional dips are expected."""
    observations = {}
    for policy in result.spec.policies:
        for delta in result.spec.delta_values:
            comps = [
                c.components
                for c in result.series(policy, delta)
                if c.status == "ok" and c.components is not None
            ]
            if len(comps) < 2:
                continue

            def nondecreasing(values):
                return bool(all(b >= a - 1e-9 for a, b in zip(values, values[1:])))

            observations[f"{policy},delta={delta}"] = {
                "delay_nondecreasing_in_eta": nondecreasing([c.mean_delay for c in comps]),
                "reward_nondecreasing_in_eta": nondecreasing([c.reward for c in comps]),
                "probing_cost_nondecreasing_in_eta": nondecreasing(
                    [c.probing_cost for c in comps]
                ),
            }
    return observations


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value

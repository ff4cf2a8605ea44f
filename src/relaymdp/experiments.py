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
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from ._kernels import CONTINUE, PROBE, STOP, illegal_action, legal_actions
from .dp_complete import (BATCH_ELEMENTS, OVERFLOW_ELEMENTS, BudgetExceededError, CompleteTables,
                          initial_value, solve_complete)
from .dp_restricted import RestrictedTables, backward_induction, extract_thresholds
from .model import (
    ModelConfig,
    OrderedFamily,
    build_forwarding_region,
    build_ordered_family,
    finite_number,
    reward_grid,
)
from .simulate import Estimates, check_episode_count, check_seed, monte_carlo, probe_first_levels

POLICY_NAMES = ("rst", "glb", "first")


def policy_levels(name: str, family: OrderedFamily, config: ModelConfig) -> CompleteTables:
    """The action tables of a named policy as levels of the capacity-c
    induction: RST-OPT (capacity 1), GLB-OPT (capacity N) or the probe-first
    baseline (capacity 1)."""
    if name == "rst":
        return backward_induction(family, config)
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
    return complete_components(tables)


def complete_components(tables: CompleteTables) -> PolicyComponents:
    """Forward probability sweep under a solved policy of any capacity.

    Mass moves over (stage, multiset, best reward) as the action tables say;
    a continue from the full capacity goes where the overflow rule keeps it.
    Each level's mass has the shape of its action table, the none row as the
    last column, so a level that holds its none row alone (k unprobed relays
    at stage k, above capacity 1) holds one column: it stops nowhere, its
    probe move is pmf[t] times the probing mass of each type t, and its
    continue lands in the none column of the level it moves to.  Only the
    masses of the current and the next stage are alive at a time.

    Every entry of nonzero mass must hold an action that ``legal_actions``
    allows, which each level checks once before its mass moves: one on
    NO_ACTION, a stop with nothing probed, a probe of a type not in its set
    or a continue at the last stage raises IllegalActionError naming the
    stage, the multiset and the bin.
    """
    config = tables.config
    family = tables.family
    space = tables.space
    n_bins = tables.n_bins
    n_loc = len(family)
    n_stages = tables.n_stages
    capacity = tables.capacity
    grid = reward_grid(n_bins)
    pmf, cdf = family.pmf_matrix, family.cdf_matrix
    types = np.arange(n_loc)
    probed = np.arange(n_bins + 1) < n_bins  # a stop's column: any but the none row

    def level(masses: dict, stage: int, s: int) -> np.ndarray:
        if s not in masses:
            masses[s] = np.zeros(tables.actions[stage - 1][s].shape)
        return masses[s]

    current = {}
    level(current, 1, 1)[:, -1] = 1.0 / n_loc  # msets of size 1 are ordered by type

    reward = probes = waits = stopped = 0.0
    for k in range(1, n_stages + 1):
        following = {}
        for s in range(min(k, capacity), -1, -1):
            mass = current.pop(s, None)
            if mass is None:
                continue
            act = tables.actions[k - 1][s]
            # the whole level at once, before its mass moves: a probe needs a
            # member of the row's set of the type code - PROBE
            held = np.zeros(act.shape, dtype=bool)
            for member in (space.members[s].T + PROBE).astype(act.dtype):
                held |= member[:, None] == act
            stops = probed[-act.shape[1]:]
            legal = legal_actions(act, held, stops, k == n_stages)
            if not legal.all() and mass[~legal].any():
                row, col = np.argwhere(~legal & (mass != 0))[0]
                g = tuple(space.members[s][row].tolist())  # msets would build every set's tuple
                raise illegal_action(act[row, col], f"(stage {k}, multiset {g}, "
                                     f"best={col if stops[col] else None})")
            del held, legal  # not alive through the moves, which set the peak
            real, code = mass[:, :-1], act[:, :-1]  # the real bins, if the level holds them

            if s >= 1 and mass[:, -1].any():
                # w[t, f]: the mass at the none row probing t from the set of
                # row plus[s-1][t][f], which leaves row f; bin j gains pmf[t, j] w
                src = space.plus[s - 1]
                w = mass[:, -1][src]
                w *= act[:, -1][src] == PROBE + types[:, None]
                if w.any():
                    probes += float(w.sum())
                    level(current, k, s - 1)[:, :-1] += np.einsum("tf,tj->fj", w, pmf)

            if real.size:
                stopping = np.where(code == STOP, real, 0.0)
                reward += float(stopping.sum(axis=0) @ grid)
                stopped += float(stopping.sum())
                del stopping

                if s >= 1:
                    per_call = max(1, BATCH_ELEMENTS // (len(space.members[s - 1]) * n_bins))
                    for first in range(0, n_loc, per_call):
                        batch = types[first:first + per_call]
                        src = space.plus[s - 1][batch]
                        w = real[src]
                        w *= code[src] == PROBE + batch[:, None, None]
                        if not w.any():
                            continue
                        probes += float(w.sum())
                        # bin j gains w[j] cdf[j] plus pmf[j] times the mass below j
                        gain = w * cdf[batch, None]
                        gain[..., 1:] += pmf[batch, None, 1:] * np.cumsum(w[..., :-1], axis=-1)
                        level(current, k, s - 1)[:, :-1] += gain.sum(axis=0)

            if k < n_stages:
                cw = np.where(act == CONTINUE, mass, 0.0)
                if cw.any():
                    # the none row, then the real bins as one contiguous
                    # array, which fixes the order of the float sums
                    waits += float(cw[:, -1].sum())
                    waits += float(np.ascontiguousarray(cw[:, :-1]).sum())
                    # from the first column that continues: those before it
                    # would scatter zeros (all real bins of (1, 1) at c = 1)
                    cw = cw[:, np.argmax(cw.any(axis=0)):]
                    cw /= n_loc
                    if s == capacity:
                        # to the set the overflow rule keeps
                        _add_moved(level(following, k + 1, s),
                                   tables.kept[k][..., -cw.shape[1]:], cw)
                    else:
                        # to the set with the newcomer: plus[s][t] is injective
                        # in the row, so one += per type, in type order, adds
                        # the sums np.add.at would, in the same order
                        grown = level(following, k + 1, s + 1)[:, -cw.shape[1]:]
                        for rows in space.plus[s]:
                            grown[rows] += cw
        current = following

    return _components(waits, reward, probes, stopped, config)


def _add_moved(out: np.ndarray, rows: np.ndarray, mass: np.ndarray) -> None:
    """out[rows[t, g, j], o + j] += mass[g, j] for every newcomer type t, row
    g and column j, ``rows`` broadcasting along the columns; the offset o
    makes the columns of ``mass`` the last ones of ``out``, so a none column
    alone lands in the none column.  The overflow rule's rows are not
    injective per type (every row that drops its member lands on the
    newcomer's row), so np.add.at adds them, in the order of one pass over
    (t, g, j), a batch of types of at most OVERFLOW_ELEMENTS entries at a
    time."""
    width = out.shape[1]
    flat, cols = out.reshape(-1), np.arange(width - mass.shape[1], width)
    step = max(1, OVERFLOW_ELEMENTS // mass.size)
    for first in range(0, len(rows), step):
        index = rows[first:first + step] * np.intp(width) + cols
        # values of the index's own shape: numpy 2.4's np.add.at adds wrong
        # sums, or crashes, when the values broadcast against the indices
        np.add.at(flat, index.ravel(), np.broadcast_to(mass, index.shape).ravel())


def baseline_components(family: OrderedFamily, config: ModelConfig) -> PolicyComponents:
    """Probe-first-then-stop: one probe, stop at the first wake-up."""
    mean_reward = float((family.pmf_matrix @ reward_grid(family.n_bins)).mean())
    return _components(0.0, mean_reward, 1.0, 1.0, config)


def default_eta_grid(n: int = 20, lo: float = 0.1, hi: float = 60.0) -> tuple[float, ...]:
    """Log-spaced multiplier grid covering both asymptotic regimes."""
    return tuple(float(x) for x in np.geomspace(lo, hi, n))


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: every policy at every (eta, delta) of the grids.  Its fields
    other than ``base``, ``seed`` and ``threads`` are the config file's
    ``sweep`` block, with these defaults."""

    base: ModelConfig
    eta_values: Sequence[float] = default_eta_grid()
    delta_values: Sequence[float] = (0.1, 0.01)
    policies: Sequence[str] = ("rst", "glb")
    n_episodes: int = 2000
    seed: int = 0
    threads: int = 1

    def validate(self) -> "SweepSpec":
        for key in ("eta_values", "delta_values", "policies"):
            values = getattr(self, key)
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"sweep.{key} must be a non-empty list, got {values!r}")
        for key in ("eta_values", "delta_values"):
            for value in getattr(self, key):
                if finite_number(value, f"sweep.{key}") < 0.0:
                    raise ValueError(
                        f"sweep.{key} must hold nonnegative numbers, got {value!r}")
        unknown = set(map(str, self.policies)) - set(POLICY_NAMES)
        if unknown:
            raise ValueError(f"unknown policies {sorted(unknown)}; choose from {POLICY_NAMES}")
        check_episode_count(self.n_episodes)
        check_seed(self.seed)
        return self


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
            dp_value = initial_value(levels)
            estimates = monte_carlo(levels, spec.n_episodes, seed)
        except BudgetExceededError as err:
            return SweepCell(
                policy=policy, eta=eta, delta=delta,
                status="budget_exceeded", message=str(err),
            )
        snapshot = None
        if policy == "rst":
            thresholds = extract_thresholds(levels)
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
    nondecreasing in eta for every family: it is a supergradient of the
    concave Lagrangian dual min over policies of E[W] - eta E[R_eff] (Beutler
    & Ross, J. Math. Anal. Appl. 112, 1985).  The bisection also stops when
    the bracket holds no float between its ends.  Raises ValueError, naming
    the argument, for a number that is not finite or is a bool, a bracket
    outside 0 <= eta_lo < eta_hi or a resolution that is not positive, and
    InfeasibleGammaError with the achievable supremum when the target is out
    of reach."""
    target_gamma, delta, eta_lo, eta_hi, resolution = (
        finite_number(value, f"calibrate {name}") for name, value in (
            ("target_gamma", target_gamma), ("delta", delta), ("eta_lo", eta_lo),
            ("eta_hi", eta_hi), ("resolution", resolution)))
    if not 0.0 <= eta_lo < eta_hi:
        raise ValueError(f"calibrate needs 0 <= eta_lo < eta_hi, got eta_lo={eta_lo!r}, "
                         f"eta_hi={eta_hi!r}")
    if not resolution > 0.0:
        raise ValueError(f"calibrate resolution must be positive, got {resolution!r}")
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
        if not lo < mid < hi:  # lo and hi are adjacent floats
            break
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


_FLOAT_ROW = frozenset({float, type(None)})
_NUMBER_ROW = frozenset({int, float, bool, type(None)})


def write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` as exactly the bytes of ``json.dump(payload,
    fh, indent=2, sort_keys=True)`` and a newline, streamed in chunks.

    An indent keeps json on its pure-Python encoder, which formats every
    float on its own.  Here a list of floats (and None) formats each
    distinct nonzero finite value once per file, and any other list of
    numbers, bools and None is one call to the C encoder, re-indented; the
    rest goes through ``json.dumps`` with the same arguments."""
    with open(path, "w") as fh:
        # None is no float's key, so it can wait in the cache as null
        fh.writelines(_json_chunks(payload, "\n", {None: "null"}))
        fh.write("\n")


def _json_chunks(value, pad: str, floats: dict):
    """The JSON text of ``value`` in chunks, where ``pad`` (a newline and the
    indent of the value's level) starts every line after its first, and
    ``floats`` holds the text of each nonzero finite float met so far."""
    inner = pad + "  "
    if type(value) is dict and value and all(type(key) is str for key in value):
        opener = "{"
        for key in sorted(value):
            yield f"{opener}{inner}{json.dumps(key)}: "
            yield from _json_chunks(value[key], inner, floats)
            opener = ","
        yield pad + "}"
    elif type(value) is list and value:
        kinds = set(map(type, value))
        if kinds <= _FLOAT_ROW:
            yield f"[{inner}{(',' + inner).join(_float_texts(value, floats))}{pad}]"
        elif kinds <= _NUMBER_ROW:
            # no text of a number, bool or null holds ", "
            yield f"[{inner}{json.dumps(value)[1:-1].replace(', ', ',' + inner)}{pad}]"
        else:
            opener = "["
            for item in value:
                yield opener + inner
                yield from _json_chunks(item, inner, floats)
                opener = ","
            yield pad + "]"
    else:
        # a scalar, an empty container, a tuple or a dict with other keys; no
        # newline of JSON text lies inside a string, which escapes it
        yield json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)


def _float_texts(row: list, floats: dict) -> list[str]:
    """The JSON texts of a list of floats and None, each distinct nonzero
    finite value formatted once into ``floats``.  Zeros (0.0 and -0.0 are one
    key), NaN and the infinities are formatted each time."""
    texts = list(map(floats.get, row))
    if None in texts:
        for i, text in enumerate(texts):
            if text is None:
                x = row[i]
                if x and math.isfinite(x):
                    texts[i] = floats[x] = float.__repr__(x)
                else:
                    texts[i] = json.dumps(x)
    return texts


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
    write_json(manifest_path, manifest)
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

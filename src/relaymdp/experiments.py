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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from ._kernels import (CONTINUE, PROBE, STOP, STRUCTURE_TOL, illegal_action, legal_actions,
                       row_batches)
from .dp_complete import (BATCH_ELEMENTS, OVERFLOW_ELEMENTS, CompleteTables,
                          NonFiniteValueError, _ranked_members, initial_value, solve_complete)
from .dp_restricted import RestrictedTables, backward_induction, extract_thresholds
from .model import (
    BudgetExceededError,
    ConfigError,
    ModelConfig,
    OrderedFamily,
    build_forwarding_region,
    build_ordered_family,
    finite_number,
    reward_grid,
    whole_number,
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
    cost, effective_reward = config.lagrangian(waiting, reward, probes)
    return PolicyComponents(
        waiting=waiting,
        mean_delay=config.tau + waiting,
        reward=reward,
        probes=probes,
        cost=cost,
        effective_reward=effective_reward,
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

    A move gathers what moves.  A probe, one move for every level of one or
    more relays (``_move_probes``), gathers per batch of types only the
    smaller rows that one of the batch's (type, smaller row) pairs moves
    probing mass into, the none row first and then the bins up to the last
    that holds probing mass, and moves them as one running sum.  A continue
    to the set with the newcomer moves only the rows and the span of columns
    that continue (``_move_continues``).

    Each level is read once, in row batches of at most BATCH_ELEMENTS
    entries, so that beside the two stages' masses the sweep holds one
    batch.  One comparison of the codes with each ranked member slot tells
    both whether a probe's type is held and whether the row probes that
    member with nonzero mass, the pairs that the probe move reaches.  Every
    entry of nonzero mass must hold an action that ``legal_actions`` allows,
    which each batch checks before its mass moves, and each level before its
    probes move: one on NO_ACTION, a stop with nothing probed, a probe of a
    type not in its set or a continue at the last stage raises
    IllegalActionError naming the stage, the multiset and the bin of the
    level's first such entry.
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
    rank = tuple(family.rank)
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
            stops = probed[-act.shape[1]:]
            # the empty set has no slot
            types, rests = _ranked_members(space, s, rank) if s else (space.members[0],) * 2
            hits = np.zeros(types.shape, dtype=bool)
            probing = np.zeros(act.shape[1], dtype=bool)
            # in row batches: every row's legality and probes before any
            # probe moves, then its stops and its continue
            for rows in row_batches(len(act), act.shape[1], BATCH_ELEMENTS):
                a, m = act[rows], mass[rows]
                moving, eq = m != 0, np.empty(a.shape, dtype=bool)
                # a probe needs a member of the row's set of the type code - PROBE
                held = np.zeros(a.shape, dtype=bool)
                for p, slot in enumerate((types[rows].T + PROBE).astype(act.dtype)):
                    held |= np.equal(slot[:, None], a, out=eq)
                    np.logical_and(eq, moving, out=eq).any(axis=1, out=hits[rows, p])
                illegal = moving & ~legal_actions(a, held, stops, k == n_stages)
                if illegal.any():
                    row, col = np.argwhere(illegal)[0]
                    row += rows.start
                    g = tuple(space.members[s][row].tolist())  # msets would build every set's tuple
                    raise illegal_action(act[row, col], f"(stage {k}, multiset {g}, "
                                         f"best={col if stops[col] else None})")
                probing |= np.logical_and(held, moving, out=held).any(axis=0)
                # none alive through the probe move, which sets the peak
                del moving, eq, held, illegal
                # the real bins, if the level holds them
                stopping = np.where(a[:, :-1] == STOP, m[:, :-1], 0.0)
                reward += float(stopping.sum(axis=0) @ grid[:stopping.shape[1]])
                stopped += float(stopping.sum())
                del stopping
                if k < n_stages:
                    waits += _move_continues(np.where(a == CONTINUE, m, 0.0), tables, k, s,
                                             rows, partial(level, following, k + 1))

            if s >= 1:
                # hits[g, p] leaves row rests[g, p] of the smaller level; a row
                # may probe several members, and equal members give one pair
                reached = np.zeros(space.plus[s - 1].shape, dtype=bool)
                reached[types[hits], rests[hits]] = True
                del hits
                probes += _move_probes(mass, act, reached,
                                       int(np.flatnonzero(probing[:-1]).max(initial=-1)) + 1,
                                       space.plus[s - 1], pmf, cdf,
                                       partial(level, current, k, s - 1))
        current = following

    return _components(waits, reward, probes, stopped, config)


def _move_probes(mass: np.ndarray, act: np.ndarray, reached: np.ndarray, width: int,
                 smaller: np.ndarray, pmf: np.ndarray, cdf: np.ndarray, out) -> float:
    """Move the probing mass of a size-s level, from its mass and codes, into
    the smaller level ``out()`` and return the mass moved; its temporaries
    end with the call.  A probe of type t from the set of row smaller[t][f]
    leaves row f of the smaller level.  ``reached`` and ``width`` come from
    the level's one pass: reached[t, f], of smaller's shape, is whether a
    row probes its member of type t with nonzero mass, which leaves row f,
    and no real bin from ``width`` on holds probing mass (0 where only the
    none row probes).  Per batch of types it gathers only the rows f that a
    pair of the batch reaches, the none row first and then the bins below
    ``width``: as max{none, R} = R, the none row is a bin below every bin.
    A batch of every smaller row over the level's columns, and a chunk's w,
    gain and tail, each fit within BATCH_ELEMENTS entries."""
    n_types, n_bins = pmf.shape
    probes = 0.0
    for batch in row_batches(n_types, smaller.shape[1] * mass.shape[1], BATCH_ELEMENTS):
        rows = np.flatnonzero(reached[batch].any(axis=0))
        codes = (PROBE + np.arange(n_types)[batch]).astype(act.dtype)[:, None, None]
        for chunk in row_batches(len(rows), n_bins + len(codes) * (width + 1), BATCH_ELEMENTS):
            chunk = rows[chunk]
            src = smaller[batch, chunk]
            w, code = (np.concatenate((a[src, -1:], a[src, :width]), axis=-1)
                       for a in (mass, act))
            w *= code == codes
            if not w.any():
                continue
            probes += float(w.sum())
            # bin j gains w[j] cdf[j] plus pmf[j] times the mass below j,
            # which past the last bin that probes is all of it
            below = np.cumsum(w, axis=-1)
            gain = w[..., 1:] * cdf[batch, None, :width]
            gain += pmf[batch, None, :width] * below[..., :-1]
            level = out()
            level[chunk, :width] += gain.sum(axis=0)
            level[chunk, width:-1] += below[..., -1].T @ pmf[batch, width:]
    return probes


def _move_continues(cw: np.ndarray, tables: CompleteTables, k: int, s: int, rows: slice,
                    out) -> float:
    """Move ``cw``, the continuing mass of the rows ``rows`` of the size-s
    level at stage k, into stage k + 1, whose level of size s' is
    ``out(s')``, and return the mass moved."""
    if not cw.any():
        return 0.0
    moved = float(cw.sum())
    if s == tables.capacity:
        # to the set the overflow rule keeps, the entries that continue
        # alone: the rest would add +0.0 to sums of masses, never -0.0
        g, j = np.nonzero(cw)
        _add_moved(out(s), tables.kept[k], g + rows.start, j - cw.shape[1],
                   cw[g, j] / len(tables.family))
    else:
        # to the set with the newcomer, from the rows and the span of
        # columns that continue, into the same columns of the next level,
        # which holds the none row alone exactly when this one does:
        # plus[s][t] is injective in the row, so one += per type, in type
        # order, adds the sums np.add.at would, in the same order
        on = np.flatnonzero(cw.any(axis=0))
        cols = slice(on[0], on[-1] + 1)
        cw, targets = cw[:, cols], tables.space.plus[s][:, rows]
        if len(cw) > 1:  # the empty set's one row moves as it is
            going = np.flatnonzero(cw.any(axis=1))
            cw, targets = cw[going], targets[:, going]
        cw /= len(tables.family)
        grown = out(s + 1)[:, cols]
        for dest in targets:
            grown[dest] += cw
    return moved


def _add_moved(out: np.ndarray, kept: np.ndarray, g: np.ndarray, j: np.ndarray,
               mass: np.ndarray) -> None:
    """out[kept[t, g[i], j[i]], j[i]] += mass[i] for every newcomer type t
    and entry i, the columns j counted from the last (negative), so that the
    none column lands in the none column whatever columns ``kept`` holds.
    The overflow rule's rows are not injective per type (every row that
    drops its member lands on the newcomer's row), so np.add.at adds them,
    in the order of one pass over (t, i), a batch of types of at most
    OVERFLOW_ELEMENTS entries at a time; each batch takes its kept rows from
    the flattened (row, column) plane of its types."""
    width, plane = out.shape[1], kept.reshape(len(kept), -1)
    flat, at, cols = out.reshape(-1), g * kept.shape[2] + (kept.shape[2] + j), width + j
    for batch in row_batches(len(kept), len(mass), OVERFLOW_ELEMENTS):
        index = np.take(plane[batch], at, axis=1) * np.intp(width) + cols
        # values of the index's own shape: numpy 2.4's np.add.at adds wrong
        # sums, or crashes, when the values broadcast against the indices
        np.add.at(flat, index.ravel(), np.broadcast_to(mass, index.shape).ravel())


def baseline_components(family: OrderedFamily, config: ModelConfig) -> PolicyComponents:
    """Probe-first-then-stop: one probe, stop at the first wake-up."""
    mean_reward = float((family.pmf_matrix @ reward_grid(family.n_bins)).mean())
    return _components(0.0, mean_reward, 1.0, 1.0, config)


# The multipliers calibration searches, [0, ETA_MAX], to within RESOLUTION,
# and the top of the default sweep grid.
ETA_MAX = 60.0
RESOLUTION = 1e-3


def default_eta_grid() -> tuple[float, ...]:
    """20 log-spaced multipliers from 0.1 to ETA_MAX, covering both asymptotic regimes."""
    return tuple(float(x) for x in np.geomspace(0.1, ETA_MAX, 20))


def check_threads(threads) -> int:
    """A sweep's worker cap as an int of at least 1; otherwise ConfigError."""
    return whole_number(threads, "threads", 1)


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
        for key in ("eta_values", "delta_values", "policies"):
            values = getattr(self, key)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:  # each copy would run as a cell of its own, with its own seed
                raise ConfigError(f"sweep.{key} holds {repeated[0]!r} more than once")
        check_episode_count(self.n_episodes)
        check_seed(self.seed)
        check_threads(self.threads)
        return self


@dataclass(frozen=True)
class SweepCell:
    policy: str
    eta: float
    delta: float
    status: str                      # "ok", "budget_exceeded" or "non_finite"
    dp_value: Optional[float] = None
    components: Optional[PolicyComponents] = None
    estimates: Optional[Estimates] = None
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
        cells = [c for c in self.cells if c.policy == policy and c.delta == delta]
        return sorted(cells, key=lambda c: c.eta)  # a curve over eta, whatever the grid order


def _cell_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence(master, spawn_key=(index,)).generate_state(1)[0])


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Solve, evaluate exactly, and simulate every (policy, eta, delta) cell.

    A cell over the state budget, or whose solved values overflow float
    arithmetic, is recorded with its status; any other error in a cell ends
    the sweep, and no cell starts after it.  Deterministic for a fixed spec."""
    spec.validate()
    grid = build_forwarding_region(spec.base)
    family = build_ordered_family(grid, spec.base)

    keys = [
        (policy, eta, delta)
        for policy in spec.policies
        for delta in spec.delta_values
        for eta in spec.eta_values
    ]

    raised = threading.Event()  # map submits every cell: those begun after a raise skip

    def run_cell(args) -> Optional[SweepCell]:
        if raised.is_set():
            return None
        index, (policy, eta, delta) = args
        config = spec.base.with_overrides(eta=eta, delta=delta)
        seed = _cell_seed(spec.seed, index)
        try:
            levels = policy_levels(policy, family, config)
            comps = complete_components(levels)
            dp_value = initial_value(levels)
            estimates = monte_carlo(levels, spec.n_episodes, seed)
            if policy == "rst":
                extract_thresholds(levels)  # NonThresholdSetError at a set that is not an up-set
        except (BudgetExceededError, NonFiniteValueError) as err:
            status = "budget_exceeded" if isinstance(err, BudgetExceededError) else "non_finite"
            return SweepCell(policy=policy, eta=eta, delta=delta, status=status, message=str(err))
        except BaseException:
            raised.set()
            raise
        return SweepCell(policy=policy, eta=eta, delta=delta, status="ok",
                         dp_value=dp_value, components=comps, estimates=estimates)

    with ThreadPoolExecutor(max_workers=spec.threads) as pool:
        cells = tuple(pool.map(run_cell, enumerate(keys)))
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
        return asdict(self)


def calibrate_eta(target_gamma: float, delta: float, config: ModelConfig) -> CalibrationResult:
    """Smallest multiplier in [0, ETA_MAX], to within RESOLUTION, whose optimal
    restricted policy meets the effective-reward constraint E[R] - delta E[M]
    >= gamma.

    Uses bisection on the exact (expectation-pass) effective reward, which is
    nondecreasing in eta for every family: it is a supergradient of the
    concave Lagrangian dual min over policies of E[W] - eta E[R_eff] (Beutler
    & Ross, J. Math. Anal. Appl. 112, 1985).  Raises ValueError, naming the
    argument, for a number that is not finite or is a bool, and
    InfeasibleGammaError with the achievable supremum when the target is out
    of reach."""
    target_gamma, delta = (
        finite_number(value, f"calibrate {name}")
        for name, value in (("target_gamma", target_gamma), ("delta", delta)))
    grid = build_forwarding_region(config)
    family = build_ordered_family(grid, config)
    evaluations = 0

    def eff(eta: float) -> PolicyComponents:
        nonlocal evaluations
        evaluations += 1
        tables = backward_induction(family, config.with_overrides(eta=eta, delta=delta))
        return restricted_components(tables)

    # hi_result: the components at hi, the least multiplier known to meet gamma
    lo, hi, hi_result = 0.0, 0.0, eff(0.0)
    if hi_result.effective_reward < target_gamma:
        hi, hi_result = ETA_MAX, eff(ETA_MAX)
        if hi_result.effective_reward < target_gamma:
            raise InfeasibleGammaError(target_gamma, hi_result.effective_reward)
        while hi - lo > RESOLUTION:
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


def config_hash(config: ModelConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def manifest(config: ModelConfig, seed: int, **fields) -> dict:
    """A manifest: the provenance of every artifact (the build, the config,
    its hash and the seed), then ``fields``."""
    return {"build": f"relaymdp-{__version__}", "config": config.to_dict(),
            "config_hash": config_hash(config), "seed": seed, **fields}


_NUMBER_ROW = frozenset({int, float, bool, type(None)})
# the texts of array floats that repr does not give: +inf, the tables'
# sentinel, is null; -0.0 is 0.0's key and gets its sign back afterwards
_ARRAY_FLOATS = {math.inf: "null", -math.inf: "-Infinity", 0.0: "0.0"}
# elements of an array formatted at a time: a block's text stays under
# glibc's 128 KiB mmap threshold, which freeing a larger block would raise,
# leaving later allocations below it to fragment the heap
ARRAY_BLOCK = 1 << 11


def write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` as exactly the bytes of ``json.dump(payload,
    fh, indent=2, sort_keys=True)`` and a newline, where each numpy array of
    bools, ints or floats is first turned into ``tolist()`` with a float
    array's +inf entries as None (so written null); an array of any other
    dtype raises ``TypeError``.  Streamed in chunks.

    An indent keeps json on its pure-Python encoder, which formats every
    float on its own.  Here an array formats each distinct value once per
    block and each distinct nonzero finite float once per file, and a list of
    numbers, bools and None is one call to the C encoder, re-indented; the
    rest goes through ``json.dumps`` with the same arguments."""
    with _fresh(path) as fh:
        fh.writelines(_json_chunks(payload, "\n", dict(_ARRAY_FLOATS)))
        fh.write("\n")


def _fresh(path, newline=None):
    """``path`` opened for writing as a new file, any file there unlinked
    first: on ext4, truncating a file soon after its last write waits for
    that write's flush."""
    Path(path).unlink(missing_ok=True)
    return open(path, "w", newline=newline)


def _json_chunks(value, pad: str, floats: dict):
    """The JSON text of ``value`` in chunks, where ``pad`` (a newline and the
    indent of the value's level) starts every line after its first, and
    ``floats`` holds the text of each array float met so far."""
    inner = pad + "  "
    if type(value) is np.ndarray:
        yield from _array_chunks(value, pad, floats)
    elif type(value) is dict and value and all(type(key) is str for key in value):
        opener = "{"
        for key in sorted(value):
            yield f"{opener}{inner}{json.dumps(key)}: "
            yield from _json_chunks(value[key], inner, floats)
            opener = ","
        yield pad + "}"
    elif type(value) is list and value:
        if set(map(type, value)) <= _NUMBER_ROW:
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


def _array_chunks(a: np.ndarray, pad: str, floats: dict):
    """The JSON text of ``a.tolist()``, +inf floats as null, in chunks of at
    most ``ARRAY_BLOCK`` elements.  Each element's separator closes the axes
    that end at it, then opens as many again."""
    if a.dtype.kind not in "biuf" or a.dtype.itemsize > 8:
        raise TypeError(f"cannot write an array of dtype {a.dtype} as JSON")
    if a.ndim == 0:
        yield _element_texts(a.reshape(1), floats)[0]
        return
    if a.size == 0:
        yield json.dumps(a.tolist(), indent=2).replace("\n", pad)
        return
    d = a.ndim
    indent = [pad + "  " * m for m in range(d + 1)]
    # the c innermost axes closed, and opened again up to the next element
    closes = ["".join(indent[m] + "]" for m in reversed(range(d - c, d))) for c in range(d + 1)]
    opens = ["".join(indent[m] + "[" for m in range(d - c, d)) + indent[d] for c in range(d)]
    # seps[c]: the text after an element at which c axes end
    seps = [closes[c] + "," + opens[c] for c in range(d)] + [closes[d]]
    # spans[c - 1]: the number of elements in c innermost axes
    spans = np.cumprod(a.shape[::-1]).tolist()
    yield "[" + opens[d - 1]
    flat = a.reshape(-1)
    for start in range(0, flat.size, ARRAY_BLOCK):
        block = flat[start:start + ARRAY_BLOCK]
        parts = np.empty(2 * block.size, dtype=object)
        parts[0::2] = _element_texts(block, floats)
        parts[1::2] = seps[0]
        for c, span in enumerate(spans, start=1):
            # c axes end at flat index i where span divides i + 1
            parts[2 * ((span - 1 - start) % span) + 1::2 * span] = seps[c]
        yield "".join(parts.tolist())


def _element_texts(block: np.ndarray, floats: dict) -> np.ndarray:
    """The JSON texts of a flat array's elements, as an object array: each
    distinct value is formatted once, and a float through ``floats``."""
    values, inverse = np.unique(block, return_inverse=True)
    keys = values.tolist()
    if block.dtype.kind != "f":
        # no text of a bool or int holds ", "
        return np.array(json.dumps(keys)[1:-1].split(", "), dtype=object)[inverse]
    texts = list(map(floats.get, keys))
    for i, x in enumerate(keys):
        if texts[i] is None:
            # a NaN equals no key, so it is never cached
            texts[i] = floats.setdefault(x, float.__repr__(x)) if x == x else "NaN"
    texts = np.array(texts, dtype=object)[inverse]
    texts[(block == 0) & np.signbit(block)] = "-0.0"
    return texts


def emit_plot_data(result: SweepResult, out_dir) -> list[Path]:
    """Write ``sweep.csv``, one ``SweepCell.row()`` per cell that solved (the
    data of every figure analog: total cost, delay, reward and probing cost
    vs eta, one series per policy and delta), plus a manifest carrying the
    config hash, seeds and per-cell status.  Re-runs are byte-identical."""
    if not result.cells:
        raise ValueError("empty sweep result")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    table = out / "sweep.csv"
    # csv writes a float as its repr
    with _fresh(table, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(result.cells[0].row()))
        writer.writeheader()
        writer.writerows(c.row() for c in result.cells if c.status == "ok")

    path = out / "manifest.json"
    write_json(path, manifest(
        result.spec.base, result.spec.seed,
        n_episodes=result.spec.n_episodes,
        eta_values=list(result.spec.eta_values),
        delta_values=list(result.spec.delta_values),
        policies=list(result.spec.policies),
        observations=_component_observations(result),
        cells=[
            {"policy": c.policy, "eta": c.eta, "delta": c.delta,
             "status": c.status, "message": c.message, "mc_z": c.mc_z,
             "stopped_mass": c.components.stopped_mass if c.components else None}
            for c in result.cells
        ],
    ))
    return [table, path]


def _component_observations(result: SweepResult) -> dict:
    """Recorded (never asserted) trends of the exact cost components along the
    eta axis, per policy/delta series; occasional dips are expected."""
    observations = {}
    for policy in result.spec.policies:
        for delta in result.spec.delta_values:
            comps = [c.components for c in result.series(policy, delta) if c.status == "ok"]
            if len(comps) < 2:
                continue

            def nondecreasing(values):
                return bool(all(b >= a - STRUCTURE_TOL for a, b in zip(values, values[1:])))

            observations[f"{policy},delta={delta}"] = {
                "delay_nondecreasing_in_eta": nondecreasing([c.mean_delay for c in comps]),
                "reward_nondecreasing_in_eta": nondecreasing([c.reward for c in comps]),
                "probing_cost_nondecreasing_in_eta": nondecreasing(
                    [c.probing_cost for c in comps]
                ),
            }
    return observations

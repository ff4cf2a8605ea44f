"""Exact backward induction for both policy classes.

A policy of capacity c keeps at most c woken, unprobed relays awake, so the
state at stage k is (best probed reward, multiset of at most min(k, c)
unprobed location types): c = N is the complete class, c = 1 the restricted
one (``dp_restricted``).  Relays of equal type are exchangeable, which lets
the unprobed set collapse to a canonical sorted tuple.  Values are stored per
stage and multiset size as dense matrices over the best-reward axis (real bins
plus the "none" row), with probe transitions resolved within a stage (smaller
multiset, same stage) and continue transitions referencing stage k+1 with the
newcomer appended, or, past the capacity, the set the overflow rule keeps.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Optional, Sequence

import numpy as np

from ._kernels import (ACTION_OF_CODE, NO_ACTION, PROBE, STOP, STRUCTURE_TOL, TIE_TOL, Action,
                       Decision, IllegalActionError, expect_over_max, resolve_actions)
from .model import ModelConfig, OrderedFamily, reward_grid

DEFAULT_STATE_BUDGET = 50_000_000
# Float entries of one batch of probe targets: small levels take all targets
# at once, the largest ones (which set the peak memory) one at a time.
BATCH_ELEMENTS = 1 << 18


class BudgetExceededError(RuntimeError):
    def __init__(self, projected: int, budget: int):
        super().__init__(
            f"state space needs {projected} memo entries, over the budget of "
            f"{budget}; reduce n_locations, n_relays or n_reward_bins"
        )
        self.projected = projected
        self.budget = budget


class NonFiniteValueError(ValueError):
    """A solved value is NaN, or infinite in a state with a legal action."""


class MultisetSpace:
    """Canonical enumeration of multisets over ``n_types`` up to ``max_size``,
    with precomputed member-insertion index maps: plus[s][t, g] is the row of
    G + {t} in size s+1 for the size-s set G of row g (so plus[s-1][t] also
    lists the size-s multisets holding t, in the order of those with one t
    removed)."""

    def __init__(self, n_types: int, max_size: int):
        self.n_types = n_types
        self.max_size = max_size
        self.msets: list[list[tuple[int, ...]]] = [
            list(combinations_with_replacement(range(n_types), s))
            for s in range(max_size + 1)
        ]
        self.index: list[dict[tuple[int, ...], int]] = [
            {g: i for i, g in enumerate(level)} for level in self.msets
        ]
        self.plus: list[np.ndarray] = []
        for s in range(max_size):
            bigger = self.index[s + 1]
            level = self.msets[s]
            dst = np.empty((n_types, len(level)), dtype=np.intp)
            for t, row in enumerate(dst):
                for gi, g in enumerate(level):
                    pos = bisect_left(g, t)
                    row[gi] = bigger[g[:pos] + (t,) + g[pos:]]
            self.plus.append(dst)

    def row(self, mset: tuple[int, ...]) -> int:
        return self.index[len(mset)][mset]


@lru_cache(maxsize=8)
def multiset_space(n_types: int, max_size: int) -> MultisetSpace:
    return MultisetSpace(n_types, max_size)


@dataclass(frozen=True)
class CompleteTables:
    """Memoized cost-to-go and argmin actions over (stage, best, multiset).

    ``values[k-1][s]`` is the (n_multisets(s), n_bins+1) value matrix at stage
    k for unprobed multisets of size s <= min(k, capacity); ``actions`` holds
    the STOP, PROBE and CONTINUE codes (NO_ACTION where no action is legal)
    and ``probe_targets`` the location type probed, -1 elsewhere.
    """

    config: ModelConfig
    family: OrderedFamily
    space: MultisetSpace = field(repr=False)
    values: list[list[np.ndarray]] = field(repr=False)
    actions: list[list[np.ndarray]] = field(repr=False)
    probe_targets: list[list[np.ndarray]] = field(repr=False)
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_bins(self) -> int:
        return self.values[0][0].shape[1] - 1

    @property
    def none_index(self) -> int:
        return self.n_bins

    @property
    def n_stages(self) -> int:
        return len(self.values)

    @property
    def capacity(self) -> int:
        """Most unprobed relays kept awake: N (complete class) or 1 (restricted)."""
        return len(self.values[-1]) - 1

    def value(self, stage: int, best: Optional[int], mset: Sequence[int]) -> float:
        g = tuple(sorted(mset))
        b = self.none_index if best is None else best
        return float(self.values[stage - 1][len(g)][self.space.row(g), b])

    def overflow_keep(self, stage: int) -> np.ndarray:
        """The overflow rule at ``stage``: kept[t, g, b] is the row of the set
        left awake when a relay of type t wakes beside the full awake set of
        row g at best reward b.  The newcomer is dropped unless dropping an
        awake member leaves a strictly smaller value; among members that tie,
        the one of lowest ``family.rank`` is dropped.  Cached per stage."""
        if stage not in self._kept:
            c = self.capacity
            level = self.values[stage - 1][c]
            rests = _ranked_members(self.space, c + 1, tuple(self.family.rank))[1]
            # the best remainder of every set one larger, and its row; a later
            # member replaces an earlier one only with a strictly smaller value
            best, rows = level[rests[:, 0]], rests[:, :1]
            for p in range(1, c + 1):
                better = level[rests[:, p]] < best
                best = np.where(better, level[rests[:, p]], best)
                rows = np.where(better, rests[:, p:p + 1], rows)
            joined = self.space.plus[c]  # [t, g]: row of g + t
            own = np.arange(len(level), dtype=rests.dtype)[:, None]
            self._kept[stage] = np.where(best[joined] < level, rows[joined], own)
        return self._kept[stage]


@lru_cache(maxsize=8)
def _ranked_members(space: MultisetSpace, s: int, rank: tuple[int, ...]) -> tuple:
    """(types, rests) of the size-s sets: types[g, p] is the p-th member of the
    set of row g, members taken from the lowest ``rank`` up, and rests[g, p]
    the row of that set without it; the dtype of rests, which the kept tables
    share, is the smallest that holds a row index."""
    members = np.array(space.msets[s], dtype=np.intp)
    order = np.argsort(np.asarray(rank)[members], axis=1, kind="stable")
    types = np.take_along_axis(members, order, axis=1)
    # without[t, g]: the row of size-s set g less one t (where g holds a t)
    row_type = np.min_scalar_type(len(space.msets[s - 1]))
    without = np.zeros((space.n_types, len(members)), dtype=row_type)
    joined = space.plus[s - 1]  # [t, f]: row of f + t
    without[np.arange(space.n_types)[:, None], joined] = np.arange(joined.shape[1])
    rests = without[types, np.arange(len(members))[:, None]]
    types.flags.writeable = rests.flags.writeable = False  # shared by every caller
    return types, rests


def _states_per_stage(n_types: int, n_bins: int, n_stages: int, capacity: int) -> list[int]:
    """Memo entries per stage k: all multisets of size 0..min(k, capacity)
    (stars and bars) times the best-reward axis."""
    return [
        sum(math.comb(n_types + s - 1, s) for s in range(min(k, capacity) + 1)) * (n_bins + 1)
        for k in range(1, n_stages + 1)
    ]


def projected_state_count(n_types: int, n_bins: int, n_stages: int) -> int:
    """Memo entries of the complete-class state space."""
    return sum(_states_per_stage(n_types, n_bins, n_stages, n_stages))


def _induction(family: OrderedFamily, config: ModelConfig, capacity: int,
               keep_costs: bool = False) -> tuple:
    """Solve the recursion of the policy class of the given capacity.

    Stages run from N down to 1 and multiset sizes from 0 up to min(k, c)
    within each stage.  Among probe targets, ties break toward the
    stochastically largest member; between stop, the best probe and
    continue, ``resolve_actions`` decides.  A continue from the full size c
    reads the best remainder of the set with the newcomer added: the value of
    the set the overflow rule keeps.  Returns the tables and, with
    ``keep_costs``, the probe and the continue costs of every level,
    probes[k-1][s] and conts[k-1][s] (else None, None).
    """
    config.validate()
    n_bins = family.n_bins
    n_types = len(family)
    n_stages = config.n_relays
    eta, delta, tau = config.eta, config.delta, config.tau

    projected = sum(_states_per_stage(n_types, n_bins, n_stages, capacity))
    if projected > DEFAULT_STATE_BUDGET:
        raise BudgetExceededError(projected, DEFAULT_STATE_BUDGET)

    space = multiset_space(n_types, min(capacity + 1, n_stages))
    pmf, cdf = family.pmf_matrix, family.cdf_matrix
    stop = np.append(-eta * reward_grid(n_bins), np.inf)
    dominance_order = [int(t) for t in family.order]  # largest first
    if capacity < n_stages:
        rests = _ranked_members(space, capacity + 1, tuple(family.rank))[1]

    values: list[list[np.ndarray]] = [[] for _ in range(n_stages)]
    actions: list[list[np.ndarray]] = [[] for _ in range(n_stages)]
    targets: list[list[np.ndarray]] = [[] for _ in range(n_stages)]
    probes = [[] for _ in range(n_stages)] if keep_costs else None
    conts = [[] for _ in range(n_stages)] if keep_costs else None

    for k in range(n_stages, 0, -1):
        i = k - 1
        top = min(k, capacity)
        values[i] = [None] * (top + 1)
        actions[i] = [None] * (top + 1)
        targets[i] = [None] * (top + 1)
        if k < n_stages and top == capacity:  # a continue from the full level overflows
            remainder = values[i + 1][capacity][rests].min(axis=1)
        for s in range(top + 1):
            n_s = len(space.msets[s])
            probe = np.full((n_s, n_bins + 1), np.inf)
            tgt = np.full((n_s, n_bins + 1), -1, dtype=np.int16)

            if s >= 1:
                # probing t from the set of row plus[s-1][t][f] leaves row f,
                # so each target's expectation runs over the whole smaller level
                smaller = values[i][s - 1][:, :n_bins]
                per_call = max(1, BATCH_ELEMENTS // smaller.size)
                for first in range(0, n_types, per_call):
                    batch = dominance_order[first:first + per_call]
                    probe_vals = eta * delta + expect_over_max(
                        smaller, pmf[batch][:, None], cdf[batch][:, None]
                    )
                    for t, probe_val in zip(batch, probe_vals):
                        src = space.plus[s - 1][t]
                        cur = probe[src]
                        better = probe_val < cur
                        probe[src] = np.where(better, probe_val, cur)
                        tgt[src] = np.where(better, t, tgt[src])
                # free the last targets' temporaries before resolving actions
                del probe_vals, probe_val, cur, better

            cont = np.inf
            if k < n_stages:
                nxt = remainder if s == capacity else values[i + 1][s + 1]
                cont = np.zeros((n_s, n_bins + 1))
                for t in range(n_types):
                    cont += nxt[space.plus[s][t]]
                cont /= n_types
                cont += tau

            # in row batches, so that the tie rule's float temporaries stay small
            act = np.empty(probe.shape, dtype=np.int8)
            step = max(1, BATCH_ELEMENTS // probe.shape[1])
            for first in range(0, n_s, step):
                rows = slice(first, first + step)
                act[rows] = resolve_actions(stop, probe[rows], cont[rows] if k < n_stages else cont)
            tgt[act != PROBE] = -1
            if keep_costs:
                probes[i].append(probe.copy())
                conts[i].append(np.broadcast_to(cont, probe.shape))
            # Computed in place of the probe costs.  On equal values
            # np.minimum returns its second argument, so a -0.0 stop cost
            # outranks a +0.0 probe or continue cost, as in the tie rule.
            val = np.minimum(probe, stop, out=probe)
            np.minimum(cont, val, out=val)

            values[i][s] = val
            actions[i][s] = act
            targets[i][s] = tgt

    for i, (vals, acts) in enumerate(zip(values, actions)):
        for s, (val, act) in enumerate(zip(vals, acts)):
            bad = np.isnan(val) | (np.isinf(val) & (act != NO_ACTION))
            if bad.any():
                row, b = np.argwhere(bad)[0]
                raise NonFiniteValueError(
                    f"value {val[row, b]} at stage {i + 1}, multiset size {s}, row {row} "
                    f"{space.msets[s][row]}, bin {b}: the config overflows float arithmetic")
    tables = CompleteTables(config=config, family=family, space=space,
                           values=values, actions=actions, probe_targets=targets)
    return tables, probes, conts


def solve_complete(family: OrderedFamily, config: ModelConfig) -> CompleteTables:
    """Solve the complete-class recursion exactly for all stages: the shared
    induction at capacity N, where no wake-up overflows."""
    return _induction(family, config, config.n_relays)[0]


def initial_value(tables: CompleteTables) -> float:
    """Expected optimal cost from the first wake-up: the uniform average of
    J_1(none, {F_l})."""
    singles = tables.values[0][1][:, tables.none_index]
    return float(singles.mean())


def act_complete(
    state: tuple[int, Optional[int], Sequence[int]], tables: CompleteTables
) -> Decision:
    """Stored argmin action at (stage, best reward, unprobed multiset)."""
    stage, best, mset = state
    g = tuple(sorted(mset))
    if not 1 <= stage <= tables.n_stages:
        raise ValueError(f"stage {stage} outside 1..{tables.n_stages}")
    if len(g) > stage:
        raise ValueError(f"multiset of size {len(g)} cannot occur at stage {stage}")
    if any(not 0 <= t < len(tables.family) for t in g):
        raise ValueError(f"unknown location types in {g}")
    if best is not None and not 0 <= best < tables.n_bins:
        raise ValueError(f"best-reward index {best} outside the grid")

    b = tables.none_index if best is None else best
    row = tables.space.row(g)
    code = tables.actions[stage - 1][len(g)][row, b]
    if code == NO_ACTION:
        raise IllegalActionError(
            f"no legal action at stage {stage} with best={best}, multiset={g}"
        )
    kind = ACTION_OF_CODE[code]
    if kind is Action.PROBE:
        return Decision(kind, int(tables.probe_targets[stage - 1][len(g)][row, b]))
    return Decision(kind)


@dataclass(frozen=True)
class CensusResult:
    """Per-stage state counts of both policy classes."""

    n_types: int
    n_bins: int
    n_stages: int
    complete: list[int]
    restricted: list[int]

    def to_json(self) -> dict:
        return {
            "n_types": self.n_types,
            "n_bins": self.n_bins,
            "n_stages": self.n_stages,
            "complete_per_stage": self.complete,
            "restricted_per_stage": self.restricted,
        }


def state_space_census(config: ModelConfig) -> CensusResult:
    """Exact combinatorial counts: the complete class grows with the number of
    multisets (stars and bars), the restricted class (capacity 1) is linear in
    the family size and flat across stages."""
    n_types = config.n_locations
    n_bins = config.n_reward_bins
    n_stages = config.n_relays
    return CensusResult(
        n_types, n_bins, n_stages,
        complete=_states_per_stage(n_types, n_bins, n_stages, n_stages),
        restricted=_states_per_stage(n_types, n_bins, n_stages, 1),
    )


def verify_complete_conjectures(tables: CompleteTables) -> dict:
    """Empirical checks of the complete-class conjectures; reported only.

    Covers: stopping decisions independent of the stage for every (best,
    multiset) slice, probe-the-stochastically-largest optimality wherever
    probing is optimal, monotonicity of the value in the best reward (a NaN
    value counts as a violation), value improvement under multiset
    enlargement, and agreement of the stage-N stopping rule with the
    one-step-look-ahead rule.  Inequalities are checked at STRUCTURE_TOL.
    """
    family = tables.family
    config = tables.config
    space = tables.space
    n_bins = tables.n_bins
    n_stages = tables.n_stages
    eta, delta = config.eta, config.delta
    pmf, cdf = family.pmf_matrix, family.cdf_matrix
    grid = reward_grid(n_bins)
    rank = tuple(family.rank)
    ranked = [None] + [_ranked_members(space, s, rank) for s in range(1, n_stages + 1)]
    step = max(1, BATCH_ELEMENTS // n_bins)  # rows per batch of the checks below

    failures = ("probe_largest_violations", "stage_independence_mismatches",
                "value_monotone_violations", "enlargement_violations", "osla_stage_n_mismatches")
    report = dict.fromkeys(failures + ("probing_states_checked", "stopping_slices_checked"), 0)

    # probe-largest: at every probing state, probing the stochastically
    # largest member costs no more than the solved value
    for k in range(1, n_stages + 1):
        for s in range(1, k + 1):
            types, rests = ranked[s]
            smaller = tables.values[k - 1][s - 1][:, :n_bins]
            probing = tables.actions[k - 1][s] == PROBE
            report["probing_states_checked"] += int(probing.sum())
            for first in range(0, len(types), step):
                rows = slice(first, first + step)
                largest, rest = types[rows, 0], rests[rows, 0]
                cost = eta * delta + expect_over_max(smaller[rest], pmf[largest], cdf[largest])
                report["probe_largest_violations"] += int(
                    (probing[rows] & (cost > tables.values[k - 1][s][rows] + STRUCTURE_TOL)).sum()
                )

    # stage independence of stopping decisions over (best, multiset) slices,
    # on stages where continuing is available
    for s in range(n_stages - 1):
        stages = [k for k in range(max(s, 1), n_stages)]
        if len(stages) < 2:
            continue
        masks = [tables.actions[k - 1][s] == STOP for k in stages]
        report["stopping_slices_checked"] += masks[0].size
        for m in masks[1:]:
            report["stage_independence_mismatches"] += int((masks[0] != m).sum())

    # value monotone in best reward; enlargement cannot increase the value
    for k in range(1, n_stages + 1):
        for s in range(k + 1):
            val = tables.values[k - 1][s]
            report["value_monotone_violations"] += int(
                (np.diff(val[:, :n_bins], axis=1) > STRUCTURE_TOL).sum() + np.isnan(val).sum()
            )
            if s + 1 <= k:
                bound = val + STRUCTURE_TOL
                for t in range(len(family)):
                    bigger = tables.values[k - 1][s + 1][space.plus[s][t]]
                    report["enlargement_violations"] += int((bigger > bound).sum())

    # stage-N stopping matches the one-step-look-ahead rule
    stop_real = -eta * grid
    one_step = eta * delta - eta * expect_over_max(grid, pmf, cdf)  # (L, n_bins+1)
    for s in range(1, n_stages + 1):
        types = ranked[s][0]
        dp_stop = tables.actions[n_stages - 1][s][:, :n_bins] == STOP
        for first in range(0, len(types), step):
            rows = slice(first, first + step)
            osla_min = one_step[types[rows, 0], :n_bins]
            for p in range(1, s):
                np.minimum(osla_min, one_step[types[rows, p], :n_bins], out=osla_min)
            # resolve_actions' tie rule with continuing unavailable: stop iff
            # stop <= osla + TIE_TOL.  Round-off may split it from the DP's
            # rule only next to that boundary.
            boundary = np.add(osla_min, TIE_TOL, out=osla_min)
            osla_stop = stop_real <= boundary
            margin = np.abs(np.subtract(boundary, stop_real, out=boundary), out=boundary)
            report["osla_stage_n_mismatches"] += int(
                ((dp_stop[rows] != osla_stop) & (margin > TIE_TOL)).sum()
            )

    report["all_hold"] = not any(report[key] for key in failures)
    return report


def policy_to_json(tables: CompleteTables) -> dict:
    """Export of the actions and probe targets only, not the values, to bound size."""
    return {
        "n_stages": tables.n_stages,
        "n_bins": tables.n_bins,
        "stages": [
            {
                "stage": k,
                "actions": [a.tolist() for a in tables.actions[k - 1]],
                "probe_targets": [t.tolist() for t in tables.probe_targets[k - 1]],
            }
            for k in range(1, tables.n_stages + 1)
        ],
    }

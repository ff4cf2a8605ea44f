"""Exact backward induction for the complete policy class.

Complete-class policies may keep every woken relay awake, so the state at
stage k is (best probed reward, multiset of unprobed location types).  Relays
of equal type are exchangeable, which lets the unprobed set collapse to a
canonical sorted tuple.  Values are stored per stage and multiset size as
dense matrices over the best-reward axis (real bins plus the "none" row),
with probe transitions resolved within a stage (smaller multiset, same stage)
and continue transitions referencing stage k+1 with the newcomer appended.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Optional, Sequence

import numpy as np

from ._kernels import NO_ACTION, PROBE, STOP, TIE_TOL, expect_over_max, resolve_actions
from .dp_restricted import ACTION_OF_CODE, Action, Decision, IllegalActionError
from .model import ModelConfig, OrderedFamily, reward_grid

DEFAULT_STATE_BUDGET = 50_000_000


class BudgetExceededError(RuntimeError):
    def __init__(self, projected: int, budget: int):
        super().__init__(
            f"complete-class state space needs {projected} memo entries, over the "
            f"budget of {budget}; reduce n_locations or n_relays"
        )
        self.projected = projected
        self.budget = budget


class MultisetSpace:
    """Canonical enumeration of multisets over ``n_types`` up to ``max_size``,
    with precomputed member-removal and member-insertion index maps."""

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
        # minus[s][t] = (rows of size-s multisets containing t,
        #                rows of those multisets with one t removed, in size s-1)
        self.minus: list[dict[int, tuple[np.ndarray, np.ndarray]]] = [{}]
        for s in range(1, max_size + 1):
            per_type: dict[int, tuple[list[int], list[int]]] = {
                t: ([], []) for t in range(n_types)
            }
            smaller = self.index[s - 1]
            for gi, g in enumerate(self.msets[s]):
                for t in set(g):
                    pos = bisect_left(g, t)
                    src, dst = per_type[t]
                    src.append(gi)
                    dst.append(smaller[g[:pos] + g[pos + 1 :]])
            self.minus.append(
                {t: (np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp))
                 for t, (src, dst) in per_type.items()}
            )
        # plus[s][t][row of G] = row of G + {t} in size s+1
        self.plus: list[dict[int, np.ndarray]] = []
        for s in range(max_size):
            bigger = self.index[s + 1]
            level = self.msets[s]
            maps = {}
            for t in range(n_types):
                dst = np.empty(len(level), dtype=np.intp)
                for gi, g in enumerate(level):
                    pos = bisect_left(g, t)
                    dst[gi] = bigger[g[:pos] + (t,) + g[pos:]]
                maps[t] = dst
            self.plus.append(maps)

    def row(self, mset: tuple[int, ...]) -> int:
        return self.index[len(mset)][mset]


@lru_cache(maxsize=8)
def multiset_space(n_types: int, max_size: int) -> MultisetSpace:
    return MultisetSpace(n_types, max_size)


@dataclass(frozen=True)
class CompleteTables:
    """Memoized cost-to-go and argmin actions over (stage, best, multiset).

    ``values[k-1][s]`` is the (n_multisets(s), n_bins+1) value matrix at stage
    k for unprobed multisets of size s; ``actions`` holds the STOP, PROBE and
    CONTINUE codes (NO_ACTION where no action is legal) and ``probe_targets``
    the location type probed, -1 elsewhere.
    """

    config: ModelConfig
    family: OrderedFamily
    space: MultisetSpace = field(repr=False)
    values: list[list[np.ndarray]] = field(repr=False)
    actions: list[list[np.ndarray]] = field(repr=False)
    probe_targets: list[list[np.ndarray]] = field(repr=False)

    @property
    def n_bins(self) -> int:
        return self.values[0][0].shape[1] - 1

    @property
    def none_index(self) -> int:
        return self.n_bins

    @property
    def n_stages(self) -> int:
        return len(self.values)

    def value(self, stage: int, best: Optional[int], mset: Sequence[int]) -> float:
        g = tuple(sorted(mset))
        b = self.none_index if best is None else best
        return float(self.values[stage - 1][len(g)][self.space.row(g), b])


def projected_state_count(n_types: int, n_bins: int, n_stages: int) -> int:
    """Memo entries of the full state space: per stage k, all multisets of
    size 0..k times the best-reward axis (stars and bars)."""
    per_stage = []
    for k in range(1, n_stages + 1):
        msets = sum(math.comb(n_types + s - 1, s) for s in range(k + 1))
        per_stage.append(msets * (n_bins + 1))
    return sum(per_stage)


def solve_complete(
    family: OrderedFamily,
    config: ModelConfig,
    budget: int = DEFAULT_STATE_BUDGET,
) -> CompleteTables:
    """Solve the complete-class recursion exactly for all stages.

    Stages run from N down to 1 and multiset sizes from 0 up within each
    stage.  Among probe targets, ties break toward the stochastically largest
    member; between stop, the best probe and continue, ``resolve_actions``
    decides.
    """
    config.validate()
    n_bins = family.n_bins
    n_types = len(family)
    n_stages = config.n_relays
    eta, delta, tau = config.eta, config.delta, config.tau

    projected = projected_state_count(n_types, n_bins, n_stages)
    if projected > budget:
        raise BudgetExceededError(projected, budget)

    space = multiset_space(n_types, n_stages)
    pmf, cdf = family.pmf_matrix, family.cdf_matrix
    stop = np.append(-eta * reward_grid(n_bins), np.inf)
    dominance_order = [int(t) for t in family.order]  # largest first

    values: list[list[np.ndarray]] = [[] for _ in range(n_stages)]
    actions: list[list[np.ndarray]] = [[] for _ in range(n_stages)]
    targets: list[list[np.ndarray]] = [[] for _ in range(n_stages)]

    for k in range(n_stages, 0, -1):
        i = k - 1
        values[i] = [None] * (k + 1)
        actions[i] = [None] * (k + 1)
        targets[i] = [None] * (k + 1)
        for s in range(k + 1):
            n_s = len(space.msets[s])
            probe = np.full((n_s, n_bins + 1), np.inf)
            tgt = np.full((n_s, n_bins + 1), -1, dtype=np.int16)

            if s >= 1:
                same_stage_smaller = values[i][s - 1]
                for t in dominance_order:
                    src, dst = space.minus[s][t]
                    if src.size == 0:
                        continue
                    probe_val = eta * delta + expect_over_max(
                        same_stage_smaller[dst][:, :n_bins], pmf[t], cdf[t]
                    )
                    cur = probe[src]
                    better = probe_val < cur
                    probe[src] = np.where(better, probe_val, cur)
                    tgt[src] = np.where(better, t, tgt[src])
                # free the last target's temporaries before resolving actions
                del probe_val, cur, better

            cont = np.inf
            if k < n_stages:
                cont = np.zeros((n_s, n_bins + 1))
                for t in range(n_types):
                    cont += values[i + 1][s + 1][space.plus[s][t]]
                cont /= n_types
                cont += tau

            act = resolve_actions(stop, probe, cont)
            tgt[act != PROBE] = -1
            # Computed in place of the probe costs.  On equal values
            # np.minimum returns its second argument, so a -0.0 stop cost
            # outranks a +0.0 probe or continue cost, as in the tie rule.
            val = np.minimum(probe, stop, out=probe)
            np.minimum(cont, val, out=val)

            values[i][s] = val
            actions[i][s] = act
            targets[i][s] = tgt

    return CompleteTables(
        config=config, family=family, space=space,
        values=values, actions=actions, probe_targets=targets,
    )


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
    multisets (stars and bars), the restricted class is linear in the family
    size and flat across stages."""
    n_types = config.n_locations
    n_bins = config.n_reward_bins
    n_stages = config.n_relays
    complete = [
        sum(math.comb(n_types + s - 1, s) for s in range(k + 1)) * (n_bins + 1)
        for k in range(1, n_stages + 1)
    ]
    restricted = [(n_bins + 1) * (n_types + 1)] * n_stages
    return CensusResult(n_types, n_bins, n_stages, complete, restricted)


def verify_complete_conjectures(tables: CompleteTables, tol: float = 1e-9) -> dict:
    """Empirical checks of the complete-class conjectures; reported only.

    Covers: stopping decisions independent of the stage for every (best,
    multiset) slice, probe-the-stochastically-largest optimality wherever
    probing is optimal, monotonicity of the value in the best reward, value
    improvement under multiset enlargement, and agreement of the stage-N
    stopping rule with the one-step-look-ahead rule.
    """
    family = tables.family
    config = tables.config
    space = tables.space
    n_bins = tables.n_bins
    n_stages = tables.n_stages
    eta, delta = config.eta, config.delta
    pmf, cdf = family.pmf_matrix, family.cdf_matrix
    rank = family.rank
    grid = reward_grid(n_bins)

    report = {
        "probe_largest_violations": 0,
        "probing_states_checked": 0,
        "stage_independence_mismatches": 0,
        "stopping_slices_checked": 0,
        "value_monotone_violations": 0,
        "enlargement_violations": 0,
        "osla_stage_n_mismatches": 0,
    }

    # probe-largest: the stochastically largest member attains the probe min
    for k in range(1, n_stages + 1):
        for s in range(1, k + 1):
            n_s = len(space.msets[s])
            largest = np.array(
                [min(g, key=lambda t: rank[t]) for g in space.msets[s]], dtype=int
            )
            min_probe = np.full((n_s, n_bins + 1), np.inf)
            largest_probe = np.full((n_s, n_bins + 1), np.nan)
            for t in range(len(family)):
                src, dst = space.minus[s][t]
                if src.size == 0:
                    continue
                probe_val = eta * delta + expect_over_max(
                    tables.values[k - 1][s - 1][dst][:, :n_bins], pmf[t], cdf[t]
                )
                min_probe[src] = np.minimum(min_probe[src], probe_val)
                owns = largest[src] == t
                largest_probe[src[owns]] = probe_val[owns]
            probing = tables.actions[k - 1][s] == PROBE
            report["probing_states_checked"] += int(probing.sum())
            report["probe_largest_violations"] += int(
                (probing & (largest_probe > min_probe + tol)).sum()
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
                (np.diff(val[:, :n_bins], axis=1) > tol).sum()
            )
            if s + 1 <= k:
                for t in range(len(family)):
                    bigger = tables.values[k - 1][s + 1][space.plus[s][t]]
                    report["enlargement_violations"] += int((bigger > val + tol).sum())

    # stage-N stopping matches the one-step-look-ahead rule
    stop_real = -eta * grid
    one_step = np.stack(
        [eta * delta - eta * expect_over_max(grid, pmf[t], cdf[t]) for t in range(len(family))]
    )  # (L, n_bins+1)
    for s in range(1, n_stages + 1):
        osla_min = np.full((len(space.msets[s]), n_bins + 1), np.inf)
        for t in range(len(family)):
            src, _ = space.minus[s][t]
            if src.size:
                osla_min[src] = np.minimum(osla_min[src], one_step[t])
        # resolve_actions' tie rule with continuing unavailable: stop iff
        # stop <= osla + TIE_TOL.  Round-off may split it from the DP's rule
        # only next to that boundary.  Built in place: at the largest level
        # each temporary would be a (n_multisets, n_bins) float array.
        boundary = osla_min[:, :n_bins]
        boundary += TIE_TOL
        dp_stop = tables.actions[n_stages - 1][s][:, :n_bins] == STOP
        osla_stop = stop_real <= boundary
        boundary -= stop_real
        margin = np.abs(boundary, out=boundary)
        report["osla_stage_n_mismatches"] += int(
            ((dp_stop != osla_stop) & (margin > 1e-12)).sum()
        )

    report["all_hold"] = (
        report["probe_largest_violations"] == 0
        and report["stage_independence_mismatches"] == 0
        and report["value_monotone_violations"] == 0
        and report["enlargement_violations"] == 0
        and report["osla_stage_n_mismatches"] == 0
    )
    return report


def policy_to_json(tables: CompleteTables) -> dict:
    """Policy-only export (actions and probe targets, not values) to bound size."""
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

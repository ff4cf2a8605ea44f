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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from ._kernels import (ACTION_OF_CODE, NO_ACTION, PROBE, STOP, STRUCTURE_TOL, TIE_TOL, Action,
                       Decision, IllegalActionError, expect_over_max, resolve_actions)
from .model import ModelConfig, OrderedFamily, reward_grid

DEFAULT_STATE_BUDGET = 50_000_000
# Float entries of one batch: a chunk of bins of the probe kernel's (type,
# smaller row) expectations, where small levels take all bins at once and the
# largest (which set the peak memory) one bin at a time, and a batch of probe
# targets in the forward sweep.
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
    """Canonical enumeration of multisets over ``n_types`` up to ``max_size``:
    members[s] holds the sorted size-s multisets as rows, in the order of
    ``combinations_with_replacement``, and plus[s][t, g] is the row of G + {t}
    in size s+1 for the size-s set G of row g (so plus[s-1][t] also lists the
    size-s multisets holding t, in the order of those with one t removed).

    Rows are lexicographic ranks, computed arithmetically: a base-n_types key
    would overflow int64 for few types and many relays."""

    def __init__(self, n_types: int, max_size: int):
        self.n_types = n_types
        self.max_size = max_size
        # above[v, r]: the number of size-(r+1) multisets over the types
        # v..n-1.  A sorted set's rank adds, at each member x_j, the sets that
        # agree before j and hold a smaller type at j: with r members left
        # after j, above[x_{j-1}, r] - above[x_j, r] (x_{-1} = 0)
        self._above = np.array(
            [[math.comb(n_types - v + r, r + 1) for r in range(max(max_size, 1))]
             for v in range(n_types + 1)], dtype=np.int64)
        self.members: list[np.ndarray] = [np.zeros((1, 0), dtype=np.intp)]
        for s in range(1, max_size + 1):
            # each set of size s-1 grows by a type no smaller than its last member
            prefixes = self.members[-1]
            last = prefixes[:, -1] if s > 1 else np.zeros(1, dtype=np.intp)
            counts = n_types - last
            parent = np.repeat(np.arange(len(prefixes)), counts)
            offset = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
            self.members.append(np.column_stack([prefixes[parent], last[parent] + offset]))
        self.plus: list[np.ndarray] = []
        types = np.arange(n_types)[:, None]
        for s in range(max_size):
            # column j of G + {t}, sorted: G's j-th member while that is below
            # t, then t, then G's members shifted one place up
            members = self.members[s]
            columns = [np.where(members[:, j] < types, members[:, j],
                                np.maximum(types, members[:, j - 1]) if j else types)
                       for j in range(s)]
            columns.append(np.maximum(types, members[:, s - 1]) if s else
                           np.broadcast_to(types, (n_types, 1)))
            self.plus.append(self._ranks(columns))

    def _ranks(self, columns: list) -> np.ndarray:
        """Rows of sorted multisets, given as their member columns."""
        rank, before = 0, 0
        for j, col in enumerate(columns):
            above = self._above[:, len(columns) - 1 - j]  # members still to place
            rank = rank + above[before] - above[col]
            before = col
        return np.asarray(rank, dtype=np.intp)

    @cached_property
    def msets(self) -> list[list[tuple[int, ...]]]:
        """The members as sorted tuples, built on first use (off the solve path)."""
        return [[tuple(g) for g in level.tolist()] for level in self.members]

    def row(self, mset: tuple[int, ...]) -> int:
        """The row of a sorted multiset; ValueError if the space lacks it."""
        g = tuple(mset)
        if (len(g) > self.max_size or list(g) != sorted(g)
                or not all(isinstance(t, (int, np.integer)) and 0 <= t < self.n_types for t in g)):
            raise ValueError(
                f"multiset {mset!r} is not a sorted multiset of at most {self.max_size} "
                f"of the types 0..{self.n_types - 1}")
        return int(self._ranks(list(g)))


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
    members = space.members[s]
    order = np.argsort(np.asarray(rank)[members], axis=1, kind="stable")
    types = np.take_along_axis(members, order, axis=1)
    # without[t, g]: the row of size-s set g less one t (where g holds a t)
    row_type = np.min_scalar_type(len(space.members[s - 1]))
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


def _probe_costs(smaller: np.ndarray, pmf: np.ndarray, cdf: np.ndarray, surcharge: float,
                 types: np.ndarray, rests: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best probe cost and target of every size-s state.

    Probing slot p of the set of row g costs surcharge + E_t[V_f(max{b, R})]
    with t = types[g, p] and f = rests[g, p], a row of the ``smaller`` level
    (values over the real bins).  A running minimum over the slots with
    strict ``<`` keeps the first of equal costs, the stochastically largest
    member, and never takes a NaN.  The expectations of every (type, smaller
    row) pair run from the top bin down in chunks of bins holding at most
    BATCH_ELEMENTS of them, carrying the reverse cumulative sum of
    ``expect_over_max`` across chunks in its sequential order, so the costs
    are bitwise those of that kernel.
    """
    n_types, n_bins = pmf.shape
    n_rows, n_slots = types.shape
    probe = np.empty((n_rows, n_bins + 1))
    target = np.empty((n_rows, n_bins + 1), dtype=np.int16)
    # pairs[p, g]: the (type, smaller row) pair of slot p of row g
    pairs = np.ascontiguousarray((types * len(smaller) + rests).T)
    slot_types = np.ascontiguousarray(types.T, dtype=np.int16)

    def settle(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The best cost and its type at every (bin of the chunk, row), from
        costs[j, pair]."""
        costs = costs.reshape(len(costs), -1)
        best = np.full((len(costs), n_rows), np.inf)
        pick = np.full(best.shape, -1, dtype=np.int16)
        for p in range(n_slots):
            cost = np.take(costs, pairs[p], axis=1)
            better = np.less(cost, best)
            np.copyto(best, cost, where=better)
            np.copyto(pick, slot_types[p], where=better)
        return best, pick

    # bins lead, so that the running sums add whole (type, row) planes
    vals_by_bin = np.ascontiguousarray(smaller.T)[:, None, :]
    pmf_by_bin, cdf_by_bin = pmf.T[:, :, None], cdf.T[:, :, None]
    width = max(1, BATCH_ELEMENTS // (n_types * len(smaller)))
    # settled chunks wait until they span a block of bins, which is written
    # into the row-major tables at once (a bin at a time touches a cache line
    # per row)
    block = max(1, BATCH_ELEMENTS // n_rows)
    pending, written = [], n_bins  # the bins from `written` up are in the tables
    # the sum of pmf * V over the bins above the chunk; -0.0 adds exactly
    carry = np.full((n_types, len(smaller)), -0.0)
    for hi in range(n_bins, 0, -width):
        lo = max(0, hi - width)
        vals = vals_by_bin[lo:hi]
        terms = pmf_by_bin[lo:hi] * vals
        terms[-1] += carry
        # rev[m]: the sum over bins >= hi - 1 - m, added from the top bin down;
        # np.cumsum costs about 10 ns per (type, row) pair, which one-bin
        # chunks skip: there the cumulative sum is the term itself
        rev = np.cumsum(terms[::-1], axis=0) if hi - lo > 1 else terms
        costs = cdf_by_bin[lo:hi] * vals
        costs[:-1] += rev[:hi - lo - 1][::-1]
        costs[-1] += carry
        costs += surcharge
        carry = rev[-1]
        pending.insert(0, settle(costs))
        if written - lo >= block or lo == 0:
            probe[:, lo:written] = np.concatenate([best for best, _ in pending]).T
            target[:, lo:written] = np.concatenate([pick for _, pick in pending]).T
            pending, written = [], lo
    best, pick = settle((carry + surcharge)[None])  # the none row: max{none, R} = R
    probe[:, n_bins], target[:, n_bins] = best[0], pick[0]
    return probe, target


# overflow and invalid values surface in the check of each solved level
@np.errstate(over="ignore", invalid="ignore")
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
    rank = tuple(family.rank)
    if capacity < n_stages:
        rests = _ranked_members(space, capacity + 1, rank)[1]

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
        for s in range(top + 1):
            n_s = len(space.members[s])
            if s >= 1:
                probe, tgt = _probe_costs(values[i][s - 1][:, :n_bins], pmf, cdf, eta * delta,
                                          *_ranked_members(space, s, rank))
            else:
                probe = np.full((n_s, n_bins + 1), np.inf)
                tgt = np.full((n_s, n_bins + 1), -1, dtype=np.int16)

            cont = np.inf
            if k < n_stages:
                nxt = values[i + 1][min(s + 1, capacity)]
                cont = np.zeros((n_s, n_bins + 1))
                for t in range(n_types):
                    if s < capacity:
                        cont += nxt[space.plus[s][t]]
                    else:
                        # past the capacity: the best remainder of each set
                        # with t added, taken per t rather than for every set
                        # one larger, to keep the solve's temporaries small
                        drops = rests[space.plus[s][t]]
                        best = nxt[drops[:, 0]]
                        for p in range(1, capacity + 1):
                            np.minimum(best, nxt[drops[:, p]], out=best)
                        cont += best
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

            # checked as soon as solved, before any later level reads it
            bad = np.isnan(val) | (np.isinf(val) & (act != NO_ACTION))
            if bad.any():
                row, b = np.argwhere(bad)[0]
                raise NonFiniteValueError(
                    f"value {val[row, b]} at stage {k}, multiset size {s}, row {row} "
                    f"{space.msets[s][row]}, bin {b}: the config overflows float arithmetic")
            values[i][s] = val
            actions[i][s] = act
            targets[i][s] = tgt

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

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
Only reachable states are solved: a set of k unprobed relays at stage k has
probed nothing, so above capacity 1 those levels hold their none row alone.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from ._kernels import (CONTINUE, NO_ACTION, PROBE, STOP, STRUCTURE_TOL, TIE_TOL, Decision,
                       IllegalActionError, action_dtype, decision_of, expect_over_max,
                       resolve_actions)
from .model import ModelConfig, OrderedFamily, reward_grid

DEFAULT_STATE_BUDGET = 50_000_000
# Float entries of one batch: a chunk of bins of the probe kernel's (type,
# smaller row) expectations, where small levels take all bins at once and the
# largest (which set the peak memory) one bin at a time, and a batch of probe
# targets in the forward sweep.
BATCH_ELEMENTS = 1 << 18
# Entries of one batch of newcomer types in the overflow rule and in the
# forward sweep's continue move (64 KB): below glibc's smallest mmap
# threshold, so that the many small builds and sweeps of a calibration reuse
# heap pages instead of faulting in fresh mapped ones.
OVERFLOW_ELEMENTS = 1 << 13


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


class UnreachableStateError(ValueError):
    """A state no policy reaches, whose entry the tables do not hold."""


def _is_index(value) -> bool:
    """Whether ``value`` is an integer and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _sorted_multiset(mset) -> tuple:
    """``mset`` as a sorted tuple; ValueError naming it unless it is a
    collection of integers, so that it sorts (``MultisetSpace.row`` then
    rejects bools and unknown types)."""
    members = tuple(mset) if isinstance(mset, Iterable) else None
    if members is None or not all(isinstance(t, numbers.Integral) for t in members):
        raise ValueError(f"multiset {mset!r} is not a collection of integer location types")
    return tuple(sorted(members))


def _none_column_only(stage: int, size: int, capacity: int) -> bool:
    """Whether the level of ``size`` unprobed relays at ``stage`` is solved
    and stored as its none row alone, one column: k unprobed relays at stage
    k mean that nothing has been probed, so its real bins are never reached.
    At capacity 1 the real bins of that level, (1, 1), stay: they are the
    J_1(b, F_l) that the threshold extraction and the structural checks
    read."""
    return size == stage and capacity >= 2


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
            self.plus.append(self.ranks(columns))

    def ranks(self, columns: list) -> np.ndarray:
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
                or not all(_is_index(t) and 0 <= t < self.n_types for t in g)):
            raise ValueError(
                f"multiset {mset!r} is not a sorted multiset of at most {self.max_size} "
                f"of the types 0..{self.n_types - 1}")
        return int(self.ranks(list(g)))


@lru_cache(maxsize=8)
def multiset_space(n_types: int, max_size: int) -> MultisetSpace:
    return MultisetSpace(n_types, max_size)


@dataclass(frozen=True)
class CompleteTables:
    """Memoized cost-to-go and argmin actions over (stage, best, multiset).

    ``values[k-1][s]`` is the (n_multisets(s), n_bins+1) value matrix at stage
    k for unprobed multisets of size s <= min(k, capacity), and
    ``actions[k-1][s]`` its action codes (``_kernels``: STOP, CONTINUE,
    PROBE + t to probe type t, NO_ACTION) in ``action_dtype``.  The none row
    is the last column of every level: above capacity 1 the levels of size k
    at stage k, which have probed nothing, hold that column alone,
    (n_multisets(k), 1), and their real bins are not stored.
    ``kept[k-1]`` is the overflow rule at stage k (``_overflow_rule``), None at
    stages 1..capacity, where no wake-up overflows.  It holds the columns of
    the full level a stage earlier, from which wake-ups overflow into stage
    k: at stage capacity + 1 above capacity 1 the none column alone,
    (n_types, n_multisets(capacity), 1).
    """

    config: ModelConfig
    family: OrderedFamily
    space: MultisetSpace = field(repr=False)
    values: list[list[np.ndarray]] = field(repr=False)
    actions: list[list[np.ndarray]] = field(repr=False)
    kept: list[Optional[np.ndarray]] = field(repr=False)

    @property
    def n_bins(self) -> int:
        return self.values[0][0].shape[1] - 1

    @property
    def n_stages(self) -> int:
        return len(self.values)

    @property
    def capacity(self) -> int:
        """Most unprobed relays kept awake, any c in 1..N: N is the complete
        class, 1 the restricted one."""
        return len(self.values[-1]) - 1

    def value(self, stage: int, best: Optional[int], mset: Sequence[int]) -> float:
        size, row, col = self.locate(stage, best, mset)
        return float(self.values[stage - 1][size][row, col])

    def locate(self, stage: int, best: Optional[int], mset: Sequence[int]) -> tuple[int, int, int]:
        """The (size, row, column) of a state, column -1 where ``best`` is None
        (nothing probed); ValueError naming a field that no state here holds,
        UnreachableStateError at a real bin of a level of the none row alone."""
        g = _sorted_multiset(mset)
        if not (_is_index(stage) and 1 <= stage <= self.n_stages):
            raise ValueError(f"stage {stage!r} is not an integer in 1..{self.n_stages}")
        if len(g) > stage:
            raise ValueError(f"multiset of size {len(g)} cannot occur at stage {stage}")
        if len(g) > self.capacity:
            raise ValueError(f"multiset {g} holds {len(g)} unprobed relays, but these tables keep "
                             f"at most {self.capacity} unprobed relays awake")
        if best is not None and not (_is_index(best) and 0 <= best < self.n_bins):
            raise ValueError(f"best-reward index {best!r} is not a bin of 0..{self.n_bins - 1}")
        row = self.space.row(g)  # a ValueError naming g at an unknown or bool type
        if best is None:
            return len(g), row, -1
        if self.values[stage - 1][len(g)].shape[1] == 1:
            raise UnreachableStateError(
                f"state (stage {stage}, multiset {g}, bin {best}) is never reached: "
                f"{len(g)} unprobed relays at stage {stage} mean that nothing has been probed")
        return len(g), row, best


@lru_cache(maxsize=8)
def _ranked_members(space: MultisetSpace, s: int, rank: tuple[int, ...]) -> tuple:
    """(types, rests) of the size-s sets: types[g, p] is the p-th member of the
    set of row g, members taken from the lowest ``rank`` up, and rests[g, p]
    the row of that set without it, in the smallest dtype that holds a row
    index."""
    members = space.members[s]
    order = np.argsort(np.asarray(rank)[members], axis=1, kind="stable")
    types = np.take_along_axis(members, order, axis=1)
    # the row of each set less its p-th smallest member, then in rank order
    rests = np.empty(members.shape, dtype=np.min_scalar_type(len(space.members[s - 1])))
    for p in range(s):
        rests[:, p] = space.ranks([members[:, j] for j in range(s) if j != p])
    rests = np.take_along_axis(rests, order, axis=1)
    types.flags.writeable = rests.flags.writeable = False  # shared by every caller
    return types, rests


def _states_per_stage(n_types: int, n_bins: int, n_stages: int, capacity: int) -> list[int]:
    """Memo entries per stage k: all multisets of size 0..m, m = min(k,
    capacity), times the best-reward axis, which by the hockey-stick identity
    is (n_bins+1) * C(n_types+m, m); less the n_bins real columns of the size-m
    level where ``_none_column_only`` says so."""
    capacity = min(capacity, n_stages)
    counts = []
    for k in range(1, n_stages + 1):
        m = min(k, capacity)
        count = (n_bins + 1) * math.comb(n_types + m, m)
        if _none_column_only(k, m, capacity):
            count -= n_bins * math.comb(n_types + m - 1, m)
        counts.append(count)
    return counts


@lru_cache(maxsize=8)
def _projected_states(n_types: int, n_bins: int, n_stages: int, capacity: int) -> int:
    """Memo entries of the capacity-c levels, cached because every cell of a
    sweep asks again, and at a long horizon the big binomials take 0.2 s."""
    return sum(_states_per_stage(n_types, n_bins, n_stages, capacity))


def check_state_budget(n_types: int, n_bins: int, n_stages: int, capacity: int) -> None:
    """BudgetExceededError unless the memo entries of the capacity-c levels
    fit DEFAULT_STATE_BUDGET."""
    projected = _projected_states(n_types, n_bins, n_stages, capacity)
    if projected > DEFAULT_STATE_BUDGET:
        raise BudgetExceededError(projected, DEFAULT_STATE_BUDGET)


def projected_state_count(n_types: int, n_bins: int, n_stages: int) -> int:
    """Memo entries of the complete-class state space, reachable states only."""
    return _projected_states(n_types, n_bins, n_stages, n_stages)


def _probe_costs(smaller: np.ndarray, pmf: np.ndarray, cdf: np.ndarray, surcharge: float,
                 types: np.ndarray, rests: np.ndarray,
                 none_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Best probe cost and its action code, PROBE + t, of every size-s state.

    Probing slot p of the set of row g costs surcharge + E_t[V_f(max{b, R})]
    with t = types[g, p] and f = rests[g, p], a row of the ``smaller`` level
    (values over the real bins).  A running minimum over the slots with
    strict ``<`` keeps the first of equal costs, the stochastically largest
    member, and never takes a NaN; where no slot wins the code is NO_ACTION.

    The expectations of every (type, smaller row) pair, a plane, run from the
    top bin down in chunks of bins holding at most BATCH_ELEMENTS entries,
    carrying the reverse cumulative sum of ``expect_over_max`` across chunks.
    Every running sum adds one bin's term to the sum over the bins above it,
    in that kernel's sequential order, so the costs are bitwise its own.  How
    a chunk adds them follows its shape: a chunk of no more bins than its
    plane has pairs (the wide planes of the larger levels, a few bins each)
    adds one whole plane per bin, and a chunk of more bins than pairs (the
    narrow planes of the small levels, all bins at once) runs ``np.cumsum``
    along its bins, whose per-pair loop is then long.  With ``none_only``
    just the none row is settled, from the carried sum alone, accumulated
    bin by bin in one plane, and returned as one column.
    """
    n_types, n_bins = pmf.shape
    n_rows, n_slots = types.shape
    probe = np.empty((n_rows, 1 if none_only else n_bins + 1))
    code = np.empty(probe.shape, dtype=action_dtype(n_types))
    # pairs[p, g]: the (type, smaller row) pair of slot p of row g
    pairs = np.ascontiguousarray((types * len(smaller) + rests).T)
    slot_codes = np.ascontiguousarray(types.T + PROBE, dtype=code.dtype)

    def settle(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The best cost and its code at every (bin of the chunk, row), from
        costs[j, pair]."""
        costs = costs.reshape(len(costs), -1)
        best = np.full((len(costs), n_rows), np.inf)
        pick = np.full(best.shape, NO_ACTION, dtype=code.dtype)
        for p in range(n_slots):
            cost = np.take(costs, pairs[p], axis=1)
            better = np.less(cost, best)
            np.copyto(best, cost, where=better)
            np.copyto(pick, slot_codes[p], where=better)
        return best, pick

    # bins lead, so that the running sums add whole (type, row) planes; all
    # three row-major, so that the products are too and each plane is one
    # contiguous block
    vals_by_bin = np.ascontiguousarray(smaller.T)[:, None, :]
    pmf_by_bin, cdf_by_bin = (np.ascontiguousarray(m.T)[:, :, None] for m in (pmf, cdf))
    # the sum of pmf * V over the bins above the chunk; -0.0 adds exactly
    carry = np.full((n_types, len(smaller)), -0.0)
    if none_only:
        term = np.empty_like(carry)
        for b in range(n_bins - 1, -1, -1):
            carry += np.multiply(pmf_by_bin[b], vals_by_bin[b], out=term)
    else:
        width = max(1, BATCH_ELEMENTS // carry.size)
        # settled chunks wait until they span a block of bins, which is
        # written into the row-major tables at once (a bin at a time touches
        # a cache line per row)
        block = max(1, BATCH_ELEMENTS // n_rows)
        pending, written = [], n_bins  # the bins from `written` up are in the tables
        for hi in range(n_bins, 0, -width):
            lo = max(0, hi - width)
            vals = vals_by_bin[lo:hi]
            # sums[j]: the sum over bins >= lo + j, added from the top bin down
            sums = pmf_by_bin[lo:hi] * vals
            sums[-1] += carry
            if carry.size >= hi - lo:  # no more bins than pairs: plane by plane
                for j in range(hi - lo - 2, -1, -1):
                    np.add(sums[j + 1], sums[j], out=sums[j])
            else:  # more bins than pairs: one long loop per pair
                sums = np.cumsum(sums[::-1], axis=0)[::-1]
            costs = cdf_by_bin[lo:hi] * vals
            costs[:-1] += sums[1:]
            costs[-1] += carry
            costs += surcharge
            pending.insert(0, settle(costs))
            if written - lo >= block or lo == 0:
                probe[:, lo:written] = np.concatenate([best for best, _ in pending]).T
                code[:, lo:written] = np.concatenate([pick for _, pick in pending]).T
                pending, written = [], lo
            carry = sums[0]
    carry += surcharge  # in place: nothing reads the sums after this
    best, pick = settle(carry[None])  # the none row: max{none, R} = R
    probe[:, -1], code[:, -1] = best[0], pick[0]
    return probe, code


def _overflow_rule(space: MultisetSpace, level: np.ndarray, capacity: int,
                   rank: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The overflow rule on the columns of a solved full level (size c =
    ``capacity``) that wake-ups enter: when a relay of type t wakes beside
    the awake set of row g at best reward b, the newcomer is dropped unless
    dropping a member leaves a strictly smaller value, and of members that
    tie, the one of lowest ``rank`` is.  Returns kept[t, g, b], the row of the
    set kept, and the sum over t of its value in type order."""
    dtype = np.min_scalar_type(len(level))
    # swaps[t, g, p]: the row of g with its p-th member, taken from the lowest
    # rank up, replaced by t
    rests = _ranked_members(space, capacity, rank)[1]
    swaps = space.plus[capacity - 1][:, rests].astype(dtype)
    own = np.arange(len(level), dtype=dtype)[:, None]
    kept = np.empty(swaps.shape[:2] + level.shape[1:], dtype=dtype)
    total = np.zeros(level.shape)
    # a batch of newcomer types at a time, to keep temporaries small
    step = max(1, OVERFLOW_ELEMENTS // level.size)
    for first in range(0, len(kept), step):
        # the best swap and its row, a later member winning only if strictly smaller
        batch = swaps[first:first + step]
        best, rows = np.take(level, batch[..., 0], axis=0), batch[..., :1]
        for p in range(1, capacity):
            swapped = np.take(level, batch[..., p], axis=0)
            better = np.less(swapped, best)
            np.copyto(best, swapped, where=better)
            rows = np.where(better, batch[..., p:p + 1], rows)
        kept[first:first + step] = np.where(best < level, rows, own)
        # the kept set's value, but for the sign of a zero, which a sum
        # started from +0.0 never shows
        for value in np.minimum(best, level, out=best):
            total += value
    return kept, total


# overflow and invalid values surface in the check of each solved level
@np.errstate(over="ignore", invalid="ignore")
def _induction(family: OrderedFamily, config: ModelConfig, capacity: int,
               keep_costs: bool = False) -> tuple:
    """Solve the recursion of the policy class of the given capacity.

    Stages run from N down to 1 and multiset sizes from 0 up to min(k, c)
    within each stage.  Among probe targets, ties break toward the
    stochastically largest member; between stop, the best probe and
    continue, ``resolve_actions`` decides.  Each full level (size c) past
    stage c goes to ``_overflow_rule`` once solved, on the columns of the
    full level a stage earlier, for its kept rows and that level's continue
    term.  A level that
    ``_none_column_only`` names is solved at its none row alone: its probe
    cost is the kernel's carried none-row sum, and its continue term gathers
    the next stage's level of that kind, or the overflow sum, which is
    built on that column alone.  Returns the tables and,
    with ``keep_costs``, the probe and the continue costs of every level,
    probes[k-1][s] and conts[k-1][s] (else None, None).
    """
    config.validate()
    n_bins = family.n_bins
    n_types = len(family)
    n_stages = config.n_relays
    capacity = min(capacity, n_stages)  # as ``CompleteTables.capacity`` reads it
    eta, delta, tau = config.eta, config.delta, config.tau

    check_state_budget(n_types, n_bins, n_stages, capacity)
    space = multiset_space(n_types, capacity)
    pmf, cdf = family.pmf_matrix, family.cdf_matrix
    stop = np.append(-eta * reward_grid(n_bins), np.inf)
    rank = tuple(family.rank)

    values: list[list[np.ndarray]] = [[] for _ in range(n_stages)]
    actions: list[list[np.ndarray]] = [[] for _ in range(n_stages)]
    kept: list[Optional[np.ndarray]] = [None] * n_stages
    overflow = None  # the summed kept values of the full level solved last
    probes = [[] for _ in range(n_stages)] if keep_costs else None
    conts = [[] for _ in range(n_stages)] if keep_costs else None

    for k in range(n_stages, 0, -1):
        i = k - 1
        for s in range(min(k, capacity) + 1):
            n_s = len(space.members[s])
            none_only = _none_column_only(k, s, capacity)
            cols = slice(n_bins, None) if none_only else slice(None)  # the columns solved
            if s >= 1:
                probe, code = _probe_costs(values[i][s - 1][:, :n_bins], pmf, cdf, eta * delta,
                                           *_ranked_members(space, s, rank), none_only)
            else:
                probe = np.full((n_s, n_bins + 1), np.inf)
                code = np.broadcast_to(np.array(NO_ACTION, dtype=action_dtype(n_types)),
                                       probe.shape)

            cont = np.inf
            if k < n_stages:
                if s < capacity:
                    # the next level holds the same columns: the none row
                    # alone exactly when this one does
                    cont = np.zeros(probe.shape)
                    for t in range(n_types):
                        cont += values[i + 1][s + 1][space.plus[s][t]]
                else:
                    # built on the columns this level holds
                    cont = overflow
                cont /= n_types
                cont += tau

            # in row batches, so that the tie rule's float temporaries stay small
            act = np.empty(probe.shape, dtype=code.dtype)
            step = max(1, BATCH_ELEMENTS // probe.shape[1])
            for first in range(0, n_s, step):
                rows = slice(first, first + step)
                act[rows] = resolve_actions(stop[cols], probe[rows], code[rows],
                                            cont[rows] if k < n_stages else cont)
            if keep_costs:
                probes[i].append(probe.copy())
                conts[i].append(np.broadcast_to(cont, probe.shape))
            # Computed in place of the probe costs.  On equal values
            # np.minimum returns its second argument, so a -0.0 stop cost
            # outranks a +0.0 probe or continue cost, as in the tie rule.
            val = np.minimum(probe, stop[cols], out=probe)
            np.minimum(cont, val, out=val)

            # checked as soon as solved, before any later level reads it
            bad = np.isnan(val) | (np.isinf(val) & (act != NO_ACTION))
            if bad.any():
                row, b = np.argwhere(bad)[0]
                raise NonFiniteValueError(
                    f"value {val[row, b]} at stage {k}, multiset size {s}, row {row} "
                    f"{tuple(space.members[s][row].tolist())}, "
                    f"bin {range(n_bins + 1)[cols][b]}: the config overflows float arithmetic")
            values[i].append(val)
            actions[i].append(act)
            if s == capacity < k:
                # a wake-up overflows into stage k from the full level a
                # stage earlier, which at k = c + 1 holds its none row alone
                held = val[:, -1:] if _none_column_only(k - 1, capacity, capacity) else val
                kept[i], overflow = _overflow_rule(space, held, capacity, rank)

    tables = CompleteTables(config=config, family=family, space=space, values=values,
                           actions=actions, kept=kept)
    return tables, probes, conts


def solve_complete(family: OrderedFamily, config: ModelConfig) -> CompleteTables:
    """Solve the complete-class recursion exactly for all stages: the shared
    induction at capacity N, where no wake-up overflows."""
    return _induction(family, config, config.n_relays)[0]


def initial_value(tables: CompleteTables) -> float:
    """Expected optimal cost from the first wake-up: the uniform average of
    J_1(none, {F_l})."""
    singles = tables.values[0][1][:, -1]  # the none row
    return float(singles.mean())


def act_complete(
    state: tuple[int, Optional[int], Sequence[int]], tables: CompleteTables
) -> Decision:
    """Stored argmin action at (stage, best reward, unprobed multiset);
    UnreachableStateError at a state that no policy reaches and the tables
    do not hold."""
    stage, best, mset = state
    size, row, col = tables.locate(stage, best, mset)
    code = tables.actions[stage - 1][size][row, col]
    decision = decision_of(code)
    if decision is None:
        raise IllegalActionError(f"no legal action at stage {stage} with best={best}, multiset="
                                 f"{tuple(tables.space.members[size][row].tolist())}")
    return decision


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
    """Exact combinatorial counts of the reachable states both solvers store:
    the complete class grows with the number of multisets (stars and bars),
    the restricted class (capacity 1) is linear in the family size and flat
    across stages."""
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
    one-step-look-ahead rule.  Inequalities are checked at STRUCTURE_TOL,
    over the reachable states the tables hold.  ValueError on tables of a
    capacity below N, which the checks do not cover.
    """
    if tables.capacity < tables.n_stages:
        raise ValueError(
            f"the conjecture checks cover the complete class only: these tables keep at most "
            f"{tables.capacity} unprobed relays awake, below N = {tables.n_stages}")
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
            probing = tables.actions[k - 1][s] >= PROBE
            none_only = probing.shape[1] == 1
            report["probing_states_checked"] += int(probing.sum())
            for first in range(0, len(types), step):
                rows = slice(first, first + step)
                largest, rest = types[rows, 0], rests[rows, 0]
                if none_only:  # the none row: max{none, R} = R
                    expected = (pmf[largest] * smaller[rest]).sum(axis=1, keepdims=True)
                else:
                    expected = expect_over_max(smaller[rest], pmf[largest], cdf[largest])
                cost = eta * delta + expected
                report["probe_largest_violations"] += int(
                    (probing[rows] & (cost > tables.values[k - 1][s][rows] + STRUCTURE_TOL)).sum()
                )

    # stage independence of stopping decisions over (best, multiset) slices,
    # on stages where continuing is available: each stage against the last,
    # whose level holds every column, on the columns it holds
    for s in range(n_stages - 1):
        stages = [k for k in range(max(s, 1), n_stages)]
        if len(stages) < 2:
            continue
        masks = [tables.actions[k - 1][s] == STOP for k in stages]
        reference = masks.pop()
        report["stopping_slices_checked"] += reference.size
        for m in masks:
            report["stage_independence_mismatches"] += int(
                (reference[:, -m.shape[1]:] != m).sum())

    # value monotone in best reward; enlargement cannot increase the value,
    # checked on the columns the larger set's level holds
    for k in range(1, n_stages + 1):
        for s in range(k + 1):
            val = tables.values[k - 1][s]
            report["value_monotone_violations"] += int(
                (np.diff(val[:, :-1], axis=1) > STRUCTURE_TOL).sum() + np.isnan(val).sum()
            )
            if s + 1 <= k:
                larger = tables.values[k - 1][s + 1]
                bound = val[:, -larger.shape[1]:] + STRUCTURE_TOL
                for t in range(len(family)):
                    bigger = larger[space.plus[s][t]]
                    report["enlargement_violations"] += int((bigger > bound).sum())

    # stage-N stopping matches the one-step-look-ahead rule
    stop_real = -eta * grid
    one_step = eta * delta - eta * expect_over_max(grid, pmf, cdf)  # (L, n_bins+1)
    for s in range(1, n_stages + 1):
        types = ranked[s][0]
        dp_stop = tables.actions[n_stages - 1][s][:, :-1] == STOP
        if dp_stop.shape[1] == 0:  # a level of the none row alone: no reward to stop on
            continue
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
    """Export of the actions and probe targets only, not the values, to bound
    size, in the export's numbering: actions stop 0, probe 1, continue 2 and
    none -1, and the probed type in ``probe_targets``, -1 elsewhere.  Rows of
    a level of the none row alone hold one column."""
    return {
        "n_stages": tables.n_stages,
        "n_bins": tables.n_bins,
        "stages": [
            {
                "stage": k,
                "actions": [np.select([a >= PROBE, a == CONTINUE], [1, 2], a).tolist()
                            for a in levels],
                "probe_targets": [np.where(a >= PROBE, a - PROBE, -1).tolist() for a in levels],
            }
            for k, levels in enumerate(tables.actions, start=1)
        ],
    }

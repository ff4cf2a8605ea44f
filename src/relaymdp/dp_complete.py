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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from ._kernels import (CONTINUE, NO_ACTION, PROBE, STOP, STRUCTURE_TOL, TIE_TOL, Decision,
                       IllegalActionError, action_dtype, dead_bins, decision_of, expect_over_max,
                       resolve_actions, row_batches)
from .model import (BudgetExceededError, ModelConfig, OrderedFamily, _shown,  # noqa: F401
                    check_budget, reward_grid, whole_number)

# Float entries of one batch: a chunk of bins of the probe kernel's (type,
# smaller row) expectations, where small levels take all bins at once and the
# largest (which set the peak memory) one bin at a time; and, cut by
# ``row_batches``, a batch of a level's rows in the tie rule, of newcomer
# types in the overflow rule (at capacity 1, 20 types take one batch up to
# 654 bins), in the forward sweep's one pass per level, of probe targets or
# reached rows in its probe move, of newcomer types in its overflow continue,
# and of rows in the conjecture report, sized there for eight temporaries.
BATCH_ELEMENTS = 1 << 18


class NonFiniteValueError(ValueError):
    """A solved value is NaN, or infinite in a state with a legal action."""


class UnreachableStateError(ValueError):
    """A state no policy reaches, whose entry the tables do not hold."""


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

    def row(self, mset: Sequence[int]) -> int:
        """The row of a multiset, its members in any order; ValueError if the
        space lacks it."""
        g = sorted(whole_number(t, "multiset member", 0, self.n_types) for t in mset)
        if len(g) > self.max_size:
            raise ValueError(f"multiset {tuple(g)} holds more than the {self.max_size} "
                             "members of this space")
        return int(self.ranks(g))


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
        if not isinstance(mset, Iterable):
            raise ValueError(f"multiset {_shown(mset)} is not a collection of integer "
                             "location types")
        g = tuple(mset)
        stage = whole_number(stage, "stage", 1, self.n_stages + 1)
        if len(g) > stage:
            raise ValueError(f"multiset of size {len(g)} cannot occur at stage {stage}")
        if len(g) > self.capacity:
            raise ValueError(f"multiset of size {len(g)}: these tables keep at most "
                             f"{self.capacity} unprobed relays awake")
        best = None if best is None else whole_number(best, "best-reward index", 0, self.n_bins)
        row = self.space.row(g)  # a ValueError at a member that is not a type
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


def projected_state_count(n_types: int, n_bins: int, n_stages: int) -> int:
    """Memo entries of the complete-class state space, reachable states only."""
    return _projected_states(n_types, n_bins, n_stages, n_stages)


class _ProbePlan(NamedTuple):
    """What the probe kernel reads of the sets of one size s, the same at
    every stage: the laws, bins leading, and the sets' rows in order of their
    dead bins, the first real bin from which every member is dead, the
    latest first, so that the rows live at a bin are a prefix.  The plane of
    (type, column) pairs that the kernel sums holds the stage's bare row, the
    size-0 set, in column 0 and the smaller rows ever live (at bin 0) in
    columns 1..stride - 1, in that order too; a smaller row dead at every
    bin reads column 0."""

    pmf_by_bin: np.ndarray  # (n_bins, n_types, 1), and so the cdf
    cdf_by_bin: np.ndarray
    rows: Optional[np.ndarray]  # the rows in that order; None where it is theirs
    row_dead: np.ndarray  # the dead bin of each row, in the rows' own order
    dead: np.ndarray  # their dead bins, in that order
    live: np.ndarray  # live[b]: how many rows are live at bin b
    codes: np.ndarray  # (s, rows), in that order: PROBE + the type of each slot
    columns: np.ndarray  # (s, rows): the plane column of the set without that slot
    stride: int  # the plane's columns
    rests: Optional[np.ndarray]  # the smaller rows of columns 1..; None where they are the first
    rests_live: np.ndarray  # rests_live[b]: how many of those are live at bin b
    bins: np.ndarray  # (n_bins, 1): the real bins, in the dtype of the dead bins


def _probe_plan(family: OrderedFamily, space: MultisetSpace, rank: tuple[int, ...],
                dead_from: np.ndarray, smaller: Optional[_ProbePlan]) -> _ProbePlan:
    """The probe kernel's plan for the sets one member larger than those of
    ``smaller``, the plan of the next smaller size (None before size 1),
    from ``dead_from``, the first real bin from which each type is dead
    (``dead_bins``).  The size-0 set is dead at every bin: its bare row has
    no member to probe."""
    n_types, n_bins = family.pmf_matrix.shape
    if smaller is None:
        s, bins, order = 1, np.arange(n_bins, dtype=dead_from.dtype)[:, None], np.zeros(1, np.intp)
        dead, live = np.zeros(1, dtype=dead_from.dtype), np.zeros(n_bins, dtype=np.intp)
    else:
        s, bins, order = len(smaller.codes) + 1, smaller.bins, smaller.rows
        dead, live = smaller.row_dead, smaller.live
        if order is None:
            order = np.arange(len(dead))
    types, rests = _ranked_members(space, s, rank)
    ever = int(live[0])  # the smaller rows live at bin 0, the plane's columns 1..
    column = np.zeros(len(dead), dtype=np.min_scalar_type(ever))
    if ever:
        column[order[:ever]] = np.arange(1, ever + 1)
    row_dead = np.maximum(dead_from[types[:, 0]], dead[rests[:, 0]])
    order = np.argsort(n_bins - row_dead, kind="stable")
    ranked_dead = row_dead[order]
    codes = np.add(types.T, PROBE, dtype=action_dtype(n_types), order="C")
    columns = np.take(column, rests.T)
    # equal dead bins leave the stable sort's rows in place
    rows = None if ranked_dead[0] == ranked_dead[-1] else order
    if rows is not None:
        codes, columns = (np.take(a, rows, axis=1) for a in (codes, columns))
    return _ProbePlan(*family.laws_by_bin, rows, row_dead, ranked_dead,
                      len(order) - np.searchsorted(ranked_dead[::-1], bins[:, 0], side="right"),
                      codes, columns, ever + 1, None if smaller is None else smaller.rows, live,
                      bins)


def _probe_costs(smaller: np.ndarray, bare: np.ndarray, surcharge: float, plan: _ProbePlan,
                 none_only: bool) -> tuple[np.ndarray, np.ndarray]:
    """Best probe cost and its action code, PROBE + t, of every size-s state.

    Probing slot p of a set costs surcharge + E_t[V_f(max{b, R})], t its
    type and f the set without it, a row of the ``smaller`` level (values
    over the real bins); a set's slots run from the lowest rank up.  A
    running minimum over the slots with strict ``<`` keeps the first of
    equal costs, the stochastically largest member, and never takes a NaN;
    where no slot wins the code is NO_ACTION.

    A state whose members are all dead (``_ProbePlan``) costs +inf with
    NO_ACTION, unscanned: none of its probes can win (``dead_bins``).  The
    none row is never pruned.  From its dead bin up a smaller row holds the
    values of ``bare``, the stage's size-0 row, bitwise.

    The expectations of every (type, column) pair of the plan's plane run
    from the top bin down in chunks of bins holding at most BATCH_ELEMENTS
    entries, carrying the reverse cumulative sum of ``expect_over_max``
    across chunks.  A chunk sums the bare row and the smaller rows live at
    its lowest bin, a prefix of the plane's columns, and the slots of the
    rest read the bare row's column; a smaller row that becomes live takes
    its carry from the bare row's.  A chunk gathers its own bins of those
    rows, transposed, bins leading, so that the kernel holds no transposed
    copy of the whole smaller level.  Every running sum adds one bin's term
    to the sum over the bins above it, in that kernel's sequential order, so
    the costs are bitwise its own.  How a chunk adds them follows its shape:
    a chunk of no more bins than its plane has pairs (the wide planes of the
    larger levels, a few bins each) adds one whole plane per bin, and a
    chunk of more bins than pairs (the narrow planes of the small levels,
    all bins at once) runs ``np.cumsum`` along its bins, whose per-pair loop
    is then long.  Each chunk settles the rows live at its lowest bin, puts
    back +inf and NO_ACTION from each row's dead bin up, and writes them
    straight into the tables.  With ``none_only`` the chunks run the same
    sums but settle no real bin: the none row alone is settled, from the
    carried sum, and returned as one column.
    """
    pmf_by_bin, cdf_by_bin = plan.pmf_by_bin, plan.cdf_by_bin
    n_bins, n_types = pmf_by_bin.shape[:2]
    n_rows = plan.codes.shape[1]
    probe = np.empty((n_rows, 1 if none_only else n_bins + 1))
    code = np.empty(probe.shape, dtype=plan.codes.dtype)
    if not none_only and plan.dead[-1] < n_bins:  # what the states whose members are all dead keep
        probe.fill(np.inf)
        code.fill(NO_ACTION)
    # the sum of pmf * V over the bins above the chunk, of its own, so that
    # no chunk's sums outlive it; -0.0 adds exactly
    carry = np.full((n_types, plan.stride), -0.0)
    width = max(1, BATCH_ELEMENTS // carry.size)
    # one chunk's values, sums and costs, each chunk's plane contiguous in them
    vals_at = np.empty(min(width, n_bins) * plan.stride)
    sums_at = np.empty(min(width, n_bins) * carry.size)
    costs_at = None if none_only else np.empty(sums_at.shape)
    carried, costs = 0, None  # smaller rows carried
    for hi in range(n_bins, 0, -width):
        lo = max(0, hi - width)
        live = int(plan.rests_live[lo])
        if live > carried:  # rows that become live carry the bare row's sum
            carry[:, carried + 1:live + 1] = carry[:, :1]
            carried = live
        w, cols = hi - lo, live + 1
        vals, above = vals_at[:w * cols].reshape(w, 1, cols), carry[:, :cols]
        rests = slice(live) if plan.rests is None else plan.rests[:live]
        vals[:, 0, 0] = bare[lo:hi]
        vals[:, 0, 1:] = smaller[rests, lo:hi].T
        # sums[j] for j >= 1: the sum over bins >= lo + j, added from the top
        # bin down; sums[0] the term of bin lo, whose sum goes to the carry
        sums = np.multiply(pmf_by_bin[lo:hi], vals,
                           out=sums_at[:w * n_types * cols].reshape(w, n_types, cols))
        by_plane = n_types * cols >= w
        if by_plane:  # no more bins than pairs: plane by plane
            if w > 1:
                sums[-1] += above
            for j in range(w - 2, 0, -1):
                np.add(sums[j + 1], sums[j], out=sums[j])
        else:  # more bins than pairs: one long loop per pair
            sums[-1] += above
            np.cumsum(sums[::-1], axis=0, out=sums[::-1])
        n_live = 0 if none_only else int(plan.live[lo])  # rows live at lo
        if n_live:
            costs = np.multiply(cdf_by_bin[lo:hi], vals,
                                out=costs_at[:sums.size].reshape(sums.shape))
            # plus the sum over the bins above each: the next bin's sum, or
            # above the chunk the carry
            costs[:-1] += sums[1:]
            costs[-1] += above
            costs += surcharge
            best, pick = _settle(costs, _slot_pairs(plan, n_live, live), plan.codes[:, :n_live])
            if plan.live[hi - 1] < n_live:  # rows that die inside the chunk
                dying = plan.dead[:n_live] <= plan.bins[lo:hi]
                np.putmask(best, dying, np.inf)
                np.putmask(pick, dying, NO_ACTION)
            rows = slice(n_live) if plan.rows is None else plan.rows[:n_live]
            probe[rows, lo:hi], code[rows, lo:hi] = best.T, pick.T
        if by_plane:
            np.add(sums[1] if w > 1 else above, sums[0], out=above)
        else:
            above[...] = sums[0]
    del vals_at, sums_at, costs_at, vals, sums, costs  # the chunk buffers and their views
    # the none row: max{none, R} = R, every smaller row ever live is live,
    # and no row is pruned
    carry += surcharge  # in place: nothing reads the sums after this
    best, pick = _settle(carry[None], _slot_pairs(plan, n_rows, plan.stride - 1), plan.codes)
    rows = slice(None) if plan.rows is None else plan.rows
    probe[rows, -1], code[rows, -1] = best[0], pick[0]
    return probe, code


def _slot_pairs(plan: _ProbePlan, n_live: int, live: int) -> Iterator[np.ndarray]:
    """The plane entries of the plan's first ``n_live`` rows, slot by slot
    into one buffer, in a plane of the bare row and the first ``live``
    smaller rows: the rest of a slot whose set without it is not among them
    reads the bare row's column."""
    out = np.empty(n_live, dtype=np.intp)
    for codes, cols in zip(plan.codes[:, :n_live], plan.columns[:, :n_live]):
        np.multiply(codes, live + 1, out=out, dtype=np.intp)
        out -= PROBE * (live + 1)
        out += cols if live + 1 == plan.stride else np.where(cols <= live, cols, 0)
        yield out


def _settle(costs: np.ndarray, pairs: Iterable[np.ndarray],
            codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The best probe cost and its code at every (bin, row), from costs[j,
    pair] over the bins j: slot p of the rows reads the entries pairs[p] and
    has the codes codes[p].  Each slot's entries are read before the next
    slot's are drawn, so ``pairs`` may yield one buffer each time.  A running
    minimum over the slots with strict ``<`` keeps the first of equal costs
    and never takes a NaN; where no slot wins the code is NO_ACTION."""
    costs = costs.reshape(len(costs), -1)
    slots = zip(pairs, codes)
    index, slot_codes = next(slots)
    # the first slot's cost where it is below +inf, which a NaN is not
    best = np.fmin(np.take(costs, index, axis=1), np.inf)
    pick = np.where(best < np.inf, slot_codes, NO_ACTION)
    for index, slot_codes in slots:
        cost = np.take(costs, index, axis=1)
        better = np.less(cost, best)
        np.copyto(best, cost, where=better)
        np.copyto(pick, slot_codes, where=better)
    return best, pick


def _overflow_swaps(space: MultisetSpace, capacity: int,
                    rank: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(swaps, own) of the full sets, size c = ``capacity``, which every
    stage's ``_overflow_rule`` reads, built once per solve: swaps[t, g, p] is
    the row of g with its p-th member, taken from the lowest ``rank`` up,
    replaced by t, and own[g, 0] is g, in the smallest dtype that holds a
    row."""
    rests = _ranked_members(space, capacity, rank)[1]
    dtype = np.min_scalar_type(len(rests))
    swaps = space.plus[capacity - 1][:, rests].astype(dtype)
    return swaps, np.arange(len(rests), dtype=dtype)[:, None]


def _overflow_rule(level: np.ndarray, swaps: np.ndarray,
                   own: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The overflow rule on the columns of a solved full level that wake-ups
    enter, with the full sets' ``_overflow_swaps``: when a relay of type t
    wakes beside the awake set of row g at best reward b, the newcomer is
    dropped unless dropping a member leaves a strictly smaller value, and of
    members that tie, the one of lowest rank is.  Returns kept[t, g, b], the
    row of the set kept, and the sum over t of its value in type order."""
    kept = np.empty(swaps.shape[:2] + level.shape[1:], dtype=swaps.dtype)
    total = np.zeros(level.shape)
    # a batch of newcomer types at a time, to keep temporaries small: at
    # capacity 1 all T types fit one batch while T * T * (n_bins + 1) does
    for newcomers in row_batches(len(kept), level.size, BATCH_ELEMENTS):
        # the best swap and its row, a later member winning only if strictly smaller
        batch = swaps[newcomers]
        best, rows = np.take(level, batch[..., 0], axis=0), batch[..., :1]
        for p in range(1, swaps.shape[2]):
            swapped = np.take(level, batch[..., p], axis=0)
            better = np.less(swapped, best)
            np.copyto(best, swapped, where=better)
            rows = np.where(better, batch[..., p:p + 1], rows)
        # np.where(best < level, rows, own), written in place
        np.copyto(kept[newcomers], own)
        np.copyto(kept[newcomers], rows, where=best < level)
        # the kept set's value, but for the sign of a zero, which a sum
        # started from +0.0 never shows
        for value in np.minimum(best, level, out=best):
            total += value
    return kept, total


# overflow and invalid values surface in the check of each solved level
@np.errstate(over="ignore", invalid="ignore")
def _induction(family: OrderedFamily, config: ModelConfig, capacity: int) -> CompleteTables:
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
    built on that column alone.  The probe kernel reads one plan per set
    size, built once from the first real bin from which each type is dead
    (``dead_bins``), and prices no state whose members are all dead.
    """
    config.validate()
    n_bins = family.n_bins
    n_types = len(family)
    n_stages = config.n_relays
    capacity = min(capacity, n_stages)  # as ``CompleteTables.capacity`` reads it
    eta, delta, tau = config.eta, config.delta, config.tau

    entries = _projected_states(n_types, n_bins, n_stages, capacity)
    if capacity < n_stages:  # and the kept rows at stages c+1..N (``CompleteTables``)
        cols = (n_stages - capacity) * (n_bins + 1)
        cols -= n_bins * _none_column_only(capacity, capacity, capacity)
        entries += n_types * math.comb(n_types + capacity - 1, capacity) * cols
    check_budget(entries, f"the capacity-{capacity} tables over {n_types} types, {n_bins} "
                          f"bins and {n_stages} stages")
    space = multiset_space(n_types, capacity)
    stop = np.append(-eta * reward_grid(n_bins), np.inf)
    rank = tuple(family.rank)
    # the probe kernel's plan of each size, built as the sizes first come
    plans: list[Optional[_ProbePlan]] = [None]
    dead_from = dead_bins(family.excess_bound, eta, delta, max(1.0, eta, n_stages * tau))

    values: list[list[np.ndarray]] = [[] for _ in range(n_stages)]
    actions: list[list[np.ndarray]] = [[] for _ in range(n_stages)]
    kept: list[Optional[np.ndarray]] = [None] * n_stages
    overflow = None  # the summed kept values of the full level solved last
    swaps = _overflow_swaps(space, capacity, rank) if capacity < n_stages else None

    for k in range(n_stages, 0, -1):
        i = k - 1
        for s in range(min(k, capacity) + 1):
            n_s = len(space.members[s])
            none_only = _none_column_only(k, s, capacity)
            cols = slice(n_bins, None) if none_only else slice(None)  # the columns solved
            if s >= 1:
                if s == len(plans):
                    plans.append(_probe_plan(family, space, rank, dead_from, plans[-1]))
                probe, code = _probe_costs(values[i][s - 1][:, :n_bins], values[i][0][0, :n_bins],
                                           eta * delta, plans[s], none_only)
            else:
                probe = np.full((n_s, n_bins + 1), np.inf)
                code = np.broadcast_to(np.array(NO_ACTION, dtype=action_dtype(n_types)),
                                       probe.shape)

            cont = np.inf
            if k < n_stages:
                if s < capacity:
                    # the next level holds the same columns: the none row
                    # alone exactly when this one does
                    cont, following = np.zeros(probe.shape), values[i + 1][s + 1]
                    for t in range(n_types):  # the row of {t} is t: no gather
                        cont += following[t] if s == 0 else following[space.plus[s][t]]
                else:
                    # built on the columns this level holds
                    cont = overflow
                cont /= n_types
                cont += tau

            # in row batches, so that the tie rule's float temporaries stay small
            act = np.empty(probe.shape, dtype=code.dtype)
            for rows in row_batches(n_s, probe.shape[1], BATCH_ELEMENTS):
                act[rows] = resolve_actions(stop[cols], probe[rows], code[rows],
                                            cont[rows] if k < n_stages else cont)
            # Computed in place of the probe costs.  On equal values
            # np.minimum returns its second argument, so a -0.0 stop cost
            # outranks a +0.0 probe or continue cost, as in the tie rule.
            val = np.minimum(probe, stop[cols], out=probe)
            np.minimum(cont, val, out=val)

            # checked as soon as solved, before any later level reads it: a
            # NaN, or an infinity where some action is legal
            if not np.isfinite(val).all():
                bad = np.isnan(val) | (np.isinf(val) & (act != NO_ACTION))
                if bad.any():
                    row, b = np.argwhere(bad)[0]
                    raise NonFiniteValueError(
                        f"value {val[row, b]} at stage {k}, multiset size {s}, row {row} "
                        f"{tuple(space.members[s][row].tolist())}, bin "
                        f"{range(n_bins + 1)[cols][b]}: the config overflows float arithmetic")
            values[i].append(val)
            actions[i].append(act)
            if s == capacity < k:
                # a wake-up overflows into stage k from the full level a
                # stage earlier, which at k = c + 1 holds its none row alone
                held = val[:, -1:] if _none_column_only(k - 1, capacity, capacity) else val
                kept[i], overflow = _overflow_rule(held, *swaps)
        del plans[min(k - 1, capacity) + 1:]  # sizes that no later stage reads

    return CompleteTables(config=config, family=family, space=space, values=values,
                          actions=actions, kept=kept)


def solve_complete(family: OrderedFamily, config: ModelConfig) -> CompleteTables:
    """Solve the complete-class recursion exactly for all stages: the shared
    induction at capacity N, where no wake-up overflows."""
    return _induction(family, config, config.n_relays)


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
    over the reachable states the tables hold, at any capacity c: the sets
    at stage k hold at most min(k, c) members.  Each check reads its levels
    in row batches that hold at most eight (rows, width) temporaries at a
    time, BATCH_ELEMENTS entries in all, so the report holds the tables and
    one batch.
    """
    family = tables.family
    config = tables.config
    space = tables.space
    n_bins = tables.n_bins
    n_stages, capacity = tables.n_stages, tables.capacity
    eta, delta = config.eta, config.delta
    pmf, cdf = family.pmf_matrix, family.cdf_matrix
    grid = reward_grid(n_bins)
    rank = family.rank
    ranked = [None] + [_ranked_members(space, s, tuple(rank)) for s in range(1, capacity + 1)]

    failures = ("probe_largest_violations", "stage_independence_mismatches",
                "value_monotone_violations", "enlargement_violations", "osla_stage_n_mismatches")
    report = dict.fromkeys(failures + ("probing_states_checked", "stopping_slices_checked"), 0)

    # probe-largest: at every probing state, probing the stochastically
    # largest member costs no more than the solved value
    for k in range(1, n_stages + 1):
        for s in range(1, min(k, capacity) + 1):
            smaller = tables.values[k - 1][s - 1][:, :n_bins]
            act, val = tables.actions[k - 1][s], tables.values[k - 1][s]
            if act.shape[1] == 1:
                # the none row alone: max{none, R} = R, so E_t V(R) of a batch
                # of smaller rows and every type is one product.  Type t and
                # smaller row f are the largest member and the rest of row
                # plus[s-1][t, f] iff no member of f ranks before t, so the
                # batches reach every row of the level once.
                for chunk in row_batches(len(smaller), 8 * len(family), BATCH_ELEMENTS):
                    by_pair = (smaller[chunk] @ pmf.T).T
                    lead = rank[ranked[s - 1][0][chunk, 0]] if s > 1 else len(family)
                    largest = rank[:, None] <= lead
                    rows = space.plus[s - 1][:, chunk][largest]
                    probing = act[rows, 0] >= PROBE
                    cost = eta * delta + by_pair[largest]
                    report["probing_states_checked"] += int(probing.sum())
                    report["probe_largest_violations"] += int(
                        (probing & (cost > val[rows, 0] + STRUCTURE_TOL)).sum())
                continue
            types, rests = ranked[s]
            for rows in row_batches(len(act), 8 * (n_bins + 1), BATCH_ELEMENTS):
                probing = act[rows] >= PROBE
                largest, rest = types[rows, 0], rests[rows, 0]
                cost = eta * delta + expect_over_max(smaller[rest], pmf[largest], cdf[largest])
                report["probing_states_checked"] += int(probing.sum())
                report["probe_largest_violations"] += int(
                    (probing & (cost > val[rows] + STRUCTURE_TOL)).sum())

    # stage independence of stopping decisions over (best, multiset) slices,
    # on stages where continuing is available: each stage against the last,
    # whose level holds every column, on the columns it holds
    for s in range(min(n_stages - 1, capacity + 1)):
        stages = range(max(s, 1), n_stages)
        if len(stages) < 2:
            continue
        *others, last = (tables.actions[k - 1][s] for k in stages)
        report["stopping_slices_checked"] += last.size
        for rows in row_batches(len(last), 8 * last.shape[1], BATCH_ELEMENTS):
            reference = last[rows] == STOP
            for act in others:
                report["stage_independence_mismatches"] += int(
                    (reference[:, -act.shape[1]:] != (act[rows] == STOP)).sum())

    # value monotone in best reward; enlargement cannot increase the value,
    # checked on the columns the larger set's level holds
    for k in range(1, n_stages + 1):
        for s in range(min(k, capacity) + 1):
            val = tables.values[k - 1][s]
            larger = tables.values[k - 1][s + 1] if s < min(k, capacity) else None
            for rows in row_batches(len(val), 8 * val.shape[1], BATCH_ELEMENTS):
                block = val[rows]
                report["value_monotone_violations"] += int(
                    (np.diff(block[:, :-1], axis=1) > STRUCTURE_TOL).sum() + np.isnan(block).sum()
                )
                if larger is not None:
                    bound = block[:, -larger.shape[1]:] + STRUCTURE_TOL
                    for t in range(len(family)):
                        bigger = larger[space.plus[s][t, rows]]
                        report["enlargement_violations"] += int((bigger > bound).sum())

    # stage-N stopping matches the one-step-look-ahead rule
    stop_real = -eta * grid
    one_step = eta * delta - eta * expect_over_max(grid, pmf, cdf)  # (L, n_bins+1)
    for s in range(1, capacity + 1):
        types = ranked[s][0]
        act = tables.actions[n_stages - 1][s]
        if act.shape[1] == 1:  # a level of the none row alone: no reward to stop on
            continue
        for rows in row_batches(len(types), 8 * (n_bins + 1), BATCH_ELEMENTS):
            dp_stop = act[rows, :-1] == STOP
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
                ((dp_stop != osla_stop) & (margin > TIE_TOL)).sum()
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
                "actions": [np.select([a >= PROBE, a == CONTINUE], [1, 2], a) for a in levels],
                "probe_targets": [np.where(a >= PROBE, a - PROBE, -1) for a in levels],
            }
            for k, levels in enumerate(tables.actions, start=1)
        ],
    }

"""The restricted policy class: the shared induction at capacity 1.

Restricted policies keep at most two relays awake: the best probed one
(summarized by the best reward b, or none before the first probe) and one
retained unprobed relay (summarized by its reward distribution).  That is the
capacity-c induction of ``dp_complete`` at c = 1, whose levels
``backward_induction`` returns as they are.  Its size-0 and size-1 levels read
as stagewise tables

    J_k(b)        bare states, reached just after probing,
    J_k(b, F_l)   states holding an unprobed relay of location type l,

together with the continuing costs cc_k(b), cc_k(b, F_l) and the probing cost
cp_k(b, F_l), worked out from those values with the induction's own
arithmetic, which the structural checks and the tables export read.  The
stopping and probing sets with their thresholds, ``act``, the shared forward
sweep and the episode engine read the levels' action codes.

Stage k occupies array index k - 1.  The best-reward axis has one extra row
appended (index n_bins) for the "nothing probed yet" state, whose stop cost is
a +inf sentinel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from ._kernels import (CONTINUE, NO_ACTION, PROBE, STOP, STRUCTURE_TOL, Action, expect_over_max,
                       resolve_actions)
from .dp_complete import CompleteTables, _induction, _overflow_rule, act_complete
from .model import ModelConfig, OrderedFamily, reward_grid


class NonThresholdSetError(RuntimeError):
    """A stopping set failed to be an up-set; signals an implementation bug."""


BestReward = Optional[int]  # None before the first probe, else a grid index


@dataclass(frozen=True)
class RestrictedTables(CompleteTables):
    """The capacity-1 levels, read as stagewise tables, each worked out on
    first use and cached: j_b and cc_b are (N, n_bins+1); j_bf, cc_bf and
    cp_bf are (N, n_bins+1, n_locations).  The costs repeat the induction's
    arithmetic on the stored values, bitwise, under its float error state (the
    solve checked the values these are built from).  cc rows at stage N hold
    +inf (continuing is unavailable there), as does the stop cost at the none
    row.
    """

    @cached_property
    def j_b(self) -> np.ndarray:
        return np.ascontiguousarray([lv[0][0] for lv in self.values])

    @cached_property
    def j_bf(self) -> np.ndarray:
        return np.ascontiguousarray([lv[1].T for lv in self.values])

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def cp_bf(self) -> np.ndarray:
        """eta delta plus E_l[J_k(max{b, R})], summed as the probe kernel sums it."""
        expected = expect_over_max(self.j_b[:, None, :-1], self.family.pmf_matrix,
                                   self.family.cdf_matrix)
        return np.ascontiguousarray((self.config.eta * self.config.delta + expected)
                                    .transpose(0, 2, 1))

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def _continue_costs(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """(cc_b, cc_bf, kept): tau plus the mean over the newcomer's type t of
        J_{k+1}(b, F_t), or of the value of the relay the overflow rule keeps,
        each summed in type order from +0.0; and that rule's kept rows at
        stages 2..N, rebuilt from the values for check (i)."""
        n, tau, rank = len(self.family), self.config.tau, tuple(self.family.rank)
        cc_b, cc_bf = np.full(self.j_b.shape, np.inf), np.full(self.j_bf.shape, np.inf)
        kept = []
        for i, level in enumerate(lv[1] for lv in self.values[1:]):
            rows, total = _overflow_rule(self.space, level, 1, rank)
            kept.append(rows)
            cc_b[i] = sum(level, 0.0) / n + tau
            cc_bf[i] = (total / n + tau).T
        return cc_b, cc_bf, kept

    cc_b = property(lambda self: self._continue_costs[0])
    cc_bf = property(lambda self: self._continue_costs[1])

    @property
    def grid(self) -> np.ndarray:
        return reward_grid(self.n_bins)


@dataclass(frozen=True)
class ThresholdSummary:
    """Thresholds and membership masks of the stopping/probing sets.

    x[k-1] and x_l[k-1][l] are the minimal grid indices of the up-sets S_k and
    S_k^l (value n_bins when the set is empty); y_l[k-1][l] is the largest
    member of the probing set P_k^l, or -1 when P_k^l is empty.  All arrays
    cover stages 1..N-1, where continuing is an available action.
    """

    x: np.ndarray          # (N-1,)
    x_l: np.ndarray        # (N-1, L)
    y_l: np.ndarray        # (N-1, L)
    q_flags: np.ndarray    # (N-1, B, L) membership in Q_k^l
    s_flags: np.ndarray    # (N-1, B)    membership in S_k
    s_l_flags: np.ndarray  # (N-1, B, L) membership in S_k^l
    p_flags: np.ndarray    # (N-1, B, L) membership in P_k^l

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "x_l": self.x_l,
            "y_l": [[None if y < 0 else int(y) for y in row] for row in self.y_l],
            "q_flags": self.q_flags,
        }


def backward_induction(family: OrderedFamily, config: ModelConfig) -> RestrictedTables:
    """Fill all restricted-class tables from stage N down to stage 1.

    The shared induction at capacity 1: a continue from a retaining state
    reads the better of the two unprobed relays at the next stage.  Bare
    states cannot probe, so their probe cost is +inf.
    """
    return RestrictedTables(**vars(_induction(family, config, capacity=1)))


def extract_thresholds(levels: CompleteTables) -> ThresholdSummary:
    """Read the stopping/probing sets off the action tables of capacity-1
    levels, where the size-0 level holds the bare states and the size-1 level
    the retaining ones.

    S_k and S_k^l are the STOP entries of the bare and retaining tables, Q_k^l
    the entries that do not continue and P_k^l the probe entries (codes from
    PROBE up).  Raises NonThresholdSetError if any stopping set fails to be an
    up-set of the reward grid, and ValueError on levels of another capacity.
    """
    if levels.capacity != 1:
        raise ValueError(f"thresholds are read off capacity-1 levels; these keep at most "
                         f"{levels.capacity} unprobed relays awake")
    n_bins = levels.n_bins
    n_dec = max(levels.n_stages - 1, 0)
    s_flags = np.stack([lv[0][0] for lv in levels.actions])[:n_dec, :n_bins] == STOP
    act_bf = np.stack([lv[1].T for lv in levels.actions])[:n_dec, :n_bins]
    s_l_flags = act_bf == STOP
    q_flags = act_bf != CONTINUE
    p_flags = act_bf >= PROBE

    # S_k, then S_k^0 .. S_k^{L-1}, of each stage; a set's least member, or
    # n_bins where it is empty, and an up-set holds every bin from there on
    sets = np.concatenate([s_flags[:, None], s_l_flags.transpose(0, 2, 1)], axis=1)
    least = np.where(sets.any(axis=2), sets.argmax(axis=2), n_bins)
    broken = np.argwhere((sets != (np.arange(n_bins) >= least[..., None])).any(axis=2))
    if len(broken):
        i, j = broken[0]
        raise NonThresholdSetError(f"S_{i + 1}{f'^{j - 1}' if j else ''} is not an up-set: "
                                   f"members {np.flatnonzero(sets[i, j]).tolist()}")
    y_l = np.where(p_flags.any(axis=1), n_bins - 1 - p_flags[:, ::-1].argmax(axis=1), -1)

    return ThresholdSummary(
        x=least[:, 0], x_l=least[:, 1:], y_l=y_l,
        q_flags=q_flags, s_flags=s_flags, s_l_flags=s_l_flags, p_flags=p_flags,
    )


def act(
    state: tuple[BestReward, Optional[int], int], tables: RestrictedTables
) -> Action:
    """Optimal action at (best reward, retained distribution or None, stage):
    ``act_complete`` on the capacity-1 levels.

    The retained-distribution slot being None marks a bare state, reached
    immediately after probing.  Which relay a CONTINUE retains is up to the
    overflow rule, read from the tables' ``kept`` rows of the next stage.
    """
    best, dist, stage = state
    awake = () if dist is None else (dist,)
    return act_complete((stage, best, awake), tables).kind


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    worst: float
    detail: str = ""


@dataclass(frozen=True)
class StructureReport:
    """Outcome of the ordering/threshold property sweep, checks (a)-(h), of
    the Bellman residual, check (i), and the reported-only probing-set
    conjecture observations."""

    checks: dict[str, CheckResult]
    conjecture: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "checks": {
                key: {"passed": c.passed, "worst_violation": c.worst, "detail": c.detail}
                for key, c in self.checks.items()
            },
            "conjecture": self.conjecture,
        }


def _worst(excess: np.ndarray) -> float:
    """Largest violation, 0.0 when there is none; a NaN anywhere fails the
    check.  The +inf sentinels enter the checked differences only as -inf,
    which never counts as a violation."""
    if np.isnan(excess).any():
        return math.inf
    return float(max(excess.max(initial=0.0), 0.0))


def _pair_excess(g: np.ndarray) -> np.ndarray:
    """For every j >= 1 along the last axis, max over i < j of g_i - g_j: a
    prefix maximum, O(n) and not O(n^2), which carries a NaN on to every
    later index."""
    return np.maximum.accumulate(g, axis=-1)[..., :-1] - g[..., 1:]


def verify_structure(tables: RestrictedTables) -> StructureReport:
    """Machine-check the solver output against the ordering, threshold and
    stage-independence properties the solution must satisfy, each at
    STRUCTURE_TOL.

    Reads the sets off the tables' own action codes (``extract_thresholds``,
    whose NonThresholdSetError it passes on), and the costs off their values.
    Produces a pass/fail report; any failure of checks (a)-(i) is a defect.
    The probing-set observations (down-set structure, y thresholds increasing
    with stage) are reported but never asserted: they hold empirically but are
    not guaranteed.
    """
    thresholds = extract_thresholds(tables)
    n_bins = tables.n_bins
    n_stages = tables.n_stages
    grid = tables.grid
    eta = tables.config.eta
    checks: dict[str, CheckResult] = {}

    # (a) cost-to-go functions decrease in the best reward
    worst_a = max(
        _worst(np.diff(tables.j_b[:, :n_bins], axis=1)),
        _worst(np.diff(tables.j_bf[:, :n_bins, :], axis=1)),
    )
    checks["a_monotone_in_b"] = CheckResult(worst_a <= STRUCTURE_TOL, worst_a)

    # (b) more stages to go never hurts: J_k <= J_{k+1}
    worst_b = max(
        _worst(tables.j_b[:-1] - tables.j_b[1:]),
        _worst(tables.j_bf[:-1] - tables.j_bf[1:]),
    )
    checks["b_stage_monotone"] = CheckResult(worst_b <= STRUCTURE_TOL, worst_b)

    # (c) stochastically larger retained distribution gives smaller cost-to-go
    worst_c = _worst(_pair_excess(tables.j_bf[:, :, tables.family.order]))  # largest first
    checks["c_dominance_order"] = CheckResult(worst_c <= STRUCTURE_TOL, worst_c)

    # (d) retaining a relay can only cheapen continuing (available before stage N)
    worst_d = _worst(tables.cc_bf[: n_stages - 1] - tables.cc_b[: n_stages - 1, :, None])
    checks["d_cc_retained_le_bare"] = CheckResult(worst_d <= STRUCTURE_TOL, worst_d)

    # (e) set inclusions S^l <= Q^l, S^l <= S, S <= Q^l
    s, s_l, q = thresholds.s_flags[:, :, None], thresholds.s_l_flags, thresholds.q_flags
    bad_e = int((s_l & ~q).sum() + (s_l & ~s).sum() + (s & ~q).sum())
    checks["e_set_inclusions"] = CheckResult(bad_e == 0, float(bad_e), "violating entries")

    # (f) one-step costs a are eta-Lipschitz against the stop cost:
    # a_i - a_j <= eta (r_j - r_i) for i < j, i.e. g = a + eta r increases
    worst_f = max(_worst(_pair_excess(costs + eta * grid)) for costs in (
        tables.cp_bf[:, :n_bins, :].transpose(0, 2, 1),
        tables.cc_b[: n_stages - 1, :n_bins],
        tables.cc_bf[: n_stages - 1, :n_bins, :].transpose(0, 2, 1),
    ))
    checks["f_lipschitz"] = CheckResult(worst_f <= STRUCTURE_TOL, worst_f)

    # (g) inside the stopping set the cost-to-go already equals its stage-N value
    gap = tables.j_bf[: n_stages - 1, :n_bins] - tables.j_bf[-1, :n_bins]
    worst_g = _worst(np.abs(gap[thresholds.s_flags]))
    checks["g_equal_costs_on_s"] = CheckResult(worst_g <= STRUCTURE_TOL, worst_g)

    # (h) stopping sets are stage independent
    mism = sum(int((flags[1:] != flags[:1]).sum())
               for flags in (thresholds.s_flags, thresholds.s_l_flags))
    checks["h_stage_independent_sets"] = CheckResult(mism == 0, float(mism), "mask mismatches")

    # (i) Bellman residual: each stored value is the least of its stop, probe
    # and continue costs rebuilt from the values, each code the tie rule's
    # for them (a bare state cannot probe), each kept row the overflow rule's
    stop = np.append(-eta * grid, np.inf)
    no_probe = np.array(NO_ACTION, dtype=tables.actions[0][0].dtype)
    targets = (PROBE + np.arange(len(tables.family))).astype(no_probe.dtype)
    worst_i, codes_i = 0.0, 0
    for values, codes, (stop_b, probe, target, cont) in (
        (tables.j_b, [lv[0][0] for lv in tables.actions], (stop, np.inf, no_probe, tables.cc_b)),
        (tables.j_bf, [lv[1].T for lv in tables.actions],
         (stop[:, None], tables.cp_bf, targets, tables.cc_bf)),
    ):
        rebuilt = np.minimum(cont, np.minimum(probe, stop_b))
        # 0 where equal (equal infinities are never subtracted), NaN at a NaN
        gap = np.subtract(values, rebuilt, out=np.zeros(values.shape), where=values != rebuilt)
        worst_i = max(worst_i, _worst(np.abs(gap)))
        codes_i += int((resolve_actions(stop_b, probe, target, cont) != np.stack(codes)).sum())
    rows_i = sum(int((stored != rebuilt).sum())
                 for stored, rebuilt in zip(tables.kept[1:], tables._continue_costs[2]))
    checks["i_bellman_residual"] = CheckResult(
        worst_i <= STRUCTURE_TOL and codes_i == rows_i == 0, worst_i,
        f"worst value gap; {codes_i} codes and {rows_i} kept entries differ")

    # reported-only conjecture observations
    # a down-set of the grid is a run of members from bin 0 on
    rising = np.diff(thresholds.p_flags.astype(np.int8), axis=1) > 0
    down_set_violations = int(rising.any(axis=1).sum())
    y_increasing = bool(np.all(np.diff(thresholds.y_l, axis=0) >= 0))
    conjecture = {
        "p_sets_checked": int(thresholds.p_flags.shape[0] * thresholds.p_flags.shape[2]),
        "p_down_set_violations": down_set_violations,
        "p_all_down_sets": down_set_violations == 0,
        "y_thresholds_nondecreasing_in_stage": y_increasing,
    }

    return StructureReport(checks=checks, conjecture=conjecture)


def tables_to_json(tables: RestrictedTables) -> dict:
    """Stage-major dump of all arrays, which ``write_json`` writes with the
    +inf sentinels as null and any other entry as a float, so a NaN as NaN."""
    return {
        "n_stages": tables.n_stages,
        "n_bins": tables.n_bins,
        "grid": tables.grid,
        "j_b": tables.j_b,
        "j_bf": tables.j_bf,
        "cc_b": tables.cc_b,
        "cc_bf": tables.cc_bf,
        "cp_bf": tables.cp_bf,
    }

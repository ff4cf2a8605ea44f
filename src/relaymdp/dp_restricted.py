"""The restricted policy class: the shared induction at capacity 1.

Restricted policies keep at most two relays awake: the best probed one
(summarized by the best reward b, or none before the first probe) and one
retained unprobed relay (summarized by its reward distribution).  That is the
capacity-c induction of ``dp_complete`` at c = 1, whose levels
``backward_induction`` returns as they are, with the probe and continue costs
kept.  Its size-0 and size-1 levels read as stagewise tables

    J_k(b)        bare states, reached just after probing,
    J_k(b, F_l)   states holding an unprobed relay of location type l,

together with the continuing costs cc_k(b), cc_k(b, F_l), the probing cost
cp_k(b, F_l), which the structural checks and the tables export read.  The
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

from ._kernels import CONTINUE, PROBE, STOP, STRUCTURE_TOL, Action
from .dp_complete import CompleteTables, _induction, act_complete
from .dp_complete import initial_value  # noqa: F401  (one initial value for every capacity)
from .model import ModelConfig, OrderedFamily, reward_grid


class NonThresholdSetError(RuntimeError):
    """A stopping set failed to be an up-set; signals an implementation bug."""


BestReward = Optional[int]  # None before the first probe, else a grid index


def _stage_major(levels: str, s: int) -> cached_property:
    """The size-s level of every stage of ``levels``, stacked stage-major:
    (N, n_bins+1) for the bare states (s = 0), (N, n_bins+1, L) for the
    retaining ones (s = 1), whose rows are the location types."""
    def stacked(tables):
        return np.ascontiguousarray(
            [lv[s][0] if s == 0 else lv[s].T for lv in getattr(tables, levels)])
    return cached_property(stacked)


@dataclass(frozen=True)
class RestrictedTables(CompleteTables):
    """The capacity-1 levels with the probe and continue costs of every
    level, probe_costs[k-1][s] and continue_costs[k-1][s].

    The stagewise tables are stacked on first use and cached: j_b and cc_b
    are (N, n_bins+1); j_bf, cc_bf and cp_bf are (N, n_bins+1, n_locations).
    cc rows at stage N hold +inf (continuing is unavailable there), as does
    the stop cost at the none row.
    """

    probe_costs: list[list[np.ndarray]] = field(repr=False)
    continue_costs: list[list[np.ndarray]] = field(repr=False)

    j_b = _stage_major("values", 0)
    j_bf = _stage_major("values", 1)
    cc_b = _stage_major("continue_costs", 0)
    cc_bf = _stage_major("continue_costs", 1)
    cp_bf = _stage_major("probe_costs", 1)

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
            "x": self.x.tolist(),
            "x_l": self.x_l.tolist(),
            "y_l": [[None if y < 0 else int(y) for y in row] for row in self.y_l],
            "q_flags": self.q_flags.tolist(),
        }


def backward_induction(family: OrderedFamily, config: ModelConfig) -> RestrictedTables:
    """Fill all restricted-class tables from stage N down to stage 1.

    The shared induction at capacity 1: a continue from a retaining state
    reads the better of the two unprobed relays at the next stage.  Bare
    states cannot probe, so their probe cost is +inf.
    """
    levels, probes, conts = _induction(family, config, capacity=1, keep_costs=True)
    return RestrictedTables(**vars(levels), probe_costs=probes, continue_costs=conts)


def _upset_min_index(mask: np.ndarray, label: str) -> int:
    members = np.flatnonzero(mask)
    if members.size == 0:
        return mask.shape[0]
    first = int(members[0])
    if not mask[first:].all():
        raise NonThresholdSetError(
            f"{label} is not an up-set: members {members.tolist()}"
        )
    return first


def extract_thresholds(levels: CompleteTables) -> ThresholdSummary:
    """Read the stopping/probing sets off the action tables of capacity-1
    levels, where the size-0 level holds the bare states and the size-1 level
    the retaining ones.

    S_k and S_k^l are the STOP entries of the bare and retaining tables, Q_k^l
    the entries that do not continue and P_k^l the probe entries (codes from
    PROBE up).  Raises NonThresholdSetError if any stopping set fails to be an
    up-set of the reward grid.
    """
    n_bins, n_loc = levels.n_bins, len(levels.family)
    n_dec = max(levels.n_stages - 1, 0)
    s_flags = np.stack([lv[0][0] for lv in levels.actions])[:n_dec, :n_bins] == STOP
    act_bf = np.stack([lv[1].T for lv in levels.actions])[:n_dec, :n_bins]
    s_l_flags = act_bf == STOP
    q_flags = act_bf != CONTINUE
    p_flags = act_bf >= PROBE

    x = np.empty(n_dec, dtype=int)
    x_l = np.empty((n_dec, n_loc), dtype=int)
    y_l = np.empty((n_dec, n_loc), dtype=int)
    for i in range(n_dec):
        x[i] = _upset_min_index(s_flags[i], f"S_{i + 1}")
        for l in range(n_loc):
            x_l[i, l] = _upset_min_index(s_l_flags[i, :, l], f"S_{i + 1}^{l}")
            members = np.flatnonzero(p_flags[i, :, l])
            y_l[i, l] = int(members[-1]) if members.size else -1

    return ThresholdSummary(
        x=x, x_l=x_l, y_l=y_l,
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
    """Outcome of the ordering/threshold property sweep, checks (a)-(h), plus
    the reported-only probing-set conjecture observations."""

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


def verify_structure(tables: RestrictedTables, thresholds: ThresholdSummary) -> StructureReport:
    """Machine-check the solver output against the ordering, threshold and
    stage-independence properties the solution must satisfy, each at
    STRUCTURE_TOL.

    Produces a pass/fail report; any failure of checks (a)-(h) is a defect.
    The probing-set observations (down-set structure, y thresholds increasing
    with stage) are reported but never asserted: they hold empirically but are
    not guaranteed.
    """
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
    bad_e = (
        int((thresholds.s_l_flags & ~thresholds.q_flags).sum())
        + int((thresholds.s_l_flags & ~thresholds.s_flags[:, :, None]).sum())
        + int((thresholds.s_flags[:, :, None] & ~thresholds.q_flags).sum())
    )
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
    worst_g = 0.0
    for i in range(n_stages - 1):
        members = thresholds.s_flags[i]
        gap = np.abs(
            tables.j_bf[i, :n_bins, :][members] - tables.j_bf[-1, :n_bins, :][members]
        )
        worst_g = max(worst_g, _worst(gap))
    checks["g_equal_costs_on_s"] = CheckResult(worst_g <= STRUCTURE_TOL, worst_g)

    # (h) stopping sets are stage independent
    mism = sum(
        int((thresholds.s_flags[0] != thresholds.s_flags[i]).sum())
        + int((thresholds.s_l_flags[0] != thresholds.s_l_flags[i]).sum())
        for i in range(1, n_stages - 1)
    )
    checks["h_stage_independent_sets"] = CheckResult(mism == 0, float(mism), "mask mismatches")

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
    """Stage-major dump of all arrays: +inf sentinels serialize as null, and
    any other entry stays a float, so a NaN reaches the writer as NaN."""

    def clean(arr: np.ndarray):
        return np.where(np.isposinf(arr), None, arr).tolist()

    return {
        "n_stages": tables.n_stages,
        "n_bins": tables.n_bins,
        "grid": tables.grid.tolist(),
        "j_b": clean(tables.j_b),
        "j_bf": clean(tables.j_bf),
        "cc_b": clean(tables.cc_b),
        "cc_bf": clean(tables.cc_bf),
        "cp_bf": clean(tables.cp_bf),
    }

"""Backward induction for the restricted policy class.

Restricted policies keep at most two relays awake: the best probed one
(summarized by the best reward b, or none before the first probe) and one
retained unprobed relay (summarized by its reward distribution).  The solver
fills stagewise cost-to-go tables

    J_k(b)        bare states, reached just after probing,
    J_k(b, F_l)   states holding an unprobed relay of location type l,

together with the continuing costs cc_k(b), cc_k(b, F_l) and the probing cost
cp_k(b, F_l), and resolves them into int8 action tables.  The stopping and
probing sets, their thresholds, ``act`` and the exact forward sweep all read
those tables, so one tie rule (``resolve_actions``) decides every state.

Stage k occupies array index k - 1.  The best-reward axis has one extra row
appended (index n_bins) for the "nothing probed yet" state, whose stop cost is
a +inf sentinel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from ._kernels import CONTINUE, NO_ACTION, PROBE, STOP, expect_over_max, resolve_actions
from .model import ModelConfig, OrderedFamily, reward_grid

# Inequalities that accumulate expectation round-off are checked at 1e-9.
STRUCTURE_TOL = 1e-9


class Action(str, Enum):
    STOP = "stop"
    PROBE = "probe"
    CONTINUE = "continue"


ACTION_OF_CODE = {STOP: Action.STOP, PROBE: Action.PROBE, CONTINUE: Action.CONTINUE}


@dataclass(frozen=True)
class Decision:
    """A policy's answer in one state: the action and, for a probe, the
    location type of the relay to probe."""

    kind: Action
    probe_target: Optional[int] = None


class IllegalActionError(RuntimeError):
    """An action was requested (or forced) in a state that forbids it."""


class NonThresholdSetError(RuntimeError):
    """A stopping set failed to be an up-set; signals an implementation bug."""


BestReward = Optional[int]  # None before the first probe, else a grid index


@dataclass(frozen=True)
class RestrictedTables:
    """Cost-to-go and one-step-cost arrays for stages 1..N.

    Shapes: j_b, cc_b and act_b are (N, n_bins+1); j_bf, cc_bf, cp_bf and
    act_bf are (N, n_bins+1, n_locations).  cc rows at stage N hold +inf
    (continuing is unavailable there), as does the stop cost at the none row.
    act_b and act_bf hold the optimal action codes (STOP, PROBE, CONTINUE, or
    NO_ACTION where nothing is legal) of the bare and retaining states.
    """

    config: ModelConfig
    family: OrderedFamily
    j_b: np.ndarray
    j_bf: np.ndarray
    cc_b: np.ndarray
    cc_bf: np.ndarray
    cp_bf: np.ndarray
    act_b: np.ndarray = field(repr=False)
    act_bf: np.ndarray = field(repr=False)

    @property
    def n_bins(self) -> int:
        return self.j_b.shape[1] - 1

    @property
    def none_index(self) -> int:
        return self.n_bins

    @property
    def n_stages(self) -> int:
        return self.j_b.shape[0]

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

    The probing expectation is exact over the quantized pmf; the continuation
    expectation averages uniformly over the location law.  Within a stage the
    bare-state values J_k(b) are computed first, because probing keeps the
    process at stage k.  Bare states cannot probe, so their probe cost is +inf
    when the action tables are resolved.
    """
    config.validate()
    n_bins = family.n_bins
    n_loc = len(family)
    n_stages = config.n_relays
    eta, delta, tau = config.eta, config.delta, config.tau

    stop = np.append(-eta * reward_grid(n_bins), np.inf)

    j_b = np.empty((n_stages, n_bins + 1))
    j_bf = np.empty((n_stages, n_bins + 1, n_loc))
    cc_b = np.full((n_stages, n_bins + 1), np.inf)
    cc_bf = np.full((n_stages, n_bins + 1, n_loc), np.inf)
    cp_bf = np.empty((n_stages, n_bins + 1, n_loc))
    act_b = np.empty((n_stages, n_bins + 1), dtype=np.int8)
    act_bf = np.empty((n_stages, n_bins + 1, n_loc), dtype=np.int8)

    pmf = family.pmf_matrix
    cdf = family.cdf_matrix

    for k in range(n_stages, 0, -1):
        i = k - 1
        if k < n_stages:
            nxt = j_bf[i + 1]
            cc_b[i] = tau + nxt.mean(axis=1)
            # retention: the arriving state keeps whichever distribution has
            # the smaller next-stage cost-to-go
            cc_bf[i] = tau + np.minimum(nxt[:, :, None], nxt[:, None, :]).mean(axis=2)
        j_b[i] = np.minimum(stop, cc_b[i])
        cp_bf[i] = eta * delta + expect_over_max(j_b[i, :n_bins], pmf, cdf).T
        j_bf[i] = np.minimum(stop[:, None], np.minimum(cp_bf[i], cc_bf[i]))
        act_b[i] = resolve_actions(stop, np.inf, cc_b[i])
        act_bf[i] = resolve_actions(stop[:, None], cp_bf[i], cc_bf[i])

    return RestrictedTables(
        config=config, family=family,
        j_b=j_b, j_bf=j_bf, cc_b=cc_b, cc_bf=cc_bf, cp_bf=cp_bf,
        act_b=act_b, act_bf=act_bf,
    )


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


def extract_thresholds(tables: RestrictedTables) -> ThresholdSummary:
    """Read the stopping/probing sets off the action tables.

    S_k and S_k^l are the STOP entries of the bare and retaining tables, Q_k^l
    the entries that do not continue and P_k^l the PROBE entries.  Raises
    NonThresholdSetError if any stopping set fails to be an up-set of the
    reward grid.
    """
    n_bins = tables.n_bins
    n_loc = tables.act_bf.shape[2]
    n_dec = max(tables.n_stages - 1, 0)
    act_bf = tables.act_bf[:n_dec, :n_bins, :]
    s_flags = tables.act_b[:n_dec, :n_bins] == STOP
    s_l_flags = act_bf == STOP
    q_flags = act_bf != CONTINUE
    p_flags = act_bf == PROBE

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
    """Optimal action at (best reward, retained distribution or None, stage),
    read from the action tables.

    The retained-distribution slot being None marks a bare state, reached
    immediately after probing.  A CONTINUE is resolved at the next wake-up
    through ``retain_incumbent``, which compares next-stage costs-to-go of the
    incumbent and the newcomer.
    """
    best, dist, stage = state
    n_bins, n_loc = tables.n_bins, tables.act_bf.shape[2]
    if not 1 <= stage <= tables.n_stages:
        raise ValueError(f"stage {stage} outside 1..{tables.n_stages}")
    if best is not None and not 0 <= best < n_bins:
        raise ValueError(f"best-reward index {best} outside the grid")
    if dist is not None and not 0 <= dist < n_loc:
        raise ValueError(f"distribution index {dist} outside the family")

    i = stage - 1
    b = tables.none_index if best is None else best
    code = tables.act_b[i, b] if dist is None else tables.act_bf[i, b, dist]
    if code == NO_ACTION:
        raise IllegalActionError(
            f"no legal action at stage {stage} with best={best}, dist={dist}"
        )
    return ACTION_OF_CODE[code]


def retain_incumbent(
    tables: RestrictedTables, stage: int, best: BestReward, incumbent: int, newcomer: int
) -> bool:
    """Retention rule applied when a new relay wakes at ``stage``: keep the
    incumbent iff its cost-to-go is no worse (ties keep the incumbent)."""
    b = tables.none_index if best is None else best
    i = stage - 1
    return bool(tables.j_bf[i, b, incumbent] <= tables.j_bf[i, b, newcomer])


def initial_value(tables: RestrictedTables) -> float:
    """Optimal expected cost from the first wake-up (whose waiting time is not
    charged): the uniform average of J_1(none, F_l)."""
    return float(tables.j_bf[0, tables.none_index, :].mean())


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


def verify_structure(
    tables: RestrictedTables,
    thresholds: ThresholdSummary,
    family: OrderedFamily,
    tol: float = STRUCTURE_TOL,
) -> StructureReport:
    """Machine-check the solver output against the ordering, threshold and
    stage-independence properties the solution must satisfy.

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
    checks["a_monotone_in_b"] = CheckResult(worst_a <= tol, worst_a)

    # (b) more stages to go never hurts: J_k <= J_{k+1}
    worst_b = max(
        _worst(tables.j_b[:-1] - tables.j_b[1:]),
        _worst(tables.j_bf[:-1] - tables.j_bf[1:]),
    )
    checks["b_stage_monotone"] = CheckResult(worst_b <= tol, worst_b)

    # (c) stochastically larger retained distribution gives smaller cost-to-go
    ranked = tables.j_bf[:, :, family.order]  # rank 0 = stochastically largest
    pair = ranked[..., :, None] - ranked[..., None, :]
    upper = np.triu(np.ones((len(family), len(family)), dtype=bool), k=1)
    worst_c = _worst(pair[..., upper])
    checks["c_dominance_order"] = CheckResult(worst_c <= tol, worst_c)

    # (d) retaining a relay can only cheapen continuing
    if n_stages > 1:
        worst_d = _worst(tables.cc_bf[: n_stages - 1] - tables.cc_b[: n_stages - 1, :, None])
    else:
        worst_d = 0.0
    checks["d_cc_retained_le_bare"] = CheckResult(worst_d <= tol, worst_d)

    # (e) set inclusions S^l <= Q^l, S^l <= S, S <= Q^l
    bad_e = (
        int((thresholds.s_l_flags & ~thresholds.q_flags).sum())
        + int((thresholds.s_l_flags & ~thresholds.s_flags[:, :, None]).sum())
        + int((thresholds.s_flags[:, :, None] & ~thresholds.q_flags).sum())
    )
    checks["e_set_inclusions"] = CheckResult(bad_e == 0, float(bad_e), "violating entries")

    # (f) one-step costs are eta-Lipschitz against the stop cost
    slack = eta * (grid[None, :] - grid[:, None])  # slack[i, j] = eta (r_j - r_i)
    pair_mask = np.triu(np.ones((n_bins, n_bins), dtype=bool), k=1)

    def lipschitz_excess(arr_real: np.ndarray) -> float:
        d = arr_real[..., :, None] - arr_real[..., None, :] - slack
        return _worst(d[..., pair_mask])

    worst_f = lipschitz_excess(tables.cp_bf[:, :n_bins, :].transpose(0, 2, 1))
    if n_stages > 1:
        worst_f = max(
            worst_f,
            lipschitz_excess(tables.cc_b[: n_stages - 1, :n_bins]),
            lipschitz_excess(tables.cc_bf[: n_stages - 1, :n_bins, :].transpose(0, 2, 1)),
        )
    checks["f_lipschitz"] = CheckResult(worst_f <= tol, worst_f)

    # (g) inside the stopping set the cost-to-go already equals its stage-N value
    worst_g = 0.0
    for i in range(n_stages - 1):
        members = thresholds.s_flags[i]
        gap = np.abs(
            tables.j_bf[i, :n_bins, :][members] - tables.j_bf[-1, :n_bins, :][members]
        )
        worst_g = max(worst_g, _worst(gap))
    checks["g_equal_costs_on_s"] = CheckResult(worst_g <= tol, worst_g)

    # (h) stopping sets are stage independent
    same_s = all(np.array_equal(thresholds.s_flags[0], thresholds.s_flags[i])
                 for i in range(1, n_stages - 1))
    same_sl = all(np.array_equal(thresholds.s_l_flags[0], thresholds.s_l_flags[i])
                  for i in range(1, n_stages - 1))
    mism = 0 if (same_s and same_sl) else int(
        sum(np.sum(thresholds.s_flags[0] != thresholds.s_flags[i])
            for i in range(1, n_stages - 1))
        + sum(np.sum(thresholds.s_l_flags[0] != thresholds.s_l_flags[i])
              for i in range(1, n_stages - 1))
    )
    checks["h_stage_independent_sets"] = CheckResult(mism == 0, float(mism), "mask mismatches")

    # reported-only conjecture observations
    down_set_violations = 0
    for i in range(thresholds.p_flags.shape[0]):
        for l in range(thresholds.p_flags.shape[2]):
            members = np.flatnonzero(thresholds.p_flags[i, :, l])
            if members.size and not thresholds.p_flags[i, : members[-1] + 1, l].all():
                down_set_violations += 1
    y_increasing = bool(np.all(np.diff(thresholds.y_l, axis=0) >= 0))
    conjecture = {
        "p_sets_checked": int(thresholds.p_flags.shape[0] * thresholds.p_flags.shape[2]),
        "p_down_set_violations": down_set_violations,
        "p_all_down_sets": down_set_violations == 0,
        "y_thresholds_nondecreasing_in_stage": y_increasing,
    }

    return StructureReport(checks=checks, conjecture=conjecture)


def tables_to_json(tables: RestrictedTables) -> dict:
    """Stage-major dump of all arrays (finite entries only become numbers;
    +inf sentinels serialize as null)."""

    def clean(arr: np.ndarray):
        return np.where(np.isfinite(arr), arr, None).tolist()

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

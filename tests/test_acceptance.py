"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Heavy artifacts (the reference-config solves and the eta sweep) are
session fixtures shared across criteria.
"""
import math
import time
from itertools import combinations_with_replacement

import numpy as np
import pytest

from conftest import small_instance
from oracles import (
    Toy,
    complete_tree_value,
    enumerate_complete_policies,
    enumerate_restricted_policies,
    restricted_tree_value,
)
from relaymdp.dp_complete import (
    projected_state_count,
    solve_complete,
    state_space_census,
    verify_complete_conjectures,
)
from relaymdp.dp_complete import initial_value as complete_initial_value
from relaymdp.dp_restricted import (
    backward_induction,
    extract_thresholds,
    verify_structure,
)
from relaymdp.dp_restricted import initial_value as restricted_initial_value
from relaymdp.experiments import (
    complete_components,
    default_eta_grid,
    policy_levels,
    restricted_components,
)
from relaymdp.model import ModelConfig, build_forwarding_region, build_ordered_family
from relaymdp.simulate import monte_carlo

DELTAS = (0.1, 0.01)


def record(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="session")
def eta_grid():
    return default_eta_grid()


@pytest.fixture(scope="session")
def dp_curves(default_config, default_family, eta_grid):
    """DP initial values for both classes over the full sweep grid."""
    curves = {}
    for delta in DELTAS + (0.0,):
        for eta in eta_grid:
            config = default_config.with_overrides(eta=eta, delta=delta)
            curves[("rst", delta, eta)] = restricted_initial_value(
                backward_induction(default_family, config)
            )
            curves[("glb", delta, eta)] = complete_initial_value(
                solve_complete(default_family, config)
            )
    return curves


@pytest.fixture(scope="session")
def default_complete_tables(default_config, default_family):
    return solve_complete(default_family, default_config)


def test_criterion_1_threshold_structure(default_config, default_family):
    started = time.monotonic()
    tables = backward_induction(default_family, default_config)
    thresholds = extract_thresholds(tables)  # raises on any non-up-set
    elapsed = time.monotonic() - started

    violations = 0
    for mask in thresholds.s_flags:
        first = np.argmax(mask) if mask.any() else len(mask)
        violations += int((~mask[first:]).sum()) if mask.any() else 0
    for i in range(thresholds.s_l_flags.shape[0]):
        for l in range(thresholds.s_l_flags.shape[2]):
            mask = thresholds.s_l_flags[i, :, l]
            if mask.any():
                first = np.argmax(mask)
                violations += int((~mask[first:]).sum())
    record(
        "criterion 1: stopping sets are exact up-sets, restricted solve < 10 s",
        violations == 0 and elapsed < 10.0,
        f"violations={violations}, solve+extract={elapsed:.3f}s",
    )


def test_criterion_2_stage_independence(default_thresholds):
    ok = bool(
        np.all(default_thresholds.x == default_thresholds.x[0])
        and np.all(default_thresholds.x_l == default_thresholds.x_l[0])
    )
    record(
        "criterion 2: thresholds x and x_l are stage independent (exact)",
        ok,
        f"x={default_thresholds.x.tolist()}",
    )


def test_criterion_3_ordering_property_suite(default_config):
    rng = np.random.default_rng(20260809)
    failures = []
    configs = [default_config]
    while len(configs) < 51:
        v0 = rng.uniform(2.0, 20.0)
        try:
            configs.append(ModelConfig(
                v0=v0,
                comm_radius=v0 * rng.uniform(0.05, 0.5),
                n_locations=int(rng.integers(3, 9)),
                n_reward_bins=int(rng.integers(8, 31)),
                gamma_n0=rng.uniform(0.3, 3.0),
                beta=rng.uniform(1.0, 4.0),
                a=rng.uniform(0.05, 0.95),
                n_relays=int(rng.integers(2, 7)),
                tau=rng.uniform(0.05, 1.0),
                eta=rng.uniform(0.0, 20.0),
                delta=rng.uniform(0.0, 0.5),
                tail_mass=rng.uniform(0.01, 0.5),
            ).validate())
        except ValueError:
            continue
    for i, config in enumerate(configs):
        grid = build_forwarding_region(config)
        family = build_ordered_family(grid, config)
        tables = backward_induction(family, config)
        thresholds = extract_thresholds(tables)
        report = verify_structure(tables, thresholds, family, tol=1e-9)
        if not report.passed:
            bad = [k for k, c in report.checks.items() if not c.passed]
            failures.append((i, bad))
    record(
        "criterion 3: checks (a)-(h) pass on the reference config and 50 fuzzed configs",
        not failures,
        f"{len(configs)} configs" + (f", failures={failures}" if failures else ""),
    )


def test_criterion_4_brute_force_oracle_equivalence():
    started = time.monotonic()
    worst = 0.0
    checked = 0
    for n_loc in (1, 2, 3):
        for n_bins in (2, 3):
            for n_relays in (1, 2, 3):
                for eta, delta in ((0.8, 0.05), (5.0, 0.0), (2.0, 0.3)):
                    config, family = small_instance(
                        n_loc, n_bins, n_relays, eta=eta, delta=delta
                    )
                    toy = Toy.from_family(family, config)
                    rst = restricted_initial_value(backward_induction(family, config))
                    glb = complete_initial_value(solve_complete(family, config))
                    worst = max(
                        worst,
                        abs(rst - restricted_tree_value(toy)),
                        abs(glb - complete_tree_value(toy)),
                    )
                    checked += 1
    # literal enumeration of every deterministic policy on the smallest toys
    config, family = small_instance(2, 2, 2, eta=0.8, delta=0.05)
    toy = Toy.from_family(family, config)
    worst = max(
        worst,
        abs(enumerate_restricted_policies(toy)
            - restricted_initial_value(backward_induction(family, config))),
        abs(enumerate_complete_policies(toy)
            - complete_initial_value(solve_complete(family, config))),
    )
    elapsed = time.monotonic() - started
    record(
        "criterion 4: solvers match enumerated optima to 1e-12 on all toy instances, < 1 min",
        worst <= 1e-12 and elapsed < 60.0,
        f"{checked} tree instances + policy enumeration, worst |diff|={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_class_dominance_and_gap(dp_curves, eta_grid):
    dominance_ok = True
    worst_violation = 0.0
    for delta in DELTAS + (0.0,):
        for eta in eta_grid:
            gap = dp_curves[("glb", delta, eta)] - dp_curves[("rst", delta, eta)]
            worst_violation = max(worst_violation, gap)
            if gap > 1e-9:
                dominance_ok = False
    gaps = {
        delta: np.array(
            [dp_curves[("rst", delta, e)] - dp_curves[("glb", delta, e)] for e in eta_grid]
        )
        for delta in DELTAS
    }
    rel = {
        delta: float(np.max(gaps[delta] / np.maximum(np.abs(
            [dp_curves[("glb", delta, e)] for e in eta_grid]), 1e-12)))
        for delta in DELTAS
    }
    gap_ok = gaps[0.01].max() <= gaps[0.1].max() + 1e-9
    record(
        "criterion 5: GLB-OPT dominates RST-OPT at every cell; gap(d=0.01) <= gap(d=0.1)",
        dominance_ok and gap_ok,
        f"max gap d=0.1: {gaps[0.1].max():.4f} (rel {rel[0.1]:.2%}), "
        f"d=0.01: {gaps[0.01].max():.4f} (rel {rel[0.01]:.2%})",
    )


def test_criterion_6_small_eta_asymptotics(default_config, default_family, eta_grid):
    smallest = eta_grid[0]
    ok = True
    details = []
    for delta in DELTAS:
        config = default_config.with_overrides(eta=smallest, delta=delta)
        rst = restricted_components(backward_induction(default_family, config))
        glb = complete_components(solve_complete(default_family, config))
        for name, comp in (("rst", rst), ("glb", glb)):
            ok &= 0.2 <= comp.mean_delay <= 0.21
            ok &= delta <= comp.probing_cost <= 1.05 * delta
            details.append(
                f"{name}@d={delta}: delay={comp.mean_delay:.4f}, probe={comp.probing_cost:.4f}"
            )
    record(
        "criterion 6: at smallest eta, mean delay in [0.2, 0.21] and probing cost in [d, 1.05d]",
        ok,
        "; ".join(details),
    )


def test_criterion_7_delta_zero_coincidence(dp_curves, eta_grid):
    worst = max(
        abs(dp_curves[("rst", 0.0, e)] - dp_curves[("glb", 0.0, e)]) for e in eta_grid
    )
    record(
        "criterion 7: RST-OPT and GLB-OPT values coincide at delta=0 (1e-9)",
        worst <= 1e-9,
        f"worst |diff|={worst:.2e} over {len(eta_grid)} eta values",
    )


def test_criterion_8_dp_mc_consistency(default_config, default_family):
    cells = ((1.0, 0.1), (10.0, 0.1), (10.0, 0.01))
    ok = True
    details = []
    for eta, delta in cells:
        config = default_config.with_overrides(eta=eta, delta=delta)
        for name in ("rst", "glb"):
            started = time.monotonic()
            levels = policy_levels(name, default_family, config)
            dp = complete_initial_value(levels)
            est = monte_carlo(levels, 100_000, seed=2468)
            elapsed = time.monotonic() - started
            z = abs(est.mean_cost - dp) / est.se_cost
            ok &= z <= 3.0 and elapsed < 120.0
            details.append(f"{name}@({eta},{delta}): z={z:.2f}, {elapsed:.0f}s")
    record(
        "criterion 8: MC mean cost within 3 SE of DP value at 1e5 episodes, < 2 min/cell",
        ok,
        "; ".join(details),
    )


def test_criterion_9_monotone_in_eta(dp_curves, eta_grid):
    ok = True
    worst = 0.0
    for policy in ("rst", "glb"):
        for delta in DELTAS + (0.0,):
            values = [dp_curves[(policy, delta, e)] for e in eta_grid]
            diffs = np.diff(values)
            worst = max(worst, float(diffs.max()))
            ok &= bool(np.all(diffs <= 1e-12))
    record(
        "criterion 9: DP total cost non-increasing in eta for every policy and delta",
        ok,
        f"max increase={worst:.2e}",
    )


def test_criterion_10_state_space_census(default_config):
    census = state_space_census(default_config)
    formula_ok = True
    for n_types in (5, 10, 20):
        cfg = ModelConfig(n_locations=n_types)
        c = state_space_census(cfg)
        for k in range(1, cfg.n_relays + 1):
            enumerated = sum(
                sum(1 for _ in combinations_with_replacement(range(n_types), s))
                for s in range(k + 1)
            ) * (cfg.n_reward_bins + 1)
            formula_ok &= c.complete[k - 1] == enumerated
        formula_ok &= c.restricted[0] == (cfg.n_reward_bins + 1) * (n_types + 1)
    # linearity ratio test for the restricted class
    counts = {
        n: state_space_census(ModelConfig(n_locations=n)).restricted[0]
        for n in (5, 10, 20)
    }
    linear_ok = (counts[10] - counts[5]) * 2 == (counts[20] - counts[10])
    budget_ok = projected_state_count(20, 100, 5) < 50_000_000
    record(
        "criterion 10: complete census matches stars-and-bars; restricted linear in |F|",
        formula_ok and linear_ok and budget_ok and math.comb(24, 5) == 42504,
        f"stage-5 complete={census.complete[-1]}, restricted={census.restricted[0]}, "
        f"projected memo={projected_state_count(20, 100, 5)}",
    )


def test_criterion_11_conjecture_reports(
    default_tables, default_thresholds, default_family, default_complete_tables
):
    structure = verify_structure(default_tables, default_thresholds, default_family)
    complete = verify_complete_conjectures(default_complete_tables)
    restricted_clean = (
        structure.conjecture["p_down_set_violations"] == 0
        and structure.conjecture["y_thresholds_nondecreasing_in_stage"]
    )
    complete_clean = complete["all_hold"]
    record(
        "criterion 11: probing-set and complete-class conjecture reports show zero counterexamples",
        restricted_clean and complete_clean,
        f"restricted={structure.conjecture}, complete probing states checked="
        f"{complete['probing_states_checked']}",
    )

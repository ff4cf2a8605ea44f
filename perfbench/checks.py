"""Fail-closed checks on the artifacts the relaymdp CLI writes.

The checks do not trust the program's own verdicts: each compares the
artifact against an identity, an independent solve made outside timing, or a
stored reference value.  Every check returns a list of problems; an empty
list is a pass.  Any non-finite number in an artifact is a problem.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

IDENTITY_TOL = 1e-9       # exact expectation pass vs backward-induction value
DOMINANCE_TOL = 1e-12     # complete class can only improve on the restricted one
REFERENCE_TOL = 1e-9      # stored reference DP values
MC_Z_LIMIT = 5.0          # |MC mean - DP value| <= 5 standard errors


class NonFiniteToken(ValueError):
    pass


def _reject_constant(token: str):
    raise NonFiniteToken(f"non-finite token {token}")


def load_artifact(path: Path) -> tuple[object, list[str]]:
    """Parse a JSON artifact; NaN/Infinity tokens and overflowing literals fail."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        return None, [f"{Path(path).name}: unreadable ({err})"]
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except (NonFiniteToken, json.JSONDecodeError) as err:
        return None, [f"{Path(path).name}: {err}"]
    return doc, []


def nonfinite_paths(doc, prefix: str = "") -> list[str]:
    """Locations of non-finite floats (e.g. an overflowing 1e999 literal)."""
    if isinstance(doc, float):
        return [] if math.isfinite(doc) else [prefix or "<root>"]
    if isinstance(doc, dict):
        return [p for k, v in doc.items() for p in nonfinite_paths(v, f"{prefix}.{k}")]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in nonfinite_paths(v, f"{prefix}[{i}]")]
    return []


def _number(doc, *keys) -> float | None:
    node = doc
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_small_doc(name: str, doc) -> list[str]:
    if not isinstance(doc, dict):
        return [f"{name}: not a JSON object"]
    return [f"{name}: non-finite value at {p}" for p in nonfinite_paths(doc)]


def check_solve_complete(summary: dict, rst_value: float) -> list[str]:
    """components.cost == initial_value, conjectures hold, glb <= rst."""
    problems = check_small_doc("summary.json", summary)
    if problems:
        return problems
    value = _number(summary, "initial_value")
    cost = _number(summary, "components", "cost")
    if value is None or cost is None:
        return ["summary.json: initial_value or components.cost missing"]
    if not _close(cost, value, IDENTITY_TOL):
        problems.append(f"components.cost {cost!r} != initial_value {value!r}")
    if summary.get("conjectures", {}).get("all_hold") is not True:
        problems.append("conjectures.all_hold is not true")
    if not value <= rst_value + DOMINANCE_TOL:
        problems.append(f"glb value {value!r} exceeds rst value {rst_value!r}")
    return problems


def check_simulate(estimates: dict, policy: str, episodes: int, dp_value: float) -> list[str]:
    """The MC mean lies within MC_Z_LIMIT standard errors of the DP value."""
    problems = check_small_doc("estimates.json", estimates)
    if problems:
        return problems
    if estimates.get("policy") != policy or estimates.get("n") != episodes:
        problems.append(
            f"estimates.json echoes policy={estimates.get('policy')!r}, "
            f"n={estimates.get('n')!r}"
        )
    mean, se = _number(estimates, "mean_cost"), _number(estimates, "se_cost")
    if mean is None or se is None or not se > 0.0:
        return problems + [f"mean_cost {mean!r} / se_cost {se!r} unusable"]
    if abs(mean - dp_value) > MC_Z_LIMIT * se:
        problems.append(
            f"MC cost {mean!r} is {abs(mean - dp_value) / se:.2f} se from DP {dp_value!r}"
        )
    return problems


CHECK_KEYS = (
    "a_monotone_in_b", "b_stage_monotone", "c_dominance_order", "d_cc_retained_le_bare",
    "e_set_inclusions", "f_lipschitz", "g_equal_costs_on_s", "h_stage_independent_sets",
)


def check_verify(report: dict) -> list[str]:
    """Every check (a)-(h) is present, passed and has a finite worst violation."""
    problems = check_small_doc("report.json", report)
    if problems:
        return problems
    checks = report.get("checks", {})
    for key in CHECK_KEYS:
        entry = checks.get(key)
        worst = _number(entry, "worst_violation") if isinstance(entry, dict) else None
        if worst is None:
            problems.append(f"check {key}: missing or non-numeric worst_violation")
        elif entry.get("passed") is not True:
            problems.append(f"check {key}: not passed (worst {worst!r})")
    if report.get("passed") is not True:
        problems.append("report.passed is not true")
    return problems


TABLE_KEYS = ("j_b", "j_bf", "cc_b", "cc_bf", "cp_bf")


def check_solve_restricted(summary: dict, tables: dict, sentinels: dict[str, int]) -> list[str]:
    """components.cost == initial_value; tables hold nulls only where the
    independently solved tables hold their +inf sentinels, and finite numbers
    everywhere else (the writer turns any non-finite entry into null)."""
    problems = check_small_doc("summary.json", summary)
    if not problems:
        value = _number(summary, "initial_value")
        cost = _number(summary, "components", "cost")
        if value is None or cost is None:
            problems.append("summary.json: initial_value or components.cost missing")
        elif not _close(cost, value, IDENTITY_TOL):
            problems.append(f"components.cost {cost!r} != initial_value {value!r}")
    if not isinstance(tables, dict):
        return problems + ["tables.json: not a JSON object"]
    for key in TABLE_KEYS:
        try:
            arr = np.array(tables[key], dtype=float)
        except (KeyError, TypeError, ValueError) as err:
            problems.append(f"tables.json {key}: unreadable ({err})")
            continue
        n_null = int(np.isnan(arr).sum())
        if n_null != sentinels[key]:
            problems.append(f"tables.json {key}: {n_null} nulls, expected {sentinels[key]}")
        if np.isinf(arr).any():
            problems.append(f"tables.json {key}: infinite entries")
    return problems


def check_calibrate(calibration: dict, gamma: float) -> list[str]:
    """The calibrated multiplier meets the effective-reward target."""
    problems = check_small_doc("calibration.json", calibration)
    if problems:
        return problems
    eff, eta = _number(calibration, "effective_reward"), _number(calibration, "eta")
    if eff is None or eta is None:
        return ["calibration.json: effective_reward or eta missing"]
    if not eff >= gamma:
        problems.append(f"effective_reward {eff!r} below gamma {gamma!r}")
    return problems


def check_reference(name: str, got: float | None, expected: float) -> list[str]:
    """A DP value matches the stored reference to REFERENCE_TOL."""
    if got is None or not math.isfinite(got) or not _close(got, expected, REFERENCE_TOL):
        return [f"{name}: {got!r} differs from reference {expected!r}"]
    return []

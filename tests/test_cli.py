import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import relaymdp
from relaymdp import dp_complete
from relaymdp.cli import main
from relaymdp.dp_restricted import CheckResult, StructureReport
from relaymdp.model import ModelConfig

SHIPPED_DEFAULT = Path(__file__).resolve().parent.parent / "configs" / "default.json"


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "v0": 10.0,
        "comm_radius": 1.0,
        "n_locations": 4,
        "n_reward_bins": 12,
        "n_relays": 3,
        "tau": 0.25,
        "eta": 2.0,
        "delta": 0.05,
        "sweep": {
            "eta_values": [0.5, 2.0],
            "delta_values": [0.05],
            "policies": ["rst", "first"],
            "n_episodes": 50,
        },
        "calibrate": {"target_gamma": 0.1, "eta_hi": 10.0, "resolution": 0.05},
    }))
    return path


def test_verify_on_shipped_default_exits_zero(tmp_path, capsys):
    code = main([
        "verify", "--config", str(SHIPPED_DEFAULT), "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert "passed" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"].values())


def test_missing_config_names_the_path(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = main(["verify", "--config", str(missing), "--out", str(tmp_path)])
    assert code == 1
    assert str(missing) in capsys.readouterr().err


def test_empty_eta_list_fails_validation(small_config, tmp_path, capsys):
    code = main([
        "sweep", "--config", str(small_config), "--out", str(tmp_path / "out"),
        "--override", "sweep.eta_values=[]",
    ])
    assert code == 1
    assert "eta_values" in capsys.readouterr().err


def test_unknown_flag_exits_one(small_config, capsys):
    code = main(["verify", "--config", str(small_config), "--frobnicate"])
    assert code == 1
    assert "frobnicate" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"etaa": 2.0}))
    code = main(["verify", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "etaa" in capsys.readouterr().err


def test_unknown_override_key_rejected(small_config, tmp_path, capsys):
    code = main([
        "census", "--config", str(small_config), "--out", str(tmp_path / "o"),
        "--override", "nonsense=3",
    ])
    assert code == 1
    assert "nonsense" in capsys.readouterr().err


def test_override_equals_editing_the_file(small_config, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main([
        "solve-restricted", "--config", str(small_config), "--out", str(out_a),
        "--override", "eta=5.0",
    ]) == 0
    doc = json.loads(small_config.read_text())
    doc["eta"] = 5.0
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    assert main(["solve-restricted", "--config", str(edited), "--out", str(out_b)]) == 0
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    assert (out_a / "tables.json").read_bytes() == (out_b / "tables.json").read_bytes()


def test_simulate_is_deterministic_for_fixed_seed(small_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    argv = ["simulate", "--config", str(small_config), "--policy", "rst",
            "--episodes", "200", "--seed", "9"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert (out_a / "estimates.json").read_bytes() == (out_b / "estimates.json").read_bytes()


@pytest.mark.parametrize("policy", ["glb", "first"])
def test_simulate_other_policies(small_config, tmp_path, policy):
    out = tmp_path / policy
    code = main([
        "simulate", "--config", str(small_config), "--policy", policy,
        "--episodes", "100", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads((out / "estimates.json").read_text())
    assert payload["policy"] == policy
    assert payload["n"] == 100


def test_solve_complete_writes_summary_and_census(small_config, tmp_path):
    out = tmp_path / "out"
    assert main(["solve-complete", "--config", str(small_config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "initial_value" in summary
    assert summary["conjectures"]["all_hold"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert "summary.json" in manifest["artifacts"]


def test_solve_complete_policy_export_flag(small_config, tmp_path):
    out = tmp_path / "out"
    assert main([
        "solve-complete", "--config", str(small_config), "--out", str(out),
        "--export-policy",
    ]) == 0
    policy = json.loads((out / "policy.json").read_text())
    assert policy["n_stages"] == 3
    assert set(policy) == {"n_stages", "n_bins", "stages"}
    assert policy["n_bins"] == 12
    for k, stage in enumerate(policy["stages"], start=1):
        assert set(stage) == {"stage", "actions", "probe_targets"} and stage["stage"] == k
        for s, (acts, targets) in enumerate(zip(stage["actions"], stage["probe_targets"])):
            # k unprobed relays at stage k: the none row alone, one column
            width = 1 if s == k else 13
            assert len(acts) == len(targets) > 0
            assert all(len(row) == width for row in acts + targets), (k, s)


def test_sweep_writes_figure_csvs(small_config, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(small_config), "--out", str(out)]) == 0
    for name in ("fig_total_cost.csv", "fig_delay.csv", "fig_reward.csv",
                 "fig_probing_cost.csv", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    # the sweep manifest survives intact: per-cell status and trend observations
    assert all(c["status"] == "ok" for c in manifest["cells"])
    assert "observations" in manifest
    assert manifest["seed"] == 0


@pytest.mark.parametrize("command,seed", [
    ("simulate", "-1"), ("sweep", "-1"), ("simulate", str(2 ** 128)), ("solve-complete", "-5"),
])
def test_seed_outside_its_range_exits_one(small_config, tmp_path, capsys, command, seed):
    out = tmp_path / "out"
    code = main([command, "--config", str(small_config), "--out", str(out), "--seed", seed])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--seed" in err
    assert not out.exists()


@pytest.mark.parametrize("count", ["true", "2.7", "0"])
def test_bad_sweep_episode_count_exits_one(small_config, tmp_path, capsys, count):
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(small_config), "--out", str(out),
                 "--override", f"sweep.n_episodes={count}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n_episodes" in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("override", [
    'sweep.eta_values=["a"]',
    "sweep.eta_values=5",
    "sweep.eta_values=[2.0, NaN]",
    "sweep.delta_values=[true]",
    "sweep.delta_values=[-0.1]",
    "sweep.policies=5",
])
def test_bad_sweep_values_exit_one(small_config, tmp_path, capsys, override):
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(small_config), "--out", str(out),
                 "--override", override])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and override.split("=")[0].split(".")[1] in err
    assert not out.exists()


@pytest.mark.parametrize("field,args", [
    ("resolution", ["--override", "calibrate.resolution=0"]),
    ("resolution", ["--override", 'calibrate.resolution="0.1"']),
    ("target_gamma", ["--gamma", "nan"]),
    ("delta", ["--override", "calibrate.delta=true"]),
    ("eta_lo", ["--override", "calibrate.eta_lo=10.0"]),
    ("eta_lo", ["--override", "calibrate.eta_lo=-1"]),
    ("eta_hi", ["--override", "calibrate.eta_hi=1e999"]),
])
def test_bad_calibrate_values_exit_one(small_config, tmp_path, capsys, field, args):
    out = tmp_path / "out"
    code = main(["calibrate", "--config", str(small_config), "--out", str(out), *args])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not out.exists()


@pytest.mark.parametrize("block,value,override", [
    ("calibrate", 5, None),
    ("calibrate", 5, "calibrate.delta=0.1"),
    ("sweep", "eta", None),
    ("sweep", "eta", "sweep.n_episodes=10"),
])
def test_block_that_is_not_an_object_exits_one(small_config, tmp_path, capsys, block, value,
                                                override):
    # the block's command reads it
    doc = json.loads(small_config.read_text())
    doc[block] = value
    small_config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [block, "--config", str(small_config), "--out", str(out)]
    if override:
        argv += ["--override", override]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(block) in err and "JSON object" in err
    assert not out.exists()


@pytest.mark.parametrize("field", ["tau", "eta"])
def test_integer_past_the_float_range_exits_one(small_config, tmp_path, capsys, field):
    code = main(["census", "--config", str(small_config), "--out", str(tmp_path / "o"),
                 "--override", f"{field}=1{'0' * 400}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not (tmp_path / "o").exists()


# every number a config takes: (command, key, override with {} for the value)
NUMERIC_KEYS = (
    [("census", f.name, f"{f.name}={{}}")
     for f in dataclasses.fields(ModelConfig) if f.type == "float"]
    + [("sweep", key, f"sweep.{key}=[1.0, {{}}]") for key in ("eta_values", "delta_values")]
    + [("calibrate", key, f"calibrate.{key}={{}}")
       for key in ("target_gamma", "delta", "eta_lo", "eta_hi", "resolution")]
)


@pytest.mark.parametrize("command,key,override", NUMERIC_KEYS,
                         ids=[f"{command}-{key}" for command, key, _ in NUMERIC_KEYS])
@pytest.mark.parametrize("value", ["true", '"x"', "NaN", "Infinity", "1" + "0" * 400],
                         ids=["bool", "str", "nan", "inf", "huge-int"])
def test_every_number_must_be_finite_and_not_a_bool(small_config, tmp_path, capsys, command,
                                                    key, override, value):
    out = tmp_path / "out"
    code = main([command, "--config", str(small_config), "--out", str(out),
                 "--override", override.format(value)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert re.search(rf"\b{key} must be a finite number", err), err
    assert not out.exists()


@pytest.mark.parametrize("override,named", [
    ("sweep.seed=3", "seed"),
    ("sweep.threads=2", "threads"),
    ("sweep.base=1", "base"),
    ("calibrate.config=1", "config"),
    ("nonsense.x=1", "nonsense"),
    ("eta.x=1", "eta"),
    ("n_relays.x=1", "n_relays"),
    ("sweep.eta_values.x=1", "sweep.eta_values.x"),
])
def test_override_outside_the_config_schema_rejected(small_config, tmp_path, capsys,
                                                     override, named):
    # the CLI fills sweep.seed, sweep.threads, sweep.base and calibrate.config
    # from its own flags and the model config, so no block may set them
    out = tmp_path / "out"
    code = main(["census", "--config", str(small_config), "--out", str(out),
                 "--override", override])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not out.exists()


def test_calibrate_command(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["calibrate", "--config", str(small_config), "--out", str(out)]) == 0
    result = json.loads((out / "calibration.json").read_text())
    assert result["effective_reward"] >= result["target_gamma"]


def test_census_command(small_config, tmp_path):
    out = tmp_path / "out"
    assert main(["census", "--config", str(small_config), "--out", str(out)]) == 0
    census = json.loads((out / "census.json").read_text())
    assert len(census["complete_per_stage"]) == 3


def test_budget_exceeded_exits_one(small_config, tmp_path, capsys):
    code = main([
        "solve-complete", "--config", str(small_config), "--out", str(tmp_path / "o"),
        "--override", "n_relays=5", "--override", "n_locations=400",
    ])
    assert code == 1
    assert "budget" in capsys.readouterr().err


def test_budget_exceeded_at_a_long_horizon_exits_one(small_config, tmp_path, capsys):
    # the projected state count is worked out in closed form, not summed over
    # every size at every stage
    code = main([
        "solve-complete", "--config", str(small_config), "--out", str(tmp_path / "o"),
        "--override", "n_relays=100000",
    ])
    assert code == 1
    assert "budget" in capsys.readouterr().err


def test_probe_first_budget_exceeded_exits_one(small_config, tmp_path, capsys, monkeypatch):
    # 3 stages of the capacity-1 shapes, 13 x (1 + 4) entries each
    monkeypatch.setattr(dp_complete, "DEFAULT_STATE_BUDGET", 194)
    code = main(["simulate", "--config", str(small_config), "--out", str(tmp_path / "o"),
                 "--policy", "first", "--episodes", "10"])
    assert code == 1
    assert "needs 195 memo entries, over the budget of 194" in capsys.readouterr().err


# one cell per policy; glb at 8 relays of the shipped config needs about 123M
# states, over the budget
EIGHT_RELAY_SWEEP = (
    "--override", "n_relays=8", "--override", "sweep.eta_values=[1.0]",
    "--override", "sweep.delta_values=[0.1]", "--override", "sweep.n_episodes=50",
)


@pytest.mark.parametrize("policies,statuses,code", [
    ('["glb"]', ["budget_exceeded"], 1),
    ('["rst", "glb"]', ["ok", "budget_exceeded"], 0),
])
def test_sweep_exits_one_only_when_no_cell_succeeds(tmp_path, capsys, policies, statuses,
                                                    code):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(SHIPPED_DEFAULT), "--out", str(out),
                 *EIGHT_RELAY_SWEEP, "--override", f"sweep.policies={policies}"]) == code
    assert "1 sweep cells failed (see manifest)" in capsys.readouterr().err
    # the CSVs and the manifest are written either way
    for name in ("fig_total_cost.csv", "fig_delay.csv", "fig_reward.csv",
                 "fig_probing_cost.csv"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert [c["status"] for c in manifest["cells"]] == statuses


def test_verification_failure_exits_two(small_config, tmp_path, monkeypatch, capsys):
    failing = StructureReport(
        checks={"a_monotone_in_b": CheckResult(passed=False, worst=1.0)}
    )
    monkeypatch.setattr("relaymdp.cli.verify_structure", lambda *a, **k: failing)
    code = main(["verify", "--config", str(small_config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "FAILED" in capsys.readouterr().err


@pytest.mark.parametrize("command,override", [
    ("verify", "eta=NaN"),
    ("solve-restricted", "tau=NaN"),
    ("simulate", "delta=Infinity"),
    ("census", "n_relays=true"),
])
def test_non_finite_or_bool_override_exits_one(small_config, tmp_path, capsys,
                                               command, override):
    code = main([
        command, "--config", str(small_config), "--out", str(tmp_path / "o"),
        "--override", override,
    ])
    assert code == 1
    assert override.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,overrides", [
    ("solve-restricted", []),
    ("solve-complete", ["n_locations=4"]),
])
def test_overflowing_values_exit_one(tmp_path, capsys, command, overrides):
    # eta=1e308 drives sums of costs past the float range
    argv = [command, "--config", str(SHIPPED_DEFAULT), "--out", str(tmp_path / "o"),
            "--override", "eta=1e308"]
    for override in overrides:
        argv += ["--override", override]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "stage" in err and "bin" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["solve-restricted", "verify"])
def test_non_threshold_set_exits_two(tmp_path, capsys, command):
    # at this cost scale round-off splits a stopping set (absolute tolerances)
    code = main([command, "--config", str(SHIPPED_DEFAULT), "--out", str(tmp_path / "o"),
                 "--override", "eta=1e20", "--override", "delta=5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: S_") and "is not an up-set" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("module", ["relaymdp", "relaymdp.cli"])
def test_module_entry_points_report_version(module):
    src = str(Path(relaymdp.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", module, "--version"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == f"relaymdp {relaymdp.__version__}"


@pytest.mark.parametrize("flag,env", [
    ("0", None), ("-2", None), ("abc", None), ("1.5", None),
    (None, "abc"), (None, "0"), (None, ""),
])
def test_bad_thread_count_exits_one(small_config, tmp_path, capsys, monkeypatch, flag, env):
    if env is not None:
        monkeypatch.setenv("RELAYMDP_THREADS", env)
    argv = ["census", "--config", str(small_config), "--out", str(tmp_path / "o")]
    if flag is not None:
        argv += ["--threads", flag]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "threads" in err
    assert not (tmp_path / "o").exists()

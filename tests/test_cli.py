import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import relaymdp
from relaymdp import cli, model
from relaymdp.cli import main
from relaymdp.dp_restricted import CheckResult, StructureReport
from relaymdp.experiments import manifest
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


def test_the_shipped_config_restates_only_the_defaults():
    # the sweep's defaults live in SweepSpec alone
    doc = json.loads(SHIPPED_DEFAULT.read_text())
    defaults = ModelConfig().to_dict()
    assert "sweep" not in doc
    assert {key: defaults.get(key, "no such field") for key in doc} == doc


def _provenance(config_path: Path, seed: int) -> dict:
    """experiments.manifest's four values for a config file and a seed."""
    doc = json.loads(config_path.read_text())
    doc.pop("sweep", None)
    return manifest(ModelConfig.from_dict(doc), seed)


@pytest.mark.parametrize("command", [
    ("solve-restricted",), ("solve-complete",), ("simulate", "--episodes", "50"), ("verify",),
    ("calibrate", "--gamma", "0.5"), ("census",), ("sweep",),
], ids=lambda command: command[0])
def test_every_manifest_starts_with_the_provenance_of_its_config_and_seed(
        small_config, tmp_path, command):
    out = tmp_path / "out"
    assert main([*command, "--config", str(small_config), "--out", str(out),
                 "--seed", "3"]) == 0
    written = json.loads((out / "manifest.json").read_text())
    provenance = _provenance(small_config, 3)
    assert list(provenance) == ["build", "config", "config_hash", "seed"]
    assert {key: written[key] for key in provenance} == provenance


def test_a_failing_verify_writes_its_report_and_manifest(small_config, tmp_path,
                                                         monkeypatch, capsys):
    failing = StructureReport(checks={
        "a_monotone_in_b": CheckResult(passed=True, worst=0.0),
        "b_monotone_in_f": CheckResult(passed=False, worst=1.0),
    })
    monkeypatch.setattr(cli, "verify_structure", lambda *a, **k: failing)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(small_config), "--out", str(out),
                 "--seed", "4"]) == 2
    assert "verification FAILED: ['b_monotone_in_f']" in capsys.readouterr().err
    assert json.loads((out / "report.json").read_text()) == failing.to_json()
    written = json.loads((out / "manifest.json").read_text())
    provenance = _provenance(small_config, 4)
    assert {key: written[key] for key in provenance} == provenance
    assert written["status"] == "verification_failed"
    assert written["artifacts"] == ["report.json"]


@pytest.mark.parametrize("command,names", [
    ("simulate", ["estimates.json", "manifest.json"]),
    ("sweep", ["manifest.json", "sweep.csv"]),
])
def test_a_rerun_writes_every_artifact_to_a_fresh_file(small_config, tmp_path,
                                                       command, names):
    # a hard link to an artifact keeps the bytes of the run that wrote it;
    # every artifact of these commands changes with the seed
    out, links = tmp_path / "out", tmp_path / "links"
    links.mkdir()
    argv = [command, "--config", str(small_config), "--out", str(out)]
    if command == "simulate":
        argv += ["--episodes", "50"]
    assert main([*argv, "--seed", "0"]) == 0
    assert sorted(p.name for p in out.iterdir()) == names
    old = {}
    for name in names:
        os.link(out / name, links / name)
        old[name] = (out / name).read_bytes()
    assert main([*argv, "--seed", "1"]) == 0
    for name in names:
        assert (links / name).read_bytes() == old[name]
        assert (out / name).read_bytes() != old[name], name


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


def test_override_without_equals_exits_one(small_config, tmp_path, capsys):
    code = main(["census", "--config", str(small_config), "--out", str(tmp_path / "o"),
                 "--override", "eta5"])
    assert code == 1
    assert capsys.readouterr().err == "error: override 'eta5' is not KEY=VALUE\n"
    assert not (tmp_path / "o").exists()


def test_config_that_is_not_an_object_exits_one(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code = main(["census", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == f"error: config file {path} must hold a JSON object\n"
    assert not (tmp_path / "o").exists()


def test_a_region_grid_past_the_budget_exits_one_before_allocating(tmp_path, capsys):
    # validate admits 3 * 1 * 8,388,609 entries; the 4097 x 4097 region grid
    # is past the budget and is refused before any of it is allocated
    start = time.perf_counter()
    code = main(["solve-restricted", "--config", str(SHIPPED_DEFAULT),
                 "--out", str(tmp_path / "o"), "--override", "n_locations=8388608",
                 "--override", "n_reward_bins=2", "--override", "n_relays=1"])
    assert time.perf_counter() - start < 0.1
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the region grid, 8 floats x its 4097 x 4097 cells = ")
    assert "over the state budget" in err
    assert not (tmp_path / "o").exists()


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


def test_sweep_writes_its_csv_and_manifest(small_config, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(small_config), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "sweep.csv"]
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


UNKNOWN_CALIBRATE = "unknown config keys: ['calibrate']"


# the calibrate block's resolution, eta_lo and eta_hi are removed inputs, so
# each of their bad values is now refused as an unknown config key
@pytest.mark.parametrize("field,args", [
    pytest.param(UNKNOWN_CALIBRATE,
                 ["--gamma", "0.1", "--override", "calibrate.resolution=0"],
                 id="resolution-args0"),
    pytest.param(UNKNOWN_CALIBRATE,
                 ["--gamma", "0.1", "--override", 'calibrate.resolution="0.1"'],
                 id="resolution-args1"),
    pytest.param("target_gamma", ["--gamma", "nan"], id="target_gamma-args2"),
    pytest.param("delta", ["--gamma", "0.1", "--override", "delta=true"], id="delta-args3"),
    pytest.param(UNKNOWN_CALIBRATE,
                 ["--gamma", "0.1", "--override", "calibrate.eta_lo=10.0"],
                 id="eta_lo-args4"),
    pytest.param(UNKNOWN_CALIBRATE, ["--gamma", "0.1", "--override", "calibrate.eta_lo=-1"],
                 id="eta_lo-args5"),
    pytest.param(UNKNOWN_CALIBRATE,
                 ["--gamma", "0.1", "--override", "calibrate.eta_hi=1e999"],
                 id="eta_hi-args6"),
    pytest.param("--gamma", [], id="--gamma-args7"),
    pytest.param("--gamma", ["--gamma"], id="--gamma-args8"),
])
def test_bad_calibrate_values_exit_one(small_config, tmp_path, capsys, field, args):
    out = tmp_path / "out"
    code = main(["calibrate", "--config", str(small_config), "--out", str(out), *args])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not out.exists()


# (block, value, override, what the error says); the block's command reads
# it, and calibrate, which reads no block, refuses one as an unknown key once
# no override has to write into it
@pytest.mark.parametrize("block,value,override,error", [
    pytest.param("calibrate", 5, None, UNKNOWN_CALIBRATE, id="calibrate-5-None"),
    pytest.param("calibrate", 5, "calibrate.delta=0.1",
                 "config block 'calibrate' must be a JSON object",
                 id="calibrate-5-calibrate.delta=0.1"),
    pytest.param("sweep", "eta", None, "config block 'sweep' must be a JSON object",
                 id="sweep-eta-None"),
    pytest.param("sweep", "eta", "sweep.n_episodes=10",
                 "config block 'sweep' must be a JSON object",
                 id="sweep-eta-sweep.n_episodes=10"),
])
def test_block_that_is_not_an_object_exits_one(small_config, tmp_path, capsys, block, value,
                                                override, error):
    doc = json.loads(small_config.read_text())
    doc[block] = value
    small_config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [block, "--config", str(small_config), "--out", str(out)]
    if block == "calibrate":
        argv += ["--gamma", "0.1"]
    if override:
        argv += ["--override", override]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}")
    assert not out.exists()


def test_a_calibrate_block_is_an_unknown_config_key(small_config, tmp_path, capsys):
    # --gamma is calibrate's one input besides the config
    doc = json.loads(small_config.read_text())
    doc["calibrate"] = {"target_gamma": 0.1}
    small_config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["calibrate", "--config", str(small_config), "--out", str(out),
                 "--gamma", "0.1"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {UNKNOWN_CALIBRATE}")
    assert not out.exists()


@pytest.mark.parametrize("field", ["tau", "eta"])
def test_integer_past_the_float_range_exits_one(small_config, tmp_path, capsys, field):
    code = main(["census", "--config", str(small_config), "--out", str(tmp_path / "o"),
                 "--override", f"{field}=1{'0' * 400}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not (tmp_path / "o").exists()


# every number a config or a flag takes: (command, key, argv with {} for the value)
NUMERIC_KEYS = (
    [("census", f.name, ["--override", f"{f.name}={{}}"])
     for f in dataclasses.fields(ModelConfig) if f.type == "float"]
    + [("sweep", key, ["--override", f"sweep.{key}=[1.0, {{}}]"])
       for key in ("eta_values", "delta_values")]
    + [("calibrate", "target_gamma", ["--gamma", "{}"])]
    # calibrate's delta is the config's
    + [("calibrate", "delta", ["--gamma", "0.1", "--override", "delta={}"])]
)
# numbers the calibrate block took before it was removed: any value for them,
# finite or not, is an unknown config key
REMOVED_CALIBRATE_KEYS = [
    ("calibrate", key, ["--gamma", "0.1", "--override", f"calibrate.{key}={{}}"])
    for key in ("eta_lo", "eta_hi", "resolution")
]


@pytest.mark.parametrize("command,key,argv", NUMERIC_KEYS + REMOVED_CALIBRATE_KEYS,
                         ids=[f"{command}-{key}"
                              for command, key, _ in NUMERIC_KEYS + REMOVED_CALIBRATE_KEYS])
@pytest.mark.parametrize("value", ["true", '"x"', "NaN", "Infinity", "1" + "0" * 400],
                         ids=["bool", "str", "nan", "inf", "huge-int"])
def test_every_number_must_be_finite_and_not_a_bool(small_config, tmp_path, capsys, command,
                                                    key, argv, value):
    out = tmp_path / "out"
    code = main([command, "--config", str(small_config), "--out", str(out),
                 *(arg.format(value) for arg in argv)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    if (command, key, argv) in REMOVED_CALIBRATE_KEYS:
        assert err.startswith(f"error: {UNKNOWN_CALIBRATE}"), err
    else:
        assert re.search(rf"\b{key} must be a finite number", err), err
    assert not out.exists()


# every integer that enters from outside: (command, argv with {} for the value,
# what the error names, one below the lowest value, one past the highest value
# or, for the model's sizes and the episode counts, a value past the state budget)
INTEGER_INPUTS = {
    "n_locations": ("census", ["--override", "n_locations={}"], "n_locations", 0, 10 ** 8),
    "n_reward_bins": ("census", ["--override", "n_reward_bins={}"], "n_reward_bins", 1,
                      10 ** 8),
    "n_relays": ("census", ["--override", "n_relays={}"], "n_relays", 0, 10 ** 9),
    "sweep.n_episodes": ("sweep", ["--override", "sweep.n_episodes={}"], "n_episodes", 0,
                         8_333_334),
    "--seed": ("census", ["--seed", "{}"], "--seed", -1, 2 ** 128),
    "--threads": ("census", ["--threads", "{}"], "--threads", 0, None),
    "--episodes": ("simulate", ["--episodes", "{}"], "--episodes", 0, 8_333_334),
}
INTEGER_CASES = [
    (name, value)
    for name, (_, _, _, below, past) in INTEGER_INPUTS.items()
    for value in ("true", "2.5", "3.0", '"x"', str(below)) + (() if past is None else (str(past),))
]


@pytest.mark.parametrize("name,value", INTEGER_CASES,
                         ids=[f"{name}-{value[:12]}" for name, value in INTEGER_CASES])
def test_every_integer_input_is_checked_where_it_enters(small_config, tmp_path, capsys, name,
                                                        value):
    command, argv, named, _, past = INTEGER_INPUTS[name]
    out = tmp_path / "out"
    start = time.perf_counter()
    code = main([command, "--config", str(small_config), "--out", str(out),
                 *(arg.format(value) for arg in argv)])
    assert time.perf_counter() - start < 2.0
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert named in err, err
    # every past value but the seed's is past the state budget
    wanted = "over the state budget" if name != "--seed" and value == str(past) else (
        "must be an integer")
    assert wanted in err, err
    assert not out.exists()


@pytest.mark.parametrize("key,named", [
    ("tau", "tau must be a finite number"),
    ("n_relays", "n_relays must be an integer"),
    ("sweep.n_episodes", "n_episodes must be an integer"),
])
def test_integer_literal_past_the_digit_limit_is_named_by_its_key(small_config, tmp_path,
                                                                   capsys, key, named):
    # json.loads refuses to convert more than 4300 digits; the text then
    # reaches the key's own rule
    out = tmp_path / "out"
    code = main(["sweep" if key.startswith("sweep.") else "census", "--config",
                 str(small_config), "--out", str(out), "--override", f"{key}=1{'0' * 5000}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and "Traceback" not in err
    assert not out.exists()


def test_config_file_with_an_integer_past_the_digit_limit_is_not_valid_json(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(f'{{"n_relays": 1{"0" * 5000}}}')
    out = tmp_path / "out"
    assert main(["census", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {path} is not valid JSON")
    assert not out.exists()


@pytest.mark.parametrize("override,named", [
    ("sweep.seed=3", "seed"),
    ("sweep.threads=2", "threads"),
    ("sweep.base=1", "base"),
    ("calibrate.target_gamma=0.1", "['calibrate']"),
    # the calibrate block is removed, so even the keys the CLI once filled are unknown
    pytest.param("calibrate.config=1", "['calibrate']", id="calibrate.config=1-config"),
    pytest.param("calibrate.delta=0.5", "['calibrate']", id="calibrate.delta=0.5-delta"),
    ("nonsense.x=1", "nonsense"),
    ("eta.x=1", "eta"),
    ("n_relays.x=1", "n_relays"),
    ("sweep.eta_values.x=1", "sweep.eta_values.x"),
])
def test_override_outside_the_config_schema_rejected(small_config, tmp_path, capsys,
                                                     override, named):
    # the CLI fills sweep.seed, sweep.threads and sweep.base from its own
    # flags and the model config, so no block may set them, and calibrate
    # takes its target from --gamma alone
    out = tmp_path / "out"
    code = main(["census", "--config", str(small_config), "--out", str(out),
                 "--override", override])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not out.exists()


def test_calibrate_command(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["calibrate", "--config", str(small_config), "--out", str(out),
                 "--gamma", "0.1"]) == 0
    result = json.loads((out / "calibration.json").read_text())
    assert result["effective_reward"] >= result["target_gamma"]


def test_calibrate_solves_at_the_configs_delta(small_config, tmp_path, capsys):
    # the manifest's config holds the delta the calibration was made at
    out = tmp_path / "out"
    assert main(["calibrate", "--config", str(small_config), "--out", str(out),
                 "--gamma", "0.1", "--override", "delta=0.02"]) == 0
    config = ModelConfig.from_dict(json.loads((out / "manifest.json").read_text())["config"])
    assert config.delta == 0.02
    want = relaymdp.calibrate_eta(0.1, 0.02, config)
    # to_json holds the bracket as a tuple, which JSON writes as a list
    assert (json.loads((out / "calibration.json").read_text())
            == json.loads(json.dumps(want.to_json())))


@pytest.mark.parametrize("command,builds", [
    ("solve-restricted", 1), ("solve-complete", 1), ("simulate", 1), ("verify", 1),
    ("calibrate", 0), ("sweep", 0), ("census", 0),
])
def test_only_the_commands_that_read_the_family_build_it(small_config, tmp_path, monkeypatch,
                                                         command, builds):
    # calibrate_eta and run_sweep build their own; census reads none
    calls = []

    def counted(*args):
        calls.append(args)
        return model.build_ordered_family(*args)

    monkeypatch.setattr(cli, "build_ordered_family", counted)
    gamma = ["--gamma", "0.1"] if command == "calibrate" else []
    assert main([command, "--config", str(small_config), "--out", str(tmp_path / "out"),
                 *gamma]) == 0
    assert len(calls) == builds


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
    # the probe-first levels are held to the values they store: 3 stages of
    # 13 x (1 + 4)
    monkeypatch.setattr(model, "DEFAULT_STATE_BUDGET", 194)
    code = main(["simulate", "--config", str(small_config), "--out", str(tmp_path / "o"),
                 "--policy", "first", "--episodes", "10"])
    assert code == 1
    assert "= 195 memo entries, over the state budget of 194" in capsys.readouterr().err


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
    # the CSV and the manifest are written either way
    assert (out / "sweep.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert [c["status"] for c in manifest["cells"]] == statuses


def test_a_sweep_cell_whose_values_overflow_is_recorded(tmp_path, capsys):
    # eta 1e308 drives the solve's sums past the float range; the eta-1 cell
    # beside it is kept
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "n_locations": 5, "n_reward_bins": 40, "n_relays": 3,
        "sweep": {"eta_values": [1.0, 1e308], "delta_values": [0.1], "policies": ["rst"],
                  "n_episodes": 200},
    }))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    assert "1 sweep cells failed (see manifest)" in capsys.readouterr().err
    cells = json.loads((out / "manifest.json").read_text())["cells"]
    assert [c["status"] for c in cells] == ["ok", "non_finite"]
    assert "overflows float arithmetic" in cells[1]["message"]
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("rst,1.0,0.1,")


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


@pytest.mark.parametrize("command,overrides", [
    ("solve-restricted", ["eta=1e20", "delta=5"]),
    ("verify", ["eta=1e20", "delta=5"]),
    ("sweep", ["sweep.eta_values=[1e20]", "sweep.delta_values=[5]", 'sweep.policies=["rst"]']),
], ids=["solve-restricted", "verify", "sweep"])
def test_non_threshold_set_exits_two(tmp_path, capsys, command, overrides):
    # at this cost scale round-off splits a stopping set (absolute tolerances)
    argv = [command, "--config", str(SHIPPED_DEFAULT), "--out", str(tmp_path / "o")]
    for override in overrides:
        argv += ["--override", override]
    code = main(argv)
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


# (--threads, RELAYMDP_THREADS or None to leave it unset): the CLI reads no
# environment variable, so a good one does not rescue a bad flag
@pytest.mark.parametrize("flag,env", [
    ("0", None), ("-2", None), ("abc", None), ("1.5", None), ("0", "4"),
])
def test_bad_thread_count_exits_one(small_config, tmp_path, capsys, monkeypatch, flag, env):
    if env is not None:
        monkeypatch.setenv("RELAYMDP_THREADS", env)
    argv = ["census", "--config", str(small_config), "--out", str(tmp_path / "o"),
            "--threads", flag]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "threads" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("env", ["abc", "0", ""])
def test_relaymdp_threads_is_not_read(small_config, tmp_path, capsys, monkeypatch, env):
    # it was once the fallback for --threads, which now defaults to 1
    monkeypatch.setenv("RELAYMDP_THREADS", env)
    argv = ["census", "--config", str(small_config), "--out", str(tmp_path / "o")]
    assert cli._build_parser().parse_args(argv).threads == 1
    assert main(argv) == 0

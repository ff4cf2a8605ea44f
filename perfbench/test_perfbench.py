"""Tests of the benchmark's own code: every output check rejects a corrupted
artifact, inputs follow the seed, and span self times add up.

    python3 -m pytest perfbench -q
"""
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import relaymdp  # noqa: E402
import relaymdp.cli  # noqa: E402
from run import tail_percentile  # noqa: E402
from tracing import SpanRecorder  # noqa: E402
from workloads import ROUNDS, Op, Oracle, check_op  # noqa: E402

# a small model so that every CLI command runs in well under a second
SMALL = dict(json.loads((HERE / "reference_config.json").read_text()),
             n_locations=4, n_relays=3)
SMALL_BINS = 20


@pytest.fixture(scope="module")
def oracle():
    return Oracle(relaymdp, SMALL)


def _run(tmp_path: Path, op: Op) -> Path:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL))
    out = tmp_path / op.kind
    assert relaymdp.cli.main(op.argv(config, out)) == 0
    return out


def _edit(path: Path, change) -> None:
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


OPS = {
    "solve-complete": Op("solve-complete", eta=5.0, n_bins=SMALL_BINS),
    "simulate": Op("simulate", eta=5.0, n_bins=SMALL_BINS, policy="glb", episodes=400, mc_seed=7),
    "verify": Op("verify", eta=5.0, n_bins=SMALL_BINS),
    "solve-restricted": Op("solve-restricted", eta=5.0, n_bins=SMALL_BINS),
    "calibrate": Op("calibrate", eta=1.0, n_bins=SMALL_BINS, gamma=0.2),
}

# (op, artifact, corruption) -> the check must report a problem
CORRUPTIONS = [
    ("solve-complete", "summary.json",
     lambda d: d["components"].__setitem__("cost", d["components"]["cost"] + 1e-6)),
    ("solve-complete", "summary.json", lambda d: d["conjectures"].__setitem__("all_hold", False)),
    ("solve-complete", "summary.json", lambda d: d.__setitem__("initial_value", 1.0)),
    ("solve-complete", "summary.json",
     lambda d: d["census"].__setitem__("n_bins", float("nan"))),
    ("simulate", "estimates.json", lambda d: d.__setitem__("mean_cost", d["mean_cost"] + 1.0)),
    ("simulate", "estimates.json", lambda d: d.__setitem__("se_cost", 0.0)),
    ("simulate", "estimates.json", lambda d: d.__setitem__("n", 399)),
    ("simulate", "estimates.json", lambda d: d.__setitem__("mean_D", float("inf"))),
    ("verify", "report.json", lambda d: d["checks"]["f_lipschitz"].__setitem__("passed", False)),
    ("verify", "report.json",
     lambda d: d["checks"]["c_dominance_order"].__setitem__("worst_violation", float("nan"))),
    ("verify", "report.json", lambda d: d["checks"].pop("h_stage_independent_sets")),
    ("verify", "report.json", lambda d: d.__setitem__("passed", False)),
    ("solve-restricted", "summary.json",
     lambda d: d["components"].__setitem__("cost", d["initial_value"] - 1e-6)),
    ("solve-restricted", "tables.json", lambda d: d["j_bf"][0][0].__setitem__(0, None)),
    ("solve-restricted", "tables.json", lambda d: d["cp_bf"][0][0].__setitem__(0, float("inf"))),
    ("solve-restricted", "tables.json", lambda d: d.pop("cc_b")),
    ("calibrate", "calibration.json", lambda d: d.__setitem__("effective_reward", 0.19)),
    ("calibrate", "calibration.json", lambda d: d.__setitem__("eta", float("nan"))),
    ("calibrate", "manifest.json", lambda d: d.__setitem__("status", "verification_failed")),
]


@pytest.mark.parametrize("command", sorted(OPS))
def test_clean_artifacts_pass(tmp_path, oracle, command):
    out = _run(tmp_path, OPS[command])
    problems, info = check_op(OPS[command], out, oracle)
    assert problems == []
    assert info["bytes_written"] > 0


@pytest.mark.parametrize("command, artifact, corrupt", CORRUPTIONS)
def test_corrupted_artifact_fails(tmp_path, oracle, command, artifact, corrupt):
    out = _run(tmp_path, OPS[command])
    _edit(out / artifact, corrupt)
    problems, _ = check_op(OPS[command], out, oracle)
    assert problems


def test_missing_artifact_fails(tmp_path, oracle):
    out = _run(tmp_path, OPS["solve-complete"])
    (out / "summary.json").unlink()
    assert check_op(OPS["solve-complete"], out, oracle)[0]


def test_overflowing_literal_is_non_finite(tmp_path):
    path = tmp_path / "a.json"
    path.write_text('{"x": {"y": [1.0, 1e999]}}')
    doc, problems = checks.load_artifact(path)
    assert problems == []
    assert checks.check_small_doc("a.json", doc) == ["a.json: non-finite value at .x.y[1]"]


def test_reference_comparison():
    assert checks.check_reference("v", -1.0, -1.0) == []
    assert checks.check_reference("v", -1.0 + 1e-8, -1.0)
    assert checks.check_reference("v", None, -1.0)
    assert checks.check_reference("v", float("nan"), -1.0)


@pytest.mark.parametrize("workload", sorted(ROUNDS))
def test_rounds_follow_the_seed_and_cover_every_stratum(workload):
    def draw(seed):
        rng = random.Random(seed)
        return [ROUNDS[workload](rng) for _ in range(3)]

    assert draw(5) == draw(5)
    assert draw(5) != draw(6)
    rounds = draw(5)
    kinds = [sorted(op.kind for op in r) for r in rounds]
    assert kinds[0] == kinds[1] == kinds[2]
    if workload == "solve-complete":
        for r in rounds:  # one stopping eta, one per continuing log-stratum
            etas = sorted(op.eta for op in r)
            assert 0.1 <= etas[0] <= 0.85 < 1.1 <= etas[1] <= 1.1 * (60 / 1.1) ** 0.5 <= etas[2]


def test_tail_percentile_keeps_ten_ops_beyond():
    assert tail_percentile([1.0] * 10) is None
    tail = tail_percentile([float(i) for i in range(100)])
    assert tail == {"percentile": 90, "value_s": 89.0, "samples": 100}
    tail = tail_percentile([float(i) for i in range(24)])
    assert 24 - tail["value_s"] - 1 >= 10


def test_span_self_time_excludes_children():
    rec = SpanRecorder()
    rec.op = 0
    with rec.span("cli.main"):
        with rec.span("a.f"):
            with rec.span("b.g"):
                pass
        with rec.span("b.g"):
            pass
    s = rec.summary()
    a = rec.arrays()
    dur = a["end"] - a["start"]
    assert s["b.g"]["calls"] == 2
    assert s["cli.main"]["self_s"] == pytest.approx(dur[0] - dur[1] - dur[3])
    assert s["a.f"]["self_s"] == pytest.approx(dur[1] - dur[2])
    assert list(a["parent"]) == [-1, 0, 1, 0]
    assert np.all(dur >= 0)


def test_wrappers_record_where_the_caller_binds_and_restore():
    original = relaymdp.cli.solve_complete
    rec = SpanRecorder()
    with rec.installed(relaymdp):
        assert relaymdp.cli.solve_complete is not original
        assert relaymdp.simulate.sample_episode.__wrapped__ is not None
    assert relaymdp.cli.solve_complete is original

"""relaymdp benchmark: the real CLI path, in-process, one op per CLI call.

    python3 perfbench/run.py --workload <solve-complete|simulate-mc|rst-verify>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the package is imported from ``src/``.  Every
op calls ``relaymdp.cli.main(argv)`` with ``--threads 1`` and has its
artifacts checked outside timing.  Ops run in rounds drawn from the seed
(see ``workloads.py``) until ``--seconds`` have passed, finishing the round.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every op
twice, untraced and traced in alternating order, and prints the per-layer
metrics from the spans, the tracing overhead and, from a separate
tracemalloc pass, allocation peaks.  The last stdout line is the result
object; the line before it holds details and provenance.  Outputs, spans and
results go to ``.perfbench_out/`` under the root.
"""
import os

# pin every thread pool before numpy loads, here and in the set-up probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "RELAYMDP_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
from checks import check_reference  # noqa: E402
from tracing import AllocPeaks, SpanRecorder  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_BINS,
    REFERENCE_OPS,
    RESTRICTED_BINS,
    ROUNDS,
    Oracle,
    check_op,
    uses_complete_class,
)


class MissingPackageError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def require_package() -> None:
    if not (ROOT / "src" / "relaymdp" / "__init__.py").is_file():
        raise MissingPackageError(f"no relaymdp package under {ROOT / 'src'}")


def import_package():
    require_package()
    sys.path.insert(0, str(ROOT / "src"))
    import relaymdp
    import relaymdp.cli

    if Path(relaymdp.__file__).resolve().parent != (ROOT / "src" / "relaymdp").resolve():
        raise MissingPackageError(f"relaymdp imported from {relaymdp.__file__}, not {ROOT}/src")
    return relaymdp


def workload_bins(workload: str) -> int:
    return RESTRICTED_BINS if workload == "rst-verify" else REFERENCE_BINS


def probe_setup(workload: str) -> float:
    """Seconds from starting a fresh interpreter to a CLI user's set-up done."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT),
           str(workload_bins(workload)), "1" if uses_complete_class(workload) else "0"]
    t0 = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(done.stdout.strip().splitlines()[-1]) - t0


def run_cli(cli, op, config_path: Path, out_dir: Path,
            span=contextlib.nullcontext) -> tuple[float, str | None]:
    """Run one CLI call in-process inside ``span()``; return its latency and
    an error, if any."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = op.argv(config_path, out_dir)
    sink = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span():
            rc = cli.main(argv)
    except Exception as err:  # an op that raises is a failed op, not a crash
        rc, error = None, f"raised {err!r}"
    seconds = time.perf_counter() - t0
    if error is None and rc != 0:
        error = f"exit code {rc}: {sink.getvalue().strip()[-300:]}"
    return seconds, error


def tail_percentile(latencies: list[float]) -> dict | None:
    """Highest integer percentile (nearest rank) with >= 10 ops beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if rank >= 1 and n - rank >= 10:
            return {"percentile": pct, "value_s": ordered[rank - 1], "samples": n}
    return None


def git_revision() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(args, numpy_version: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(), "src_sha256": digest.hexdigest(),
        "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "RELAYMDP_THREADS")},
    }


class Bench:
    def __init__(self, args, relaymdp):
        self.args = args
        self.relaymdp = relaymdp
        self.cli = relaymdp.cli
        self.dir = OUT / args.workload
        self.dir.mkdir(parents=True, exist_ok=True)
        base = json.loads((HERE / "reference_config.json").read_text())
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(base, indent=2))
        self.out_dir = self.dir / "op"
        self.oracle = Oracle(relaymdp, base)
        self.problems: list[str] = []

    def execute(self, op, recorder=None, op_id=-1) -> dict:
        if recorder is None:
            seconds, error = run_cli(self.cli, op, self.config_path, self.out_dir)
        else:
            recorder.op = op_id
            with recorder.installed(self.relaymdp):
                seconds, error = run_cli(self.cli, op, self.config_path, self.out_dir,
                                         span=lambda: recorder.span("cli.main"))
            recorder.op = -1
        problems, info = ([error], {}) if error else check_op(op, self.out_dir, self.oracle)
        for p in problems:
            self.problems.append(f"{op.kind} eta={op.eta!r}: {p}")
        return {"kind": op.kind, "eta": op.eta, "seconds": seconds, "ok": not problems,
                "info": info}

    def in_process_setup(self) -> dict:
        """The set-up a CLI call repeats, timed once in this process."""
        r = self.relaymdp
        config = self.oracle.config(REFERENCE_OPS[self.args.workload][0])
        grid = r.build_forwarding_region(config)
        t0 = time.perf_counter()
        family = r.build_ordered_family(grid, config)
        t1 = time.perf_counter()
        if uses_complete_class(self.args.workload):
            r.dp_complete.multiset_space(len(family), config.n_relays)
        t2 = time.perf_counter()
        return {"build_ordered_family_s": t1 - t0, "multiset_space_cold_s": t2 - t1}

    def reference_ops(self) -> dict:
        """Untimed first ops on fixed inputs, compared with reference.json."""
        expected = json.loads((HERE / "reference.json").read_text())[self.args.workload]
        warmup = {}
        for op in REFERENCE_OPS[self.args.workload]:
            rec = self.execute(op)
            warmup[op.kind] = rec["seconds"]
            if op.kind in expected:
                self.problems += check_reference(
                    f"reference {op.kind}", rec["info"].get("value"), expected[op.kind])
        return warmup

    def measured(self, recorder=None, setup_samples=None) -> list[dict]:
        """Whole rounds until ``--seconds`` have passed.  Without tracing, one
        set-up probe runs before each round, so the probes sample the same
        stretch of time as the ops."""
        rng = random.Random(self.args.seed)
        make_round = ROUNDS[self.args.workload]
        records = []
        t_start = time.perf_counter()
        while True:
            if recorder is None:
                setup_samples.append(probe_setup(self.args.workload))
            for op in make_round(rng):
                if recorder is None:
                    records.append(self.execute(op))
                    continue
                op_id = len(records)
                order = (False, True) if op_id % 2 == 0 else (True, False)
                pair = {}
                for traced in order:
                    pair[traced] = self.execute(op, recorder if traced else None, op_id)
                pair[True]["untraced_seconds"] = pair[False]["seconds"]
                pair[True]["ok"] = pair[True]["ok"] and pair[False]["ok"]
                records.append(pair[True])
            if time.perf_counter() - t_start >= self.args.seconds:
                return records

    def alloc_pass(self) -> dict:
        peaks = AllocPeaks()
        with peaks.installed(self.relaymdp):
            for op in REFERENCE_OPS[self.args.workload]:
                self.execute(op)
        return peaks.peak_mb


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end(records: list[dict], setup: list[float]) -> dict:
    lat = [r["seconds"] for r in records]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "ops/s"},
        "op_p50_s": {"value": statistics.median(lat), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def workload_properties(records: list[dict], states: int) -> dict:
    complete = [r for r in records if r["kind"] == "solve-complete"]
    sims = [r for r in records if r["kind"].startswith("simulate")]
    episodes = sum(r["info"].get("episodes", 0) for r in sims)
    return {
        "continuing_share": _mean(r["info"].get("continuing", False) for r in complete),
        "states": states,
        "bytes_written_per_op": _mean(r["info"].get("bytes_written", 0) for r in records),
        "episodes_per_s": episodes / sum(r["seconds"] for r in sims) if sims else 0.0,
    }


PER_LAYER_CALLS = (
    "dp_complete.solve_complete", "experiments.complete_components",
    "dp_restricted.act", "dp_complete.act_complete", "dp_restricted.backward_induction",
)
PER_LAYER_TOTAL = (
    "dp_complete.solve_complete", "dp_complete.verify_complete_conjectures",
    "experiments.complete_components", "simulate.monte_carlo", "dp_restricted.act",
    "dp_complete.act_complete", "dp_restricted.backward_induction",
    "dp_restricted.extract_thresholds", "experiments.restricted_components",
    "experiments.calibrate_eta", "dp_restricted.verify_structure",
)
PER_LAYER_SELF = (
    "dp_complete.solve_complete", "simulate.sample_episode", "simulate.run_policy", "cli.main",
)


def per_layer(records: list[dict], spans: dict, setup: dict, peaks: dict, states: int) -> dict:
    n_ops = len(records)

    def stat(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0) / n_ops

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {}
    for name in PER_LAYER_CALLS:
        m[f"{name}.calls"] = (stat(name, "calls"), "calls/op")
    for name in PER_LAYER_TOTAL:
        m[f"{name}.total_s"] = (stat(name, "total_s"), "s/op")
    for name in PER_LAYER_SELF:
        m[f"{name}.self_s"] = (stat(name, "self_s"), "s/op")
    m["model.build_ordered_family.total_s"] = (setup["build_ordered_family_s"], "s")
    m["dp_complete.multiset_space.total_s"] = (setup["multiset_space_cold_s"], "s")

    solve_calls = spans.get("dp_complete.solve_complete", {}).get("calls", 0)
    solve_s = spans.get("dp_complete.solve_complete", {}).get("total_s", 0.0)
    m["dp_complete.solve_complete.peak_alloc_mb"] = (
        peaks.get("dp_complete.solve_complete", 0.0), "MB")
    m["dp_complete.states"] = (states if solve_calls else 0, "count")
    m["dp_complete.states_per_s"] = (ratio(states * solve_calls, solve_s), "1/s")
    m["dp_complete.conjectures_over_solve"] = (
        ratio(stat("dp_complete.verify_complete_conjectures", "total_s"),
              stat("dp_complete.solve_complete", "total_s")), "ratio")

    props = workload_properties(records, states)
    m["experiments.complete_components.continuing_share"] = (props["continuing_share"], "ratio")

    episodes = sum(r["info"].get("episodes", 0) for r in records)
    decisions = sum(spans.get(n, {}).get("calls", 0)
                    for n in ("dp_restricted.act", "dp_complete.act_complete"))
    m["simulate.episodes"] = (episodes / n_ops, "count/op")
    m["simulate.us_per_episode"] = (
        1e6 * ratio(spans.get("simulate.monte_carlo", {}).get("total_s", 0.0), episodes), "us")
    m["simulate.decisions_per_episode"] = (ratio(decisions, episodes), "count/episode")

    calibrations = [r["info"]["evaluations"] for r in records if "evaluations" in r["info"]]
    m["experiments.calibrate_eta.evaluations"] = (_mean(calibrations), "count/call")
    m["dp_restricted.verify_structure.peak_alloc_mb"] = (
        peaks.get("dp_restricted.verify_structure", 0.0), "MB")
    m["cli.bytes_written"] = (props["bytes_written_per_op"], "B/op")

    traced = sum(r["seconds"] for r in records)
    untraced = sum(r["untraced_seconds"] for r in records)
    m["trace.overhead_s"] = ((traced - untraced) / n_ops, "s/op")
    m["trace.overhead_share"] = (ratio(traced - untraced, untraced), "ratio")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def kind_medians(records: list[dict]) -> dict:
    kinds = sorted({r["kind"] for r in records})
    return {k: statistics.median(r["seconds"] for r in records if r["kind"] == k)
            for k in kinds}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_package()
    except MissingPackageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # the first probe runs before this process has imported (and byte-compiled)
    # the package, so it shows the cold-process effect
    setup_samples = [] if args.trace else [probe_setup(args.workload)]
    t0 = time.perf_counter()
    try:
        relaymdp = import_package()
    except (MissingPackageError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    bench = Bench(args, relaymdp)
    setup = bench.in_process_setup()
    warmup = bench.reference_ops()
    ref = bench.oracle.config(REFERENCE_OPS["solve-complete"][0])
    states = relaymdp.dp_complete.projected_state_count(
        ref.n_locations, ref.n_reward_bins, ref.n_relays)

    recorder = SpanRecorder() if args.trace else None
    records = bench.measured(recorder, setup_samples)
    while not args.trace and len(setup_samples) < SETUP_PROBES:
        setup_samples.append(probe_setup(args.workload))
    medians = kind_medians(records)
    failed = sum(not r["ok"] for r in records)
    detail = {
        "provenance": provenance(args, numpy.__version__),
        "ops": len(records),
        "ops_by_kind": {k: sum(r["kind"] == k for r in records) for k in medians},
        "op_p50_s_by_kind": medians,
        "warmup_s": warmup,
        "warmup_over_p50": {k: v / medians[k] for k, v in warmup.items() if k in medians},
        "import_s": import_s,
        "in_process_setup": setup,
        "properties": workload_properties(records, states),
        "latencies_s": [[r["kind"], r["eta"], r["seconds"]] for r in records],
        "problems": bench.problems[:20],
    }
    if args.trace:
        detail["alloc_peaks_mb"] = peaks = bench.alloc_pass()
        metrics = per_layer(records, recorder.summary(), setup, peaks, states)
        spans_path = OUT / "trace" / f"spans-{args.workload}-seed{args.seed}.npz"
        recorder.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = end_to_end(records, setup_samples)
        lat = [r["seconds"] for r in records]
        detail["setup_samples_s"] = setup_samples
        detail["setup_first_over_median"] = setup_samples[0] / statistics.median(setup_samples)
        detail["op_tail_s"] = tail_percentile(lat)
        detail["failed_op_share"] = failed / len(records)

    result = {
        "correct": not bench.problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=2) + "\n")
    for problem in bench.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

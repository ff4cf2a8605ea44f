"""Regenerate reference.json: DP values of the fixed first ops of each
workload (``workloads.REFERENCE_OPS``), computed through the library rather
than the CLI.  The benchmark compares the CLI's artifacts against them.

    python3 perfbench/make_reference.py
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import relaymdp  # noqa: E402
from workloads import REFERENCE_OPS, Oracle  # noqa: E402


def main() -> None:
    base = json.loads((HERE / "reference_config.json").read_text())
    oracle = Oracle(relaymdp, base)
    reference = {}
    for workload, ops in REFERENCE_OPS.items():
        values = {}
        for op in ops:
            if op.command == "solve-complete":
                values[op.kind] = oracle.dp_value(op, "glb")
            elif op.command == "simulate":
                values[op.kind] = oracle.dp_value(op, op.policy)
            elif op.command == "solve-restricted":
                values[op.kind] = oracle.dp_value(op, "rst")
            elif op.command == "calibrate":
                config = oracle.config(op)
                values[op.kind] = relaymdp.calibrate_eta(op.gamma, op.delta, config).eta
        reference[workload] = values
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    main()

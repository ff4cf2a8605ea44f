"""The traced benchmark run (perfbench/tracing.py) wraps package functions
where their callers look them up, by (module, name), and the benchmark reads
more names directly.  A refactor that drops one of them breaks the benchmark,
so it must fail here too."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    missing = []
    for table in (tracing.WRAPPED, tracing.ALLOC_WRAPPED):
        for module_name, names in table.items():
            module = importlib.import_module(f"relaymdp.{module_name}")
            missing += [
                f"relaymdp.{module_name}.{name}"
                for name in names
                if not callable(getattr(module, name, None))
            ]
    assert not missing, missing


# names perfbench/ reads outside the tracing tables: the workloads' oracle,
# the set-up probe and the runner
READ_DIRECTLY = (
    "ModelConfig", "build_forwarding_region", "build_ordered_family", "backward_induction",
    "solve_complete", "restricted_initial_value", "complete_initial_value", "calibrate_eta",
    "experiments.baseline_components", "dp_complete.projected_state_count",
    "dp_complete.multiset_space", "model.ModelConfig", "model.build_forwarding_region",
    "model.build_ordered_family", "cli.main",
)


def test_every_name_read_directly_resolves():
    missing = []
    for dotted in READ_DIRECTLY:
        *modules, name = dotted.split(".")
        owner = importlib.import_module(".".join(["relaymdp", *modules]))
        if not callable(getattr(owner, name, None)):
            missing.append(f"relaymdp.{dotted}")
    assert not missing, missing

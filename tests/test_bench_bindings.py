"""The traced benchmark run (perfbench/tracing.py) wraps package functions
where their callers look them up, by (module, name), and the benchmark reads
more names directly.  A refactor that drops one of them breaks the benchmark,
so it must fail here too."""
import importlib
import importlib.util
from pathlib import Path

import numpy as np

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


CHECKS = TRACING.parent / "checks.py"


def test_restricted_tables_expose_every_checked_table():
    # perfbench's oracle reads these off backward_induction's result by name
    # to count the +inf sentinels that tables.json must hold as nulls
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)

    from relaymdp import ModelConfig, backward_induction, build_forwarding_region
    from relaymdp import build_ordered_family

    config = ModelConfig(n_locations=4, n_reward_bins=6, n_relays=3).validate()
    family = build_ordered_family(build_forwarding_region(config), config)
    tables = backward_induction(family, config)
    shapes = {(3, 7), (3, 7, 4)}  # (N, B+1) or (N, B+1, L)
    for key in checks.TABLE_KEYS:
        table = getattr(tables, key)
        assert isinstance(table, np.ndarray) and table.dtype.kind == "f", key
        assert table.shape in shapes, (key, table.shape)

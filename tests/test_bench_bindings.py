"""The traced benchmark run (perfbench/tracing.py) wraps package functions
where their callers look them up, by (module, name).  A refactor that drops
one of those bindings breaks the traced run, so it must fail here too."""
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

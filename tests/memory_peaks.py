"""Print the tracemalloc peaks of the complete-class path, so that two trees
can be compared on numbers that repeat exactly from run to run.

Run from the repository root:

    PYTHONPATH=src python tests/memory_peaks.py

For the reference config (20 locations, 100 bins) at eta 10 and delta 0.1,
with 5, 6 and 7 relays, one line per relay count gives, in bytes:

- tables: the value, action and overflow arrays the solve keeps;
- solve: the peak of ``solve_complete``, tables included, with the multiset
  space and the ranked members already cached by an earlier solve;
- sweep: the peak of ``complete_components`` above the tables it reads;
- report: the peak of ``verify_complete_conjectures`` above the tables;
- op: the largest of solve, tables + sweep and tables + report, the three
  phases that CLI ``solve-complete`` runs.

Seven relays hold about 280 MB of tables and peak near 0.5 GB.  The
allocation tests read their peaks through ``traced_peak`` and
``table_bytes``.
"""
import gc
import tracemalloc

from relaymdp import ModelConfig, build_forwarding_region, build_ordered_family
from relaymdp.dp_complete import solve_complete, verify_complete_conjectures
from relaymdp.experiments import complete_components

RELAYS = (5, 6, 7)


def traced_peak(call) -> tuple[int, object]:
    """The tracemalloc peak of one call, in bytes, and its result."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def table_bytes(tables) -> int:
    arrays = [a for stage in tables.values + tables.actions for a in stage]
    arrays += [kept for kept in tables.kept if kept is not None]
    return sum(a.nbytes for a in arrays)


def peaks(n_relays: int) -> dict:
    config = ModelConfig(n_relays=n_relays, eta=10.0, delta=0.1).validate()
    family = build_ordered_family(build_forwarding_region(config), config)
    solve_complete(family, config)  # caches the multiset space and ranked members
    solve, tables = traced_peak(lambda: solve_complete(family, config))
    held = table_bytes(tables)
    sweep = traced_peak(lambda: complete_components(tables))[0]
    report = traced_peak(lambda: verify_complete_conjectures(tables))[0]
    return {"tables": held, "solve": solve, "sweep": sweep, "report": report,
            "op": max(solve, held + sweep, held + report)}


def main() -> None:
    for n_relays in RELAYS:
        line = " ".join(f"{key} {value:,}" for key, value in peaks(n_relays).items())
        print(f"relays {n_relays}: {line}", flush=True)


if __name__ == "__main__":
    main()

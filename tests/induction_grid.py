"""Print one digest line per solve of the shared induction over a grid of
configs, so that two trees can be compared table for table.

Run from the repository root of each tree, then diff the outputs:

    PYTHONPATH=src python tests/induction_grid.py 1400 > tables.txt

The grid crosses 12, 25, 40, 100 and 400 bins, 3 to 6 relays, 6 to 20
locations, eta from 0 to 1e3, delta from 0 to 1 and capacities 1, 2 and N,
in a fixed shuffled order, and skips the cells whose tables would hold more
than 3M entries.  Each line names its cell and gives a SHA-256 prefix of
every value, action and kept-row array, with their shapes, so two trees
print the same line exactly when their tables are bitwise equal.
"""
import hashlib
import itertools
import random
import sys

from relaymdp import ModelConfig, build_forwarding_region, build_ordered_family
from relaymdp.dp_complete import _induction, _projected_states
from relaymdp.model import TotalOrderError

BINS = (12, 25, 40, 100, 400)
RELAYS = (3, 4, 5, 6)
LOCATIONS = (6, 8, 10, 14, 20)
ETAS = (0.0, 0.3, 1.0, 3.0, 10.0, 60.0, 1000.0)
DELTAS = (0.0, 0.001, 0.01, 0.1, 0.3, 1.0)
CAPACITIES = ("1", "2", "N")
MAX_STATES = 3_000_000


def digest(tables) -> str:
    h = hashlib.sha256()
    arrays = [a for stage in tables.values + tables.actions for a in stage]
    for array in arrays + [kept for kept in tables.kept if kept is not None]:
        h.update(str(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def main(n_solves: int) -> None:
    cells = list(itertools.product(BINS, RELAYS, LOCATIONS, ETAS, DELTAS, CAPACITIES))
    random.Random(7).shuffle(cells)
    families, done = {}, 0
    for n_bins, n_relays, n_locations, eta, delta, cap in cells:
        config = ModelConfig(n_reward_bins=n_bins, n_relays=n_relays, n_locations=n_locations,
                             eta=eta, delta=delta)
        if (n_bins, n_locations) not in families:
            try:
                families[n_bins, n_locations] = build_ordered_family(
                    build_forwarding_region(config), config)
            except TotalOrderError:
                families[n_bins, n_locations] = None
        family = families[n_bins, n_locations]
        capacity = n_relays if cap == "N" else int(cap)
        if family is None or _projected_states(len(family), n_bins, n_relays,
                                               capacity) > MAX_STATES:
            continue
        tables = _induction(family, config, capacity)
        print(n_bins, n_relays, n_locations, eta, delta, cap, digest(tables), flush=True)
        done += 1
        if done == n_solves:
            break


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1400)

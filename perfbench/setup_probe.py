"""One CLI user's set-up, in a fresh process.

Imports the package the way the ``relaymdp`` entry point does, builds the
forwarding region and the ordered family, and, for workloads that solve the
complete class, the cold multiset space.  Prints ``time.monotonic()`` when
done, which the parent compares with the moment it started this process.

    python3 perfbench/setup_probe.py <repo root> <n_reward_bins> <0|1 complete>
"""
import json
import sys
import time
from pathlib import Path


def main() -> None:
    root, n_bins, complete = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "1"
    sys.path.insert(0, str(root / "src"))
    import relaymdp.cli  # noqa: F401  (the entry point's import cost)
    from relaymdp.dp_complete import multiset_space
    from relaymdp.model import ModelConfig, build_forwarding_region, build_ordered_family

    doc = json.loads((Path(__file__).parent / "reference_config.json").read_text())
    config = ModelConfig.from_dict(dict(doc, n_reward_bins=n_bins))
    family = build_ordered_family(build_forwarding_region(config), config)
    if complete:
        multiset_space(len(family), config.n_relays)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()

"""Print SHA-256 digests of what the solvers, the exact sweep and the replay
engine compute on a fixed grid, so that two trees can be shown to behave the
same byte for byte.

Run from the repository root:

    PYTHONPATH=src python tests/behaviour_digest.py

The grid is the reference config (20 locations, 100 bins, 5 relays) at the
20 etas of ``default_eta_grid`` times delta 0.1, 0.01 and 0: 60 cells.  For
each policy, rst (capacity 1), c2 (capacity 2), glb (capacity N) and first
(the probe-first baseline), one line per kind digests, over every cell in
grid order:

- tables: the value, action and overflow (``kept``) arrays of every level;
- components: ``repr`` of the exact sweep's mass fields, ``waiting``,
  ``mean_delay``, ``reward`` and ``stopped_mass``, which move when the
  float sums that build a level's mass change order;
- probe-count: ``repr`` of its fields read off the probe count, ``probes``,
  ``probing_cost``, ``effective_reward`` and ``cost``, which move with those
  sums too, and also when only the probe count's own sum changes order;
- episodes: the ``episode_outcomes`` arrays of 5000 episodes under seed 7.

One ``estimates`` line digests the JSON of ``monte_carlo`` over those
episodes (the ``to_json`` that ``estimates.json`` holds) for every policy
and cell.

Every array enters with its dtype and shape.  A ``costs`` line digests rst's
stagewise ``j_b``, ``j_bf``, ``cc_b``, ``cc_bf`` and ``cp_bf`` over the same
cells, the costs that ``verify_structure`` reads, and a ``thresholds`` line
the seven arrays of rst's ``extract_thresholds`` (``x``, ``x_l``, ``y_l``
and the four set masks) over them.  A ``reports`` line
digests, over the same cells, the JSON of ``verify_structure`` on rst and of
``verify_complete_conjectures`` on rst, c2 and glb.  One more line,
``artifacts``, digests the bytes of every file that the CLI commands
``solve-restricted``, ``verify``, ``solve-complete --export-policy``,
``calibrate --gamma 0.5``, ``census`` and a 2-cell ``sweep`` write on one
small fixed config, each under its command and file name.  Two last
``tables`` lines, L3-c2 and L3-cN, digest the levels of capacity 2 and N on
a small config (3 locations, 40 bins, 4 relays) over the same 60 cells:
there every level of the none row alone sums a plane of fewer (type, row)
pairs than bins (9, 18 and 30), which the reference grid never does.  The
script takes no options and pytest does not collect it.
"""
import contextlib
import dataclasses
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from relaymdp.cli import main as cli_main
from relaymdp.dp_complete import _induction, verify_complete_conjectures
from relaymdp.dp_restricted import ThresholdSummary, extract_thresholds, verify_structure
from relaymdp.experiments import complete_components, default_eta_grid, policy_levels
from relaymdp.model import ModelConfig, build_forwarding_region, build_ordered_family
from relaymdp.simulate import episode_outcomes, monte_carlo

POLICIES = ("rst", "c2", "glb", "first")
KINDS = ("tables", "components", "probe-count", "episodes")
# the PolicyComponents fields of each digest line
COMPONENT_FIELDS = {
    "components": ("waiting", "mean_delay", "reward", "stopped_mass"),
    "probe-count": ("probes", "probing_cost", "effective_reward", "cost"),
}
DELTAS = (0.1, 0.01, 0.0)
EPISODES, SEED = 5000, 7


def update(digest, array) -> None:
    if array is None:
        digest.update(b"None")
        return
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(np.ascontiguousarray(array).tobytes())


def levels_of(policy, family, config):
    if policy == "c2":
        return _induction(family, config, 2)
    return policy_levels(policy, family, config)


NARROW = {"n_locations": 3, "n_reward_bins": 40, "n_relays": 4}


def update_tables(digest, levels) -> None:
    for stage in levels.values + levels.actions:
        for level in stage:
            update(digest, level)
    for kept in levels.kept:
        update(digest, kept)


def narrow_digests() -> dict:
    base = ModelConfig(**NARROW).validate()
    family = build_ordered_family(build_forwarding_region(base), base)
    digests = {name: hashlib.sha256() for name in ("L3-c2", "L3-cN")}
    for delta in DELTAS:
        for eta in default_eta_grid():
            config = base.with_overrides(eta=eta, delta=delta)
            for name, capacity in (("L3-c2", 2), ("L3-cN", config.n_relays)):
                update_tables(digests[name], _induction(family, config, capacity))
    return digests


ARTIFACT_CONFIG = {
    "n_locations": 5, "n_reward_bins": 40, "n_relays": 3, "eta": 5.0, "delta": 0.1,
    "sweep": {"eta_values": [1.0, 5.0], "delta_values": [0.1], "policies": ["rst"],
              "n_episodes": 200},
}
ARTIFACT_COMMANDS = (
    ("solve-restricted",), ("verify",), ("solve-complete", "--export-policy"),
    ("calibrate", "--gamma", "0.5"), ("census",), ("sweep",),
)


def artifacts_digest() -> str:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(ARTIFACT_CONFIG))
        for command in ARTIFACT_COMMANDS:
            out = Path(tmp) / command[0]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([*command, "--config", str(config), "--out", str(out)])
            if code != 0:
                raise SystemExit(f"relaymdp {' '.join(command)} failed")
            for path in sorted(out.iterdir()):
                digest.update(f"{command[0]}/{path.name}\n".encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def main() -> None:
    base = ModelConfig().validate()
    family = build_ordered_family(build_forwarding_region(base), base)
    digests = {(kind, policy): hashlib.sha256() for kind in KINDS for policy in POLICIES}
    costs, thresholds, reports = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    estimates = hashlib.sha256()
    for delta in DELTAS:
        for eta in default_eta_grid():
            config = base.with_overrides(eta=eta, delta=delta)
            for policy in POLICIES:
                levels = levels_of(policy, family, config)
                update_tables(digests["tables", policy], levels)
                comps = complete_components(levels)
                for kind, names in COMPONENT_FIELDS.items():
                    digests[kind, policy].update(
                        repr(tuple(getattr(comps, name) for name in names)).encode())
                if policy == "rst":
                    for name in ("j_b", "j_bf", "cc_b", "cc_bf", "cp_bf"):
                        update(costs, getattr(levels, name))
                    summary = extract_thresholds(levels)
                    for field in dataclasses.fields(ThresholdSummary):
                        update(thresholds, getattr(summary, field.name))
                    reports.update(json.dumps(verify_structure(levels).to_json(),
                                              sort_keys=True).encode())
                if policy != "first":
                    reports.update(json.dumps(verify_complete_conjectures(levels),
                                              sort_keys=True).encode())
                outcomes = episode_outcomes(levels, EPISODES, SEED)
                for field in dataclasses.fields(outcomes):
                    update(digests["episodes", policy], getattr(outcomes, field.name))
                estimates.update(json.dumps(monte_carlo(levels, EPISODES, SEED).to_json(),
                                            sort_keys=True).encode())
    for (kind, policy), digest in digests.items():
        print(f"{kind:<10} {policy:<5} {digest.hexdigest()}")
    print(f"{'costs':<10} {'rst':<5} {costs.hexdigest()}")
    print(f"{'thresholds':<10} {'rst':<5} {thresholds.hexdigest()}")
    print(f"{'reports':<10} {'all':<5} {reports.hexdigest()}")
    print(f"{'estimates':<10} {'all':<5} {estimates.hexdigest()}")
    print(f"{'artifacts':<10} {'cli':<5} {artifacts_digest()}")
    for name, digest in narrow_digests().items():
        print(f"{'tables':<10} {name:<5} {digest.hexdigest()}")


if __name__ == "__main__":
    main()

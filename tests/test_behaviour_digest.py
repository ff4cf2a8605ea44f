"""``tests/behaviour_digest.py``, the script that shows two trees behave the
same, still runs: its artifact digest is the same on a second run, so every
CLI artifact is deterministic, and its narrow-grid digests are computed."""
import importlib.util
from pathlib import Path


def _load_script():
    path = Path(__file__).with_name("behaviour_digest.py")
    spec = importlib.util.spec_from_file_location("behaviour_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_digest_script_runs_and_its_artifacts_are_deterministic():
    script = _load_script()
    first = script.artifacts_digest()
    assert len(first) == 64
    assert script.artifacts_digest() == first
    digests = script.narrow_digests()
    assert sorted(digests) == ["L3-c2", "L3-cN"]
    assert digests["L3-c2"].hexdigest() != digests["L3-cN"].hexdigest()

"""``experiments.write_json`` writes exactly what ``json.dump(payload, fh,
indent=2, sort_keys=True)`` and a newline would, each array first turned into
``tolist()`` with a float array's +inf entries as None, on random payloads and
on the CLI's own artifact payloads."""
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from relaymdp.dp_complete import policy_to_json, solve_complete
from relaymdp.dp_restricted import backward_induction, extract_thresholds, tables_to_json
from relaymdp.experiments import write_json
from relaymdp.model import ModelConfig, build_forwarding_region, build_ordered_family, family_to_json

from conftest import small_instance

EDGE_FLOATS = (-0.0, 0.0, 5e-324, 1e16, 1e-5, math.nan, math.inf, -math.inf)
# few enough that lists of floats share values, and so the writer's cache
floats = st.sampled_from(EDGE_FLOATS + (1.0, 0.1, -2.5)) | st.floats()
numbers = floats | st.integers() | st.booleans() | st.none() | st.sampled_from((1, 1.0, True))
strings = st.sampled_from(("a, b", '"quoted", "twice"', "ü€ 中", "", "line\nbreak")) | st.text()
# 0-d arrays and axes of length 0 and 1 among them
shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
arrays = (
    hnp.arrays(np.float64, shapes, elements=floats)
    | hnp.arrays(np.float32, shapes, elements=st.floats(width=32))
    | hnp.arrays(st.sampled_from((np.int8, np.intp, np.uint8, np.bool_)), shapes)
)
payloads = st.recursive(
    numbers | strings | arrays,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(floats | st.none(), max_size=8)
        | st.lists(numbers, max_size=8)
        | st.dictionaries(strings, inner, max_size=5)
    ),
    max_leaves=40,
)


def listed(array: np.ndarray):
    """An array as ``json.dump`` takes it: its ``tolist()``, with a float
    array's +inf entries as None."""
    if array.dtype.kind == "f":
        return np.where(np.isposinf(array), None, array).tolist()
    return array.tolist()


def expected(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True, default=listed) + "\n").encode()


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("write_json") / "payload.json"


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_writes_the_bytes_of_json_dump(path, payload):
    write_json(path, payload)
    assert path.read_bytes() == expected(payload)


@pytest.mark.parametrize("payload", [
    {"floats": [1.0, 1.0], "ints": [1, True, 1.0], "bools": [True, 1]},
    [[1.0, -0.0, 0.0], [0.0, -0.0, 1], [True, 1.0, None]],
    {"edges": list(EDGE_FLOATS), "again": list(EDGE_FLOATS)[::-1]},
    {"": {}, "empty": [], "nested": [[], {}, [[]], {"a": []}], "tuple": (1.5, [2.5])},
    {"text": ["a, b", "\"q\"", "ü"], "int keys": {3: [0.5, 1.5], 1: {"x": 2.5}}},
    {"edges": np.array(EDGE_FLOATS), "grid": np.array([EDGE_FLOATS, EDGE_FLOATS[::-1]])},
    {"shared": [0.1, 2.5, 0.1], "one": np.array([0.1, -0.0, 2.5]), "two": np.array([[[0.1]], [[2.5]]])},
    {"0-d": [np.array(math.inf), np.array(-0.0), np.array(7, np.int8), np.array(True)]},
    {"empty": [np.zeros(0), np.zeros((2, 0, 3)), np.zeros((0, 2)), np.zeros((1, 1, 0), bool)]},
    {"ints": np.array([[-128, 0], [127, 5]], np.int8), "big": np.array([2**64 - 1, 0], np.uint64),
     "bools": np.array([[True], [False]]), "intp": np.arange(-3, 3, dtype=np.intp)},
    {"f32": np.array([0.1, math.inf, -0.0], np.float32), "f16": np.array([1 / 3, 65504], np.float16)},
    {"strided": np.arange(24.0).reshape(2, 3, 4)[:, ::2, ::-1], "f-order": np.asfortranarray(
        np.arange(6.5, 0.5, -1).reshape(2, 3))},
], ids=["one-and-true", "signed-zeros", "edge-floats", "empty-containers", "other-keys",
        "edge-arrays", "shared-float", "0-d-arrays", "empty-arrays", "int-arrays",
        "narrow-floats", "views"])
def test_writes_the_bytes_of_json_dump_on_edge_payloads(path, payload):
    write_json(path, payload)
    assert path.read_bytes() == expected(payload)


def test_array_block_boundaries(path, monkeypatch):
    # blocks that end inside a row, on a row's end and on a plane's end
    from relaymdp import experiments
    payload = {"a": np.arange(60.0).reshape(3, 4, 5) / 7, "b": np.arange(13) % 3 == 0}
    for block in (1, 3, 5, 7, 20, 64):
        monkeypatch.setattr(experiments, "ARRAY_BLOCK", block)
        write_json(path, payload)
        assert path.read_bytes() == expected(payload)


@pytest.mark.parametrize("array", [
    np.array([1, "a"], dtype=object),
    np.array([1 + 2j]),
    np.array(["a"]),
    np.array([b"a"]),
    np.array(["2020-01-01"], dtype="datetime64[D]"),
    np.array([1], dtype="timedelta64[s]"),
    np.zeros(2, dtype="V4"),
], ids=["object", "complex", "str", "bytes", "datetime", "timedelta", "void"])
def test_an_array_json_cannot_write_raises_naming_its_dtype(path, array):
    with pytest.raises(TypeError, match=re.escape(f"dtype {array.dtype}")):
        write_json(path, {"tables": [1.5, {"x": array}]})


def restricted_payloads(config, family):
    tables = backward_induction(family, config)
    return (
        tables_to_json(tables),
        extract_thresholds(tables).to_json(),
        family_to_json(build_forwarding_region(config), family),
    )


def test_cli_payloads_match_json_dump(path):
    config, family = small_instance(4, 12, 3, eta=2.0, delta=0.05)
    for payload in (*restricted_payloads(config, family),
                    policy_to_json(solve_complete(family, config))):
        write_json(path, payload)
        assert path.read_bytes() == expected(payload)


@pytest.mark.parametrize("delta", [0.0, 0.1])
@pytest.mark.parametrize("eta", [0.3, 10.0, 60.0])
def test_reference_payloads_at_400_bins_match_json_dump(path, eta, delta):
    config = ModelConfig(n_reward_bins=400, eta=eta, delta=delta).validate()
    family = build_ordered_family(build_forwarding_region(config), config)
    for payload in restricted_payloads(config, family):
        write_json(path, payload)
        assert path.read_bytes() == expected(payload)


def test_nan_table_entry_is_not_written_as_a_sentinel(path):
    config, family = small_instance(4, 12, 3, eta=2.0, delta=0.05)
    tables = backward_induction(family, config)
    keys = ("j_b", "j_bf", "cc_b", "cc_bf", "cp_bf")
    sentinels = {key: np.isposinf(getattr(tables, key)) for key in keys}
    assert not sentinels["j_b"][0, 2]
    tables.j_b[0, 2] = math.nan
    write_json(path, tables_to_json(tables))
    text = path.read_text()
    written = json.loads(text)
    assert math.isnan(written["j_b"][0][2])
    for key in keys:
        nulls = np.equal(np.array(written[key], dtype=object), None)
        assert nulls.tolist() == sentinels[key].tolist()
    assert text.count("NaN") == 1
    assert text.count("null") == sum(int(mask.sum()) for mask in sentinels.values()) > 0


def test_nan_is_written_as_nan_not_null(path):
    # fail closed: a reader that rejects NaN sees it, and it never reads as a
    # +inf sentinel's null
    config, family = small_instance(4, 12, 3, eta=2.0, delta=0.05)
    payload = family_to_json(build_forwarding_region(config), family)
    payload["pmf"][0][3] = math.nan
    payload["r_max"] = math.nan
    write_json(path, payload)
    text = path.read_text()
    assert text.encode() == expected(payload)
    assert '"r_max": NaN' in text
    assert text.count("NaN") == 2
    assert "null" not in text

"""``experiments.write_json`` writes exactly what ``json.dump(payload, fh,
indent=2, sort_keys=True)`` and a newline would, on random payloads and on
the CLI's own artifact payloads."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaymdp.dp_complete import policy_to_json, solve_complete
from relaymdp.dp_restricted import backward_induction, extract_thresholds, tables_to_json
from relaymdp.experiments import write_json
from relaymdp.model import build_forwarding_region, family_to_json

from conftest import small_instance

EDGE_FLOATS = (-0.0, 0.0, 5e-324, 1e16, 1e-5, math.nan, math.inf, -math.inf)
# few enough that lists of floats share values, and so the writer's cache
floats = st.sampled_from(EDGE_FLOATS + (1.0, 0.1, -2.5)) | st.floats()
numbers = floats | st.integers() | st.booleans() | st.none() | st.sampled_from((1, 1.0, True))
strings = st.sampled_from(("a, b", '"quoted", "twice"', "ü€ 中", "", "line\nbreak")) | st.text()
payloads = st.recursive(
    numbers | strings,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(floats | st.none(), max_size=8)
        | st.lists(numbers, max_size=8)
        | st.dictionaries(strings, inner, max_size=5)
    ),
    max_leaves=40,
)


def expected(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


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
], ids=["one-and-true", "signed-zeros", "edge-floats", "empty-containers", "other-keys"])
def test_writes_the_bytes_of_json_dump_on_edge_payloads(path, payload):
    write_json(path, payload)
    assert path.read_bytes() == expected(payload)


def test_cli_payloads_match_json_dump(path):
    config, family = small_instance(4, 12, 3, eta=2.0, delta=0.05)
    tables = backward_induction(family, config)
    for payload in (
        tables_to_json(tables),
        extract_thresholds(tables).to_json(),
        family_to_json(build_forwarding_region(config), family),
        policy_to_json(solve_complete(family, config)),
    ):
        write_json(path, payload)
        assert path.read_bytes() == expected(payload)


def test_nan_table_entry_is_not_written_as_a_sentinel(path):
    config, family = small_instance(4, 12, 3, eta=2.0, delta=0.05)
    tables = backward_induction(family, config)
    keys = ("j_b", "j_bf", "cc_b", "cc_bf", "cp_bf")
    sentinels = {key: np.isposinf(getattr(tables, key)) for key in keys}
    assert not sentinels["j_b"][0, 2]
    tables.j_b[0, 2] = math.nan
    payload = tables_to_json(tables)
    assert math.isnan(payload["j_b"][0][2])
    for key in keys:
        nulls = np.equal(np.array(payload[key], dtype=object), None)
        assert nulls.tolist() == sentinels[key].tolist()
    write_json(path, payload)
    text = path.read_text()
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

"""Fuzzed configs end in a named error or in finite restricted tables.

The inputs mix valid values with NaN, +-inf, bools in integer fields, etas up
to 1e308 and up to 2000 reward bins.  Geometry floats stay within a moderate
range, so that building the forwarding region stays cheap.
"""
import math

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from relaymdp import (
    BudgetExceededError,
    ConfigError,
    ModelConfig,
    NonFiniteValueError,
    backward_induction,
    build_forwarding_region,
    build_ordered_family,
    verify_structure,
)
from relaymdp._kernels import NO_ACTION

SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf])

# every field valid; then up to two fields get a value validation must reject
VALID = {
    "v0": st.floats(2.0, 50.0),
    "comm_radius": st.floats(0.1, 1.5),
    "n_locations": st.integers(1, 20),
    "n_reward_bins": st.integers(2, 2000),
    "gamma_n0": st.floats(1e-3, 1e3),
    "beta": st.floats(0.0, 4.0),
    "a": st.floats(0.0, 1.0),
    "n_relays": st.integers(1, 6),
    "tau": st.floats(1e-6, 1e6),
    "eta": st.floats(0.0, 1e308),
    "delta": st.floats(0.0, 10.0),
    "wakeup_law": st.sampled_from(["exponential", "deterministic"]),
    "tail_mass": st.floats(1e-6, 1.0 - 1e-6),
}
INVALID = st.one_of(SPECIAL, st.booleans(), st.just(-1), st.just("1"))


@st.composite
def config_docs(draw):
    doc = draw(st.fixed_dictionaries(VALID))
    for key in draw(st.lists(st.sampled_from(sorted(VALID)), max_size=2, unique=True)):
        doc[key] = draw(INVALID)
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=config_docs())
def test_fuzzed_config_ends_in_named_error_or_finite_tables(doc):
    try:
        config = ModelConfig.from_dict(doc)
        family = build_ordered_family(build_forwarding_region(config), config)
        tables = backward_induction(family, config)
    except (ConfigError, BudgetExceededError, NonFiniteValueError) as err:
        event(type(err).__name__)
        return
    event("finite tables")
    for values, actions in zip(tables.values, tables.actions):
        for level, codes in zip(values, actions):
            assert not np.isnan(level).any()
            assert np.isfinite(level[codes != NO_ACTION]).all()
    for costs in (tables.cc_b, tables.cc_bf, tables.cp_bf):
        assert not np.isnan(costs).any()


def test_verify_structure_at_2000_bins():
    # check (f) is O(B); as a pair array it needed (N, L, B, B) floats here
    config = ModelConfig(n_reward_bins=2000).validate()
    family = build_ordered_family(build_forwarding_region(config), config)
    tables = backward_induction(family, config)
    report = verify_structure(tables)
    assert report.passed, report.to_json()

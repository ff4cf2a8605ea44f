from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_instance
from oracles import (
    Toy,
    enumerate_restricted_policies,
    pairwise_lipschitz_excess,
    restricted_tree_sets,
    restricted_tree_state_value,
    restricted_tree_value,
)
from relaymdp import (
    IllegalActionError,
    ModelConfig,
    build_forwarding_region,
    build_ordered_family,
)
from relaymdp._kernels import ACTION_OF_CODE, NO_ACTION
from relaymdp.dp_restricted import (
    Action,
    NonThresholdSetError,
    _pair_excess,
    _upset_min_index,
    act,
    backward_induction,
    extract_thresholds,
    initial_value,
    restricted_levels,
    verify_structure,
)

def retain_incumbent(tables, stage, best, incumbent, newcomer):
    """Whether the shared overflow rule keeps the awake incumbent when the
    newcomer wakes at ``stage`` (size-1 multisets are rows by type)."""
    levels = restricted_levels(tables)
    b = levels.none_index if best is None else best
    return levels.overflow_keep(stage)[newcomer, incumbent, b] == incumbent


# frozen from the policy-enumeration oracle (tests/oracles.py) on the
# 2-location / 2-bin / N=2 instance with eta=0.8, delta=0.05, tau=0.3
TOY222_OPTIMUM = -0.5191563683072251
TOY222_STATE_K1_B0_L1 = -0.5934665207011708
TOY222_STATE_K2_NONE_L0 = -0.3664988827070511


@pytest.fixture(scope="module")
def toy222():
    config, family = small_instance(2, 2, 2, eta=0.8, delta=0.05)
    return config, family, backward_induction(family, config)


@pytest.fixture(scope="module")
def probing_instance():
    # eta large enough that probing sets are non-trivial
    config, family = small_instance(20, 100, 5, eta=10.0, delta=0.1, tau=0.2)
    tables = backward_induction(family, config)
    return config, family, tables, extract_thresholds(tables)


class TestStageN:
    def test_last_stage_bare_value_is_stop_cost(self, default_tables):
        eta = default_tables.config.eta
        expected = -eta * default_tables.grid
        assert np.array_equal(default_tables.j_b[-1, :-1], expected)
        assert np.isinf(default_tables.j_b[-1, -1])

    def test_probe_at_top_bin_cannot_beat_stopping(self):
        config, family = small_instance(4, 10, 3, eta=1.0, delta=0.1)
        tables = backward_induction(family, config)
        top = tables.n_bins - 1
        # max{b, R} = b at the top bin, so probing costs exactly eta*delta more
        assert np.allclose(
            tables.cp_bf[-1, top, :], config.eta * config.delta - config.eta, atol=1e-12
        )
        for l in range(len(family)):
            assert act((top, l, config.n_relays), tables) is Action.STOP


class TestOracleEquivalence:
    def test_toy_matches_policy_enumeration(self, toy222):
        config, family, tables = toy222
        toy = Toy.from_family(family, config)
        assert enumerate_restricted_policies(toy) == pytest.approx(
            TOY222_OPTIMUM, abs=1e-15
        )
        assert initial_value(tables) == pytest.approx(TOY222_OPTIMUM, abs=1e-12)

    def test_toy_state_values_match_tree_oracle(self, toy222):
        config, family, tables = toy222
        toy = Toy.from_family(family, config)
        assert restricted_tree_state_value(toy, 1, 0, 1) == pytest.approx(
            TOY222_STATE_K1_B0_L1, abs=1e-15
        )
        assert tables.j_bf[0, 0, 1] == pytest.approx(TOY222_STATE_K1_B0_L1, abs=1e-12)
        assert restricted_tree_state_value(toy, 2, None, 0) == pytest.approx(
            TOY222_STATE_K2_NONE_L0, abs=1e-15
        )
        assert tables.j_bf[1, tables.none_index, 0] == pytest.approx(
            TOY222_STATE_K2_NONE_L0, abs=1e-12
        )

    @pytest.mark.parametrize("shape", [(1, 2, 2), (2, 3, 3), (3, 2, 2), (3, 3, 2)])
    @pytest.mark.parametrize("eta,delta", [(0.8, 0.05), (4.0, 0.0), (0.0, 0.1)])
    def test_small_instances_match_tree_oracle(self, shape, eta, delta):
        config, family = small_instance(*shape, eta=eta, delta=delta)
        tables = backward_induction(family, config)
        toy = Toy.from_family(family, config)
        assert initial_value(tables) == pytest.approx(
            restricted_tree_value(toy), abs=1e-12
        )

    @settings(max_examples=15, deadline=None)
    @given(
        n_loc=st.integers(1, 3),
        n_bins=st.integers(2, 3),
        n_relays=st.integers(1, 3),
        eta=st.floats(0.0, 15.0),
        delta=st.floats(0.0, 0.4),
        tau=st.floats(0.05, 1.0),
    )
    def test_random_small_instances_match_tree_oracle(
        self, n_loc, n_bins, n_relays, eta, delta, tau
    ):
        config, family = small_instance(
            n_loc, n_bins, n_relays, eta=eta, delta=delta, tau=tau
        )
        tables = backward_induction(family, config)
        toy = Toy.from_family(family, config)
        assert initial_value(tables) == pytest.approx(
            restricted_tree_value(toy), abs=1e-12
        )


class TestBellmanConsistency:
    def test_every_entry_reproduces_its_definition(self):
        config, family = small_instance(3, 8, 4, eta=2.5, delta=0.07)
        tables = backward_induction(family, config)
        grid = tables.grid
        n_bins, none = tables.n_bins, tables.none_index
        n_loc, n_stages = len(family), config.n_relays
        pmf = family.pmf_matrix
        eta, delta, tau = config.eta, config.delta, config.tau

        def stop_cost(b):
            return float("inf") if b == none else -eta * grid[b]

        for k in range(n_stages, 0, -1):
            i = k - 1
            for b in range(n_bins + 1):
                if k < n_stages:
                    cc_b = tau + sum(
                        tables.j_bf[i + 1, b, u] for u in range(n_loc)
                    ) / n_loc
                    assert tables.cc_b[i, b] == pytest.approx(cc_b, abs=1e-12)
                    assert tables.j_b[i, b] == pytest.approx(
                        min(stop_cost(b), cc_b), abs=1e-12
                    )
                for l in range(n_loc):
                    cp = eta * delta + sum(
                        pmf[l, r] * tables.j_b[i, r if b == none else max(b, r)]
                        for r in range(n_bins)
                    )
                    assert tables.cp_bf[i, b, l] == pytest.approx(cp, abs=1e-12)
                    cands = [stop_cost(b), cp]
                    if k < n_stages:
                        cc = tau + sum(
                            min(tables.j_bf[i + 1, b, l], tables.j_bf[i + 1, b, u])
                            for u in range(n_loc)
                        ) / n_loc
                        assert tables.cc_bf[i, b, l] == pytest.approx(cc, abs=1e-12)
                        cands.append(cc)
                    expected = min(c for c in cands if np.isfinite(c)) if any(
                        np.isfinite(c) for c in cands
                    ) else float("inf")
                    assert tables.j_bf[i, b, l] == pytest.approx(expected, abs=1e-12)

    def test_solver_is_deterministic(self, default_config, default_family):
        t1 = backward_induction(default_family, default_config)
        t2 = backward_induction(default_family, default_config)
        for name in ("j_b", "j_bf", "cc_b", "cc_bf", "cp_bf"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name))


class TestThresholds:
    def test_eta_zero_stops_everywhere(self):
        config, family = small_instance(3, 6, 3, eta=0.0, delta=0.1)
        tables = backward_induction(family, config)
        thresholds = extract_thresholds(tables)
        assert np.all(thresholds.s_flags)
        assert np.all(thresholds.x == 0)

    def test_stage_independence_on_default(self, default_thresholds):
        assert np.all(default_thresholds.x == default_thresholds.x[0])
        assert np.all(default_thresholds.x_l == default_thresholds.x_l[0])

    def test_threshold_ordering_follows_dominance(self, probing_instance):
        _, family, _, thresholds = probing_instance
        # stochastically larger retained distribution -> larger stop threshold
        by_rank = thresholds.x_l[0][family.order]
        assert np.all(np.diff(by_rank) <= 0)
        assert np.all(thresholds.x[0] <= thresholds.x_l[0])

    def test_probing_set_is_q_minus_s(self, probing_instance):
        _, _, _, thresholds = probing_instance
        assert np.array_equal(
            thresholds.p_flags, thresholds.q_flags & ~thresholds.s_l_flags
        )
        assert thresholds.p_flags.any()  # eta=10 has genuine probing regions

    def test_delta_zero_makes_probing_weakly_optimal_everywhere(self):
        config, family = small_instance(5, 30, 4, eta=3.0, delta=0.0)
        tables = backward_induction(family, config)
        thresholds = extract_thresholds(tables)
        assert np.all(thresholds.q_flags)

    @pytest.mark.parametrize("shape,eta,delta", [
        ((2, 2, 2), 0.8, 0.05), ((3, 3, 3), 6.0, 0.1), ((3, 3, 3), 2.0, 0.0),
    ])
    def test_extracted_sets_match_tree_oracle(self, shape, eta, delta):
        config, family = small_instance(*shape, eta=eta, delta=delta)
        tables = backward_induction(family, config)
        thresholds = extract_thresholds(tables)
        oracle = restricted_tree_sets(Toy.from_family(family, config))
        assert np.array_equal(thresholds.s_flags, np.array(oracle["s"]))
        # oracle masks are (stage, location, bin); ours are (stage, bin, location)
        assert np.array_equal(
            thresholds.s_l_flags, np.array(oracle["s_l"]).transpose(0, 2, 1)
        )
        assert np.array_equal(
            thresholds.q_flags, np.array(oracle["q_l"]).transpose(0, 2, 1)
        )

    def test_upset_guard_catches_non_threshold_masks(self):
        mask = np.array([False, True, False, True])
        with pytest.raises(NonThresholdSetError):
            _upset_min_index(mask, "S_test")
        assert _upset_min_index(np.array([False, False, True, True]), "S") == 2
        assert _upset_min_index(np.zeros(4, dtype=bool), "S") == 4


class TestAct:
    def test_nothing_probed_at_last_stage_must_probe(self, default_tables):
        n = default_tables.n_stages
        for l in (0, 7, 19):
            assert act((None, l, n), default_tables) is Action.PROBE

    def test_bare_state_after_probe_at_last_stage_stops(self, default_tables):
        n = default_tables.n_stages
        assert act((3, None, n), default_tables) is Action.STOP

    @pytest.mark.parametrize("delta", [0.1, 0.0])
    def test_probing_region_agrees_with_extracted_sets(self, delta):
        # at delta = 0 probing and stopping tie to within round-off at many
        # states; the reported sets and the executed rule must still agree
        config, family = small_instance(20, 100, 5, eta=10.0, delta=delta, tau=0.2)
        tables = backward_induction(family, config)
        thresholds = extract_thresholds(tables)
        k = 1
        for l in range(thresholds.p_flags.shape[2]):
            members = np.flatnonzero(thresholds.p_flags[k - 1, :, l])
            for b in members[:3]:
                assert act((int(b), l, k), tables) is Action.PROBE
        for l in range(thresholds.s_l_flags.shape[2]):
            members = np.flatnonzero(thresholds.s_l_flags[k - 1, :, l])
            for b in members[-3:]:
                assert act((int(b), l, k), tables) is Action.STOP

    @pytest.mark.parametrize("delta", [0.1, 0.0])
    @pytest.mark.parametrize("instance", ["small", "reference"])
    def test_every_state_reads_the_action_tables(self, instance, delta, default_config,
                                                 default_family):
        # every (stage, best, retained type) against act_b and act_bf, the
        # restricted solver's own layout of its actions
        if instance == "small":
            config, family = small_instance(5, 20, 5, eta=3.0, delta=delta, tau=0.2)
        else:
            config, family = default_config.with_overrides(eta=10.0, delta=delta), default_family
        tables = backward_induction(family, config)
        none = tables.none_index
        seen = set()
        for k in range(1, tables.n_stages + 1):
            for b in range(none + 1):
                for dist in (None, *range(len(family))):
                    code = int(tables.act_b[k - 1, b] if dist is None
                               else tables.act_bf[k - 1, b, dist])
                    state = (None if b == none else b, dist, k)
                    seen.add(code)
                    if code == NO_ACTION:
                        with pytest.raises(IllegalActionError):
                            act(state, tables)
                    else:
                        assert act(state, tables) is ACTION_OF_CODE[code], state
        assert seen == {NO_ACTION, *ACTION_OF_CODE}

    def test_unreachable_bare_none_state_raises(self, default_tables):
        with pytest.raises(IllegalActionError):
            act((None, None, default_tables.n_stages), default_tables)

    def test_invalid_indices_raise(self, default_tables):
        with pytest.raises(ValueError):
            act((0, 0, 99), default_tables)
        with pytest.raises(ValueError):
            act((1000, 0, 1), default_tables)
        with pytest.raises(ValueError):
            act((0, 1000, 1), default_tables)

    def test_retention_prefers_stochastically_larger(self, probing_instance):
        _, family, tables, _ = probing_instance
        order = family.order
        strong, weak = int(order[0]), int(order[-1])
        for stage in range(2, tables.n_stages + 1):
            for b in (None, 0, 40, 99):
                assert retain_incumbent(tables, stage, b, strong, weak)


class TestVerifyStructure:
    def test_default_config_passes_all_checks(
        self, default_tables, default_thresholds, default_family
    ):
        report = verify_structure(default_tables, default_thresholds, default_family)
        assert report.passed
        for key, check in report.checks.items():
            assert check.passed, key

    def test_nan_in_tables_fails_closed(
        self, default_tables, default_thresholds, default_family
    ):
        j_bf = default_tables.j_bf.copy()
        j_bf[2, 40, 7] = np.nan
        corrupted = replace(default_tables, j_bf=j_bf)
        report = verify_structure(corrupted, default_thresholds, default_family)
        assert not report.passed

    @pytest.mark.parametrize("n_bins", [100, 400])
    def test_lipschitz_prefix_max_matches_pairwise(self, default_family, n_bins):
        config = ModelConfig(n_reward_bins=n_bins).validate()
        family = default_family if n_bins == 100 else build_ordered_family(
            build_forwarding_region(config), config)
        tables = backward_induction(family, config)
        n_dec = tables.n_stages - 1
        for arr in (tables.cp_bf[:, :n_bins, :].transpose(0, 2, 1),
                    tables.cc_b[:n_dec, :n_bins],
                    tables.cc_bf[:n_dec, :n_bins, :].transpose(0, 2, 1)):
            fast = _pair_excess(arr + config.eta * tables.grid)
            reference = pairwise_lipschitz_excess(arr, tables.grid, config.eta)
            np.testing.assert_allclose(fast, reference, rtol=0.0, atol=1e-12)

    def test_report_serializes(self, default_tables, default_thresholds, default_family):
        report = verify_structure(default_tables, default_thresholds, default_family)
        payload = report.to_json()
        assert payload["passed"] is True
        assert set(payload["checks"]) == {
            "a_monotone_in_b", "b_stage_monotone", "c_dominance_order",
            "d_cc_retained_le_bare", "e_set_inclusions", "f_lipschitz",
            "g_equal_costs_on_s", "h_stage_independent_sets",
        }
        assert "p_all_down_sets" in payload["conjecture"]

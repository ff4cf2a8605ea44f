import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corrupted, small_instance
from oracles import (
    Toy,
    enumerate_restricted_policies,
    pairwise_lipschitz_excess,
    reference_probe_costs,
    reference_thresholds,
    restricted_sets,
    restricted_state_value,
    restricted_value,
)
from relaymdp import (
    IllegalActionError,
    ModelConfig,
    build_forwarding_region,
    build_ordered_family,
)
from relaymdp._kernels import (CONTINUE, NO_ACTION, PROBE, STOP, Decision, decision_of,
                               resolve_actions)
from relaymdp.dp_complete import (_induction, _probe_costs, _probe_plan, act_complete,
                                  initial_value, solve_complete)
from relaymdp.dp_restricted import (
    Action,
    NonThresholdSetError,
    RestrictedTables,
    _pair_excess,
    act,
    backward_induction,
    extract_thresholds,
    verify_structure,
)
from relaymdp.model import order_family
from relaymdp.simulate import block_rng, run_policy, sample_episode

def retain_incumbent(tables, stage, best, incumbent, newcomer):
    """Whether the shared overflow rule keeps the awake incumbent when the
    newcomer wakes at ``stage`` (size-1 multisets are rows by type)."""
    b = tables.n_bins if best is None else best
    return tables.kept[stage - 1][newcomer, incumbent, b] == incumbent


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
        assert restricted_state_value(toy, 1, 0, 1) == pytest.approx(
            TOY222_STATE_K1_B0_L1, abs=1e-15
        )
        assert tables.j_bf[0, 0, 1] == pytest.approx(TOY222_STATE_K1_B0_L1, abs=1e-12)
        assert restricted_state_value(toy, 2, None, 0) == pytest.approx(
            TOY222_STATE_K2_NONE_L0, abs=1e-15
        )
        assert tables.j_bf[1, tables.n_bins, 0] == pytest.approx(
            TOY222_STATE_K2_NONE_L0, abs=1e-12
        )

    @pytest.mark.parametrize("shape", [(1, 2, 2), (2, 3, 3), (3, 2, 2), (3, 3, 2)])
    @pytest.mark.parametrize("eta,delta", [(0.8, 0.05), (4.0, 0.0), (0.0, 0.1)])
    def test_small_instances_match_tree_oracle(self, shape, eta, delta):
        config, family = small_instance(*shape, eta=eta, delta=delta)
        tables = backward_induction(family, config)
        toy = Toy.from_family(family, config)
        assert initial_value(tables) == pytest.approx(
            restricted_value(toy), abs=1e-12
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
            restricted_value(toy), abs=1e-12
        )


class TestBellmanConsistency:
    def test_every_entry_reproduces_its_definition(self):
        config, family = small_instance(3, 8, 4, eta=2.5, delta=0.07)
        tables = backward_induction(family, config)
        grid = tables.grid
        n_bins = none = tables.n_bins
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
        oracle = restricted_sets(Toy.from_family(family, config))
        assert np.array_equal(thresholds.s_flags, np.array(oracle["s"]))
        # oracle masks are (stage, location, bin); ours are (stage, bin, location)
        assert np.array_equal(
            thresholds.s_l_flags, np.array(oracle["s_l"]).transpose(0, 2, 1)
        )
        assert np.array_equal(
            thresholds.q_flags, np.array(oracle["q_l"]).transpose(0, 2, 1)
        )

    @pytest.mark.parametrize("row,x", [
        ((CONTINUE, CONTINUE, STOP, STOP), 2), ((CONTINUE,) * 4, 4), ((STOP,) * 4, 0),
    ])
    def test_a_set_reads_as_its_least_member_or_n_bins_when_empty(self, row, x):
        config, family = small_instance(2, 4, 3, eta=2.0, delta=0.05)
        levels = corrupted(backward_induction(family, config))
        levels.actions[0][0][0, :4] = row  # S_1, over the four real bins
        assert extract_thresholds(levels).x[0] == x

    def test_a_set_that_is_not_an_up_set_raises_naming_its_members(self):
        config, family = small_instance(2, 4, 3, eta=2.0, delta=0.05)
        levels = corrupted(backward_induction(family, config))
        levels.actions[0][0][0, :4] = (CONTINUE, STOP, CONTINUE, STOP)
        with pytest.raises(NonThresholdSetError,
                           match=r"^S_1 is not an up-set: members \[1, 3\]$"):
            extract_thresholds(levels)

    @pytest.mark.parametrize("broken,first", [
        # (stage index, size, row) of each set broken, and the set named
        ([(1, 1, 0), (0, 0, 0)], "S_1"),
        ([(1, 0, 0), (0, 1, 1)], "S_1^1"),
        ([(0, 1, 2), (0, 1, 0)], "S_1^0"),
        ([(1, 1, 2), (1, 0, 0), (2, 1, 1)], "S_2"),
    ])
    def test_the_first_broken_set_is_named_in_stage_then_set_order(self, broken, first):
        # S_k before S_k^0 .. S_k^{L-1}, stage by stage: the per-set scan's order
        config, family = small_instance(3, 4, 4, eta=2.0, delta=0.05)
        levels = corrupted(backward_induction(family, config))
        for i, size, row in broken:
            levels.actions[i][size][row, :4] = (STOP, CONTINUE, CONTINUE, STOP)
        with pytest.raises(NonThresholdSetError,
                           match=rf"^{re.escape(first)} is not an up-set: members \[0, 3\]$"):
            extract_thresholds(levels)
        with pytest.raises(NonThresholdSetError, match=rf"^{re.escape(first)} is not"):
            reference_thresholds(levels)

    @settings(max_examples=80, deadline=None)
    @given(
        n_loc=st.integers(1, 3),
        n_bins=st.integers(2, 5),
        n_relays=st.integers(2, 4),
        eta=st.sampled_from([0.5, 3.0, 10.0]),
        delta=st.sampled_from([0.0, 0.1]),
        data=st.data(),
    )
    def test_the_one_pass_matches_the_per_set_scan(self, n_loc, n_bins, n_relays, eta,
                                                    delta, data):
        # rows of random codes, the none column among them, written over the
        # solved ones break none, one or several sets (a row whose stops are
        # moved to its end breaks none); the same arrays or the same first error
        config, family = small_instance(n_loc, n_bins, n_relays, eta=eta, delta=delta)
        levels = corrupted(backward_induction(family, config))
        codes = st.sampled_from([NO_ACTION, STOP, CONTINUE] + [PROBE + t for t in range(n_loc)])
        for _ in range(data.draw(st.integers(0, 8), label="edits")):
            level = levels.actions[data.draw(st.integers(0, n_relays - 1))][
                data.draw(st.integers(0, 1))]
            row = data.draw(st.lists(codes, min_size=n_bins + 1, max_size=n_bins + 1))
            if data.draw(st.booleans(), label="stops last"):
                row[:n_bins] = sorted(row[:n_bins], key=lambda code: code == STOP)
            level[data.draw(st.integers(0, len(level) - 1))] = row
        try:
            expected = reference_thresholds(levels)
        except NonThresholdSetError as err:
            with pytest.raises(NonThresholdSetError) as raised:
                extract_thresholds(levels)
            assert str(raised.value) == str(err)
            return
        summary = extract_thresholds(levels)
        for key, want in expected.items():
            got = getattr(summary, key)
            assert got.dtype == want.dtype and np.array_equal(got, want), key

    def test_one_relay_has_no_decision_stage(self):
        config, family = small_instance(3, 5, 1, eta=2.0, delta=0.05)
        summary = extract_thresholds(backward_induction(family, config))
        assert summary.x.shape == (0,)
        assert summary.x_l.shape == summary.y_l.shape == (0, 3)
        assert summary.s_flags.shape == (0, 5)
        for flags in (summary.q_flags, summary.s_l_flags, summary.p_flags):
            assert flags.shape == (0, 5, 3)


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
        # every (stage, best, retained type) against the code the level
        # stores: the bare states' size-0 level, the retaining ones' size-1
        # level, whose rows are the location types
        if instance == "small":
            config, family = small_instance(5, 20, 5, eta=3.0, delta=delta, tau=0.2)
        else:
            config, family = default_config.with_overrides(eta=10.0, delta=delta), default_family
        tables = backward_induction(family, config)
        none = tables.n_bins
        seen = set()
        for k in range(1, tables.n_stages + 1):
            for b in range(none + 1):
                for dist in (None, *range(len(family))):
                    level = tables.actions[k - 1][0 if dist is None else 1]
                    decision = decision_of(level[dist or 0, b])
                    state = (None if b == none else b, dist, k)
                    seen.add(None if decision is None else decision.kind)
                    if decision is None:
                        with pytest.raises(IllegalActionError):
                            act(state, tables)
                    else:
                        assert act(state, tables) is decision.kind, state
        assert seen == {None, *Action}

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


def two_bin_family(n_types):
    """``n_types`` distinct two-bin reward laws, stochastically smaller with
    every index, built without the forwarding region."""
    top = np.linspace(0.75, 0.25, n_types)
    family = order_family(np.column_stack([1.0 - top, top]), np.ones(n_types))
    assert np.array_equal(family.order, np.arange(n_types))
    return family


class TestWideFamilies:
    """A probe code holds the probed type whatever the number of types."""

    def test_probe_types_past_32767(self):
        # one relay over 33,000 types: with nothing probed, each singleton
        # probes its own relay, a type that an int16 table would wrap
        n = 33_000
        config = ModelConfig(n_locations=n, n_reward_bins=2, n_relays=1).validate()
        family = two_bin_family(n)
        tables = backward_induction(family, config)
        codes = tables.actions[0][1][:, -1]
        assert codes.dtype == np.int32
        assert np.array_equal(codes - PROBE, np.arange(n))
        assert act_complete((1, None, (n - 1,)), tables) == Decision(Action.PROBE, n - 1)
        out = run_policy(sample_episode(family, config, block_rng(0, 0)), tables)
        assert np.all(out.probes == 1) and np.all(out.stop_stage == 1)

    def test_int16_codes_decode_to_the_kernels_type(self):
        config, family = small_instance(200, 12, 3, eta=4.0, delta=0.02)
        tables = backward_induction(family, config)
        surcharge = config.eta * config.delta
        nothing_dead = _probe_plan(family, tables.space, tuple(family.rank),
                                   np.full(len(family), tables.n_bins), None)
        probed = set()
        for k in range(config.n_relays):
            assert [a.dtype for a in tables.actions[k]] == [np.int16, np.int16]
            smaller = tables.values[k][0][:, :tables.n_bins]
            chosen = _probe_costs(smaller, smaller[0], surcharge, nothing_dead, False)[1]
            want = reference_probe_costs(smaller, family, surcharge, tables.space, 1)[1]
            codes = tables.actions[k][1]
            probing = codes >= PROBE
            assert np.array_equal(codes[probing], chosen[probing])
            assert np.array_equal(codes[probing] - PROBE, want[probing])
            probed.update((codes[probing] - PROBE).tolist())
        assert max(probed) > 126


# check: the (stage, row, bin) of the J_k(b, F_l) edited, of the entry its
# new value is taken from, and the change, at the default config
VALUE_EDITS = {
    # J_3(b=41, F_7) above J_3(b=40, F_7): rising in the best reward
    "a_monotone_in_b": ((3, 7, 41), (3, 7, 40), 1e-3),
    # J_2(b=40, F_7) above J_3(b=40, F_7): a stage more to go costs more
    "b_stage_monotone": ((2, 7, 40), (3, 7, 40), 1e-3),
    # J_3(b=40) of the stochastically smallest type, 0, below that of the
    # largest, 17
    "c_dominance_order": ((3, 0, 40), (3, 17, 40), -1e-3),
    # J_2(b=40, F_7) below its stage-N value inside S_2, which holds every bin
    "g_equal_costs_on_s": ((2, 7, 40), (2, 7, 40), -1e-3),
}


class TestVerifyStructure:
    def test_default_config_passes_all_checks(self, default_tables):
        report = verify_structure(default_tables)
        assert report.passed
        for key, check in report.checks.items():
            assert check.passed, key

    def test_nan_in_tables_fails_closed(self, default_tables):
        # J_3(b=40, F_7), in the levels: the stagewise tables are read off them
        values = [[v.copy() for v in stage] for stage in default_tables.values]
        values[2][1][7, 40] = np.nan
        edited = replace(default_tables, values=values)
        assert np.isnan(edited.j_bf[2, 40, 7])
        report = verify_structure(edited)
        assert not report.passed

    def test_nan_in_a_continue_cost_fails_checks_d_and_f(self, default_tables):
        # J_3(b=40, F_7), which the overflow rule sums into cc_2(b=40, F_7):
        # retaining cheapens continuing (d), and the continue costs are
        # eta-Lipschitz (f)
        values = [[v.copy() for v in stage] for stage in default_tables.values]
        values[2][1][7, 40] = np.nan
        edited = replace(default_tables, values=values)
        assert np.isnan(edited.cc_bf[1, 40, 7])
        report = verify_structure(edited)
        failed = {key for key, check in report.checks.items() if not check.passed}
        assert {"d_cc_retained_le_bare", "f_lipschitz"} <= failed

    def test_an_edited_stop_code_moves_the_checked_sets(self, default_tables,
                                                         default_thresholds):
        # the bare state at stage 2 and bin x[1] stops; continuing there
        # instead leaves S_2 short of S_1 (h) and of S_2^l (e), and is not
        # the tie rule's code for its costs (i).  The report reads the sets
        # off the edited codes, not off a summary of the unedited ones, which
        # passes every check
        x = int(default_thresholds.x[1])
        assert x == 0 and default_tables.actions[1][0][0, x] == STOP
        levels = corrupted(default_tables)
        levels.actions[1][0][0, x] = CONTINUE
        report = verify_structure(levels)
        failed = {key for key, check in report.checks.items() if not check.passed}
        assert failed == {"e_set_inclusions", "h_stage_independent_sets", "i_bellman_residual"}

    @pytest.mark.parametrize("edit", [
        # (stage, size, row, bin, change) at eta 10: the continue entries
        # J_2(b=0, F_0) and J_1(none, F_3), the stop entries J_3(b=40),
        # J_4(b=40, F_7) and J_5(b=10)
        (2, 1, 0, 0, 1e-7), (2, 1, 0, 0, -1e-7), (3, 0, 0, 40, 1e-7), (4, 1, 7, 40, -1e-7),
        (1, 1, 3, 100, 0.5), (5, 0, 0, 10, -0.5),
    ])
    def test_a_finite_edit_to_a_value_fails_the_bellman_residual(self, default_config,
                                                                  default_family, edit):
        stage, size, row, b, change = edit
        tables = backward_induction(default_family, default_config.with_overrides(eta=10.0))
        tables.values[stage - 1][size][row, b] += change
        report = verify_structure(tables)
        check = report.checks["i_bellman_residual"]
        assert not check.passed
        assert check.worst == pytest.approx(abs(change), rel=1e-6)
        if edit == (2, 1, 0, 0, 1e-7):  # which passes every other check
            assert [key for key, c in report.checks.items() if not c.passed] == [
                "i_bellman_residual"]

    @pytest.mark.parametrize("check", VALUE_EDITS)
    def test_a_finite_edit_to_a_value_fails_its_check(self, default_tables, default_family,
                                                      default_thresholds, check):
        assert default_family.order[[0, -1]].tolist() == [17, 0]
        assert default_thresholds.x[1] == 0
        (stage, row, b), (from_stage, from_row, from_b), change = VALUE_EDITS[check]
        values = [[v.copy() for v in stage] for stage in default_tables.values]
        values[stage - 1][1][row, b] = values[from_stage - 1][1][from_row, from_b] + change
        report = verify_structure(replace(default_tables, values=values))
        assert not report.checks[check].passed
        assert not report.passed

    def test_an_edited_code_or_kept_row_fails_the_bellman_residual(self, default_tables):
        # the state J_3(b=5, F_7) probes its relay: continuing instead; and
        # the relay kept when a type-0 relay wakes beside a type-7 one at
        # stage 3 and bin 40: neither of the two
        assert default_tables.actions[2][1][7, 5] == PROBE + 7
        levels = corrupted(default_tables)
        levels.actions[2][1][7, 5] = CONTINUE
        report = verify_structure(levels)
        assert not report.checks["i_bellman_residual"].passed
        assert report.checks["i_bellman_residual"].detail.endswith(
            "1 codes and 0 kept entries differ")
        kept = [None if k is None else k.copy() for k in default_tables.kept]
        kept[2][0, 7, 40] = 3
        report = verify_structure(replace(default_tables, kept=kept))
        assert not report.checks["i_bellman_residual"].passed
        assert report.checks["i_bellman_residual"].detail.endswith(
            "0 codes and 1 kept entries differ")

    @pytest.mark.parametrize("capacity", [2, 3])
    def test_levels_of_another_capacity_are_named(self, capacity):
        # capacity 3 = N: the complete class
        config, family = small_instance(4, 6, 3, eta=2.0, delta=0.05)
        levels = (_induction(family, config, 2) if capacity == 2
                  else solve_complete(family, config))
        named = f"these keep at most {capacity} unprobed relays awake"
        with pytest.raises(ValueError, match=named):
            extract_thresholds(levels)
        with pytest.raises(ValueError, match=named):
            verify_structure(RestrictedTables(**vars(levels)))

    @pytest.mark.parametrize("delta", [0.1, 0.0])
    def test_costs_resolve_to_the_stored_codes_and_values(self, default_config,
                                                           default_family, delta):
        # the induction's tie rule and minimum, applied to the worked-out
        # costs, give every stored code and value bitwise: they are the costs
        # the solve resolved from (delta 0 ties probing with stopping)
        config = default_config.with_overrides(eta=10.0, delta=delta)
        tables = backward_induction(default_family, config)
        stop = np.append(-config.eta * tables.grid, np.inf)[:, None]
        dtype = tables.actions[0][0].dtype
        targets = np.broadcast_to(PROBE + np.arange(len(default_family)), tables.j_bf[0].shape)
        for i, (values, codes) in enumerate(zip(tables.values, tables.actions)):
            for probe, code, cont, level, act in (
                (np.inf, np.array(NO_ACTION), tables.cc_b[i][:, None], values[0].T, codes[0].T),
                (tables.cp_bf[i], targets, tables.cc_bf[i], values[1].T, codes[1].T),
            ):
                assert np.array_equal(resolve_actions(stop, probe, code.astype(dtype), cont),
                                      act), i
                value = np.minimum(cont, np.minimum(probe, stop))
                assert value.tobytes() == np.ascontiguousarray(level).tobytes(), i

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

    def test_report_serializes(self, default_tables):
        report = verify_structure(default_tables)
        payload = report.to_json()
        assert payload["passed"] is True
        assert set(payload["checks"]) == {
            "a_monotone_in_b", "b_stage_monotone", "c_dominance_order",
            "d_cc_retained_le_bare", "e_set_inclusions", "f_lipschitz",
            "g_equal_costs_on_s", "h_stage_independent_sets", "i_bellman_residual",
        }
        assert "p_all_down_sets" in payload["conjecture"]

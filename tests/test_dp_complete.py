import math
import re
import tracemalloc
from dataclasses import replace
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corrupted, small_instance
from oracles import (
    Toy,
    complete_memo_state_values,
    complete_memo_value,
    complete_tree_value,
    enumerate_complete_policies,
    probe_largest_violations,
    reference_multiset_space,
    reference_overflow_keep,
    reference_probe_costs,
    reference_ranked_members,
    reference_states_per_stage,
)
from relaymdp import dp_complete
from relaymdp._kernels import CONTINUE, PROBE, STOP, IllegalActionError, action_dtype
from relaymdp.dp_complete import (
    BudgetExceededError,
    MultisetSpace,
    UnreachableStateError,
    _induction,
    _probe_costs,
    _ranked_members,
    _states_per_stage,
    act_complete,
    multiset_space,
    initial_value,
    projected_state_count,
    solve_complete,
    state_space_census,
    verify_complete_conjectures,
)
from relaymdp.dp_restricted import Action, backward_induction
from relaymdp.experiments import complete_components
from relaymdp.model import (ModelConfig, build_forwarding_region, build_ordered_family,
                            reward_grid)

# frozen from the policy-enumeration oracle on the 2-location / 2-bin / N=2
# instance with eta=0.8, delta=0.05, tau=0.3
TOY222_OPTIMUM = -0.5191563683072251


@pytest.fixture(scope="module")
def small_solved():
    config, family = small_instance(3, 8, 3, eta=2.0, delta=0.05)
    return config, family, solve_complete(family, config)


class TestStageN:
    def test_empty_multiset_value_is_stop_cost(self, small_solved):
        config, family, tables = small_solved
        expected = -config.eta * reward_grid(tables.n_bins)
        assert np.array_equal(tables.values[-1][0][0, : tables.n_bins], expected)
        assert np.isinf(tables.values[-1][0][0, tables.n_bins])

    def test_singleton_stage_n_equals_restricted_exactly(self, small_solved):
        config, family, tables = small_solved
        restricted = backward_induction(family, config)
        # the classes coincide at stage N on singleton multisets; both solvers
        # evaluate the same expression through the same kernel, bit for bit
        for l in range(len(family)):
            row = tables.space.row((l,))
            assert np.array_equal(
                tables.values[-1][1][row], restricted.j_bf[-1, :, l]
            )

    def test_stage_n_singleton_stop_rule_is_one_step_lookahead(self, small_solved):
        config, family, tables = small_solved
        eta, delta = config.eta, config.delta
        grid = reward_grid(tables.n_bins)
        for l in range(len(family)):
            pmf = family.pmf_matrix[l]
            for b in range(tables.n_bins):
                one_step = eta * delta - eta * sum(
                    p * max(grid[b], grid[r]) for r, p in enumerate(pmf)
                )
                action = act_complete((config.n_relays, b, (l,)), tables)
                if -eta * grid[b] <= one_step - 1e-12:
                    assert action.kind is Action.STOP
                elif -eta * grid[b] > one_step + 1e-12:
                    assert action.kind is Action.PROBE


class TestOracleEquivalence:
    def test_smallest_toy_matches_policy_enumeration(self):
        config, family = small_instance(2, 2, 2, eta=0.8, delta=0.05)
        tables = solve_complete(family, config)
        toy = Toy.from_family(family, config)
        assert enumerate_complete_policies(toy) == pytest.approx(
            TOY222_OPTIMUM, abs=1e-15
        )
        assert initial_value(tables) == pytest.approx(TOY222_OPTIMUM, abs=1e-12)

    @pytest.mark.parametrize("shape", [(1, 2, 2), (2, 3, 3), (3, 2, 3), (3, 3, 2)])
    @pytest.mark.parametrize("eta,delta", [(0.8, 0.05), (4.0, 0.0), (6.0, 0.2)])
    def test_small_instances_match_tree_oracle(self, shape, eta, delta):
        config, family = small_instance(*shape, eta=eta, delta=delta)
        tables = solve_complete(family, config)
        toy = Toy.from_family(family, config)
        assert initial_value(tables) == pytest.approx(
            complete_tree_value(toy), abs=1e-12
        )

    @pytest.mark.parametrize(
        "shape,eta,delta",
        [((6, 15, 5), 8.0, 0.04), ((5, 12, 4), 2.5, 0.15), ((8, 25, 5), 20.0, 0.02)],
    )
    def test_mid_scale_matches_memoized_reference(self, shape, eta, delta):
        # a second, structurally different solver (top-down memoized recursion
        # building its own multiset transitions) at sizes the raw tree cannot reach
        config, family = small_instance(*shape, eta=eta, delta=delta)
        tables = solve_complete(family, config)
        toy = Toy.from_family(family, config)
        assert initial_value(tables) == pytest.approx(
            complete_memo_value(toy), abs=1e-11
        )

    @pytest.mark.parametrize("stage,mset", [(1, (0,)), (2, (2, 2)), (3, (0, 1, 2))])
    def test_value_at_an_unreachable_state_is_a_named_error(self, small_solved, stage, mset):
        _, _, tables = small_solved
        named = re.escape(f"stage {stage}, multiset {mset}, bin 0")
        with pytest.raises(UnreachableStateError, match=named):
            tables.value(stage, 0, mset)
        row = tables.space.row(mset)
        assert tables.value(stage, None, mset) == tables.values[stage - 1][stage][row, -1]

    def test_mid_scale_state_values_match_reference(self):
        config, family = small_instance(5, 12, 4, eta=2.5, delta=0.15)
        tables = solve_complete(family, config)
        toy = Toy.from_family(family, config)
        # reachable states only: k unprobed relays at stage k have probed nothing
        states = [
            (1, None, (0,)), (2, None, (1, 4)), (3, 3, (1, 4)), (3, None, (2, 2, 0)),
            (2, 11, ()), (4, 0, (3, 3, 1)), (4, None, (0, 1, 2, 4)), (4, 7, (0, 1, 2)),
        ]
        expected = complete_memo_state_values(toy, states)
        for (k, b, g), ref in zip(states, expected):
            assert tables.value(k, b, g) == pytest.approx(ref, abs=1e-11)

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
        tables = solve_complete(family, config)
        toy = Toy.from_family(family, config)
        assert initial_value(tables) == pytest.approx(
            complete_tree_value(toy), abs=1e-12
        )


class TestBellman:
    def test_sampled_states_reproduce_their_definition(self, small_solved):
        # every reachable entry: a level of k unprobed relays at stage k
        # holds the none row alone, as its one column
        config, family, tables = small_solved
        eta, delta, tau = config.eta, config.delta, config.tau
        grid = reward_grid(tables.n_bins)
        n_bins = none = tables.n_bins
        n_loc = len(family)
        pmf = family.pmf_matrix
        space = tables.space

        def column(b):
            return -1 if b == none else b

        for k in range(1, config.n_relays + 1):
            for s in range(k + 1):
                none_only = s == k
                assert tables.values[k - 1][s].shape[1] == (1 if none_only else n_bins + 1)
                for row, g in enumerate(space.msets[s]):
                    for b in (none,) if none_only else (0, n_bins // 2, n_bins - 1, none):
                        cands = []
                        if b != none:
                            cands.append(-eta * grid[b])
                        for t in set(g):
                            rest = list(g)
                            rest.remove(t)
                            rest_row = space.row(tuple(rest))
                            val = eta * delta + sum(
                                pmf[t, r]
                                * tables.values[k - 1][s - 1][
                                    rest_row, r if b == none else max(b, r)
                                ]
                                for r in range(n_bins)
                            )
                            cands.append(val)
                        if k < config.n_relays:
                            cont = tau + sum(
                                tables.values[k][s + 1][space.plus[s][t][row], column(b)]
                                for t in range(n_loc)
                            ) / n_loc
                            cands.append(cont)
                        stored = tables.values[k - 1][s][row, column(b)]
                        if cands:
                            assert stored == pytest.approx(min(cands), abs=1e-12)
                        else:
                            assert np.isinf(stored)

    def test_two_solves_are_identical(self):
        config, family = small_instance(3, 5, 3, eta=1.5, delta=0.02)
        t1 = solve_complete(family, config)
        t2 = solve_complete(family, config)
        for k in range(config.n_relays):
            for s in range(len(t1.values[k])):
                assert np.array_equal(t1.values[k][s], t2.values[k][s])
                assert np.array_equal(t1.actions[k][s], t2.actions[k][s])


class TestActComplete:
    def test_nothing_probed_at_last_stage_probes(self, small_solved):
        config, family, tables = small_solved
        n = config.n_relays
        action = act_complete((n, None, (0, 1, 2)), tables)
        assert action.kind is Action.PROBE
        assert action.probe_target is not None

    def test_probe_target_is_stochastically_largest(self, small_solved):
        config, family, tables = small_solved
        rank = family.rank
        n = config.n_relays
        for mset in combinations_with_replacement(range(len(family)), 2):
            action = act_complete((n, None, mset), tables)
            assert action.kind is Action.PROBE
            assert action.probe_target == min(mset, key=lambda t: rank[t])

    def test_multiset_larger_than_stage_rejected(self, small_solved):
        _, _, tables = small_solved
        with pytest.raises(ValueError):
            act_complete((1, None, (0, 1)), tables)

    def test_multiset_past_the_capacity_rejected(self):
        config, family = small_instance(4, 15, 3, eta=2.0, delta=0.05)
        with pytest.raises(ValueError, match=r"keep at most 1 unprobed relays awake"):
            act_complete((3, None, (0, 1)), backward_induction(family, config))

    def test_state_with_no_legal_action_raises(self, small_solved):
        config, _, tables = small_solved
        with pytest.raises(IllegalActionError):
            act_complete((config.n_relays, None, ()), tables)

    @pytest.mark.parametrize("stage,mset", [(1, (2,)), (2, (0, 2)), (3, (0, 1, 1))])
    def test_unreachable_state_is_a_named_error(self, small_solved, stage, mset):
        # k unprobed relays at stage k have probed nothing, so no best reward
        _, _, tables = small_solved
        assert issubclass(UnreachableStateError, ValueError)
        named = re.escape(f"stage {stage}, multiset {mset}, bin 4")
        with pytest.raises(UnreachableStateError, match=named):
            act_complete((stage, 4, mset), tables)
        assert act_complete((stage, None, mset), tables).kind is Action.PROBE

    @pytest.mark.parametrize("state,named", [
        ((True, None, (0,)), r"stage True is not an integer in 1\.\.3"),
        ((3, True, (0,)), r"best-reward index True is not a bin of 0\.\.7"),
        ((1, None, (True,)), r"multiset \(True,\) is not a sorted multiset"),
    ])
    def test_bool_in_an_integer_field_rejected(self, small_solved, state, named):
        _, _, tables = small_solved
        with pytest.raises(ValueError, match=named):
            act_complete(state, tables)

    @pytest.mark.parametrize("mset", [(0, "a"), 5, None])
    def test_multiset_of_non_integers_is_a_value_error_naming_it(self, small_solved, mset):
        _, _, tables = small_solved
        named = re.escape(f"multiset {mset!r} is not a collection of integer location types")
        with pytest.raises(ValueError, match=named):
            act_complete((2, None, mset), tables)
        with pytest.raises(ValueError, match=named):
            tables.value(2, None, mset)

    @pytest.mark.parametrize("state,named", [
        ((0, 2, (1,)), r"stage 0 is not an integer in 1\.\.3"),
        ((2, 6, (1,)), r"best-reward index 6 is not a bin of 0\.\.5"),
        ((2, -1, (1,)), r"best-reward index -1 is not a bin of 0\.\.5"),
        ((True, 2, (1,)), r"stage True is not an integer in 1\.\.3"),
        ((2, 2, (0, 1, 2)), r"multiset of size 3 cannot occur at stage 2"),
    ], ids=["stage_0", "bin_6", "bin_minus_1", "stage_true", "size_past_stage"])
    def test_value_and_action_share_one_lookup(self, state, named):
        # each field is checked before it indexes a table, where stage 0 and
        # bin -1 would wrap, bin 6 would read the none row and True stage 1
        config, family = small_instance(4, 6, 3, eta=2.0, delta=0.05)
        tables = solve_complete(family, config)
        with pytest.raises(ValueError, match=named):
            tables.value(*state)
        with pytest.raises(ValueError, match=named):
            act_complete(state, tables)

    def test_unknown_types_rejected(self, small_solved):
        _, _, tables = small_solved
        with pytest.raises(ValueError):
            act_complete((2, None, (99,)), tables)


def test_overflow_names_the_multiset_without_building_every_tuple():
    config, family = small_instance(4, 12, 3, eta=1e308, delta=0.05)
    multiset_space.cache_clear()
    with pytest.raises(dp_complete.NonFiniteValueError, match="overflows float") as err:
        solve_complete(family, config)
    found = re.search(r"multiset size (\d+), row (\d+) (\(.*?\)), bin", str(err.value))
    size, row, named = int(found[1]), int(found[2]), found[3]
    space = multiset_space(len(family), config.n_relays)
    assert named == str(tuple(space.members[size][row].tolist()))
    assert "msets" not in space.__dict__


class TestCensus:
    def test_stars_and_bars_matches_enumeration(self):
        for n_types in (3, 5, 20):
            for size in range(0, 6):
                enumerated = sum(
                    1 for _ in combinations_with_replacement(range(n_types), size)
                )
                assert enumerated == math.comb(n_types + size - 1, size)

    def test_reference_count(self):
        assert math.comb(24, 5) == 42504

    def test_default_census(self, default_config):
        # the reachable entries: the 42,504 five-sets at stage 5 have probed
        # nothing, so they count their none row alone
        census = state_space_census(default_config)
        expected_last = sum(math.comb(19 + s, s) for s in range(5)) * 101 + math.comb(24, 5)
        assert census.complete[-1] == expected_last == 1_115_730
        assert sum(census.complete) == projected_state_count(20, 100, 5) == 1_330_779
        assert census.restricted == [101 * 21] * 5

    def test_seven_relays_fit_the_default_budget(self):
        census = state_space_census(ModelConfig(n_relays=7))
        assert census.complete == [121, 2331, 24871, 187726, 1115730, 5543230, 23911030]
        assert sum(census.complete) == projected_state_count(20, 100, 7) == 30_785_039
        assert sum(census.complete) < dp_complete.DEFAULT_STATE_BUDGET

    def test_restricted_linear_in_family_size(self):
        counts = {}
        for n in (5, 10, 20):
            cfg = ModelConfig(n_locations=n)
            counts[n] = state_space_census(cfg).restricted[0]
        assert counts[5] == 101 * 6
        assert counts[10] == 101 * 11
        assert counts[20] == 101 * 21
        # exact linearity: count(n) = (bins+1) * (n+1)
        assert (counts[10] - counts[5]) / 5 == (counts[20] - counts[10]) / 10

    @pytest.mark.parametrize("n_types", [1, 2, 20, 57])
    def test_closed_form_equals_the_sum_over_sizes(self, n_types):
        for n_bins, n_stages, capacity in product((2, 101), (1, 2, 5, 9), (1, 2, 3, 5, 9, 40)):
            assert (_states_per_stage(n_types, n_bins, n_stages, capacity)
                    == reference_states_per_stage(n_types, n_bins, n_stages, capacity))

    def test_single_type_counts_coincide_at_stage_one(self):
        census = state_space_census(ModelConfig(n_locations=1, n_relays=1))
        assert census.complete[0] == census.restricted[0]


class TestGuards:
    def test_budget_error_reports_projection(self, default_config, default_family):
        projected = projected_state_count(20, 100, 8)
        assert projected == 122_696_144
        with pytest.raises(BudgetExceededError) as err:
            solve_complete(default_family, default_config.with_overrides(n_relays=8))
        assert err.value.projected == projected
        assert str(projected) in str(err.value)

    def test_default_instance_fits_default_budget(self):
        assert projected_state_count(20, 100, 5) < 50_000_000


class TestReachableScale:
    """Only reachable entries are stored, which brings six relays over 20
    types within reach of the default budget."""

    def test_six_relays_are_solved(self, default_config, default_family):
        config = default_config.with_overrides(n_relays=6, eta=10.0)
        tables = solve_complete(default_family, config)
        stored = sum(level.size for stage in tables.values for level in stage)
        assert stored == projected_state_count(20, 100, 6) == 6_874_009
        value = initial_value(tables)
        assert complete_components(tables).cost == pytest.approx(value, abs=1e-9)
        assert verify_complete_conjectures(tables)["all_hold"] is True
        assert value <= initial_value(backward_induction(default_family, config)) + 1e-12

    def test_allocation_peak(self, default_config, default_family):
        # deterministic memory, not timing: the reference solve at eta 10
        # peaks at 26.6 MB with the multiset space built (85 MB when every
        # level stored its unreachable real bins); the cap leaves 20% headroom
        config = default_config.with_overrides(eta=10.0)
        solve_complete(default_family, config)  # builds the cached space and slot tables
        tracemalloc.start()
        try:
            solve_complete(default_family, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32e6

    def test_table_bytes(self, default_config, default_family):
        # the arrays the reference solve keeps: 11,977,011 bytes, of which
        # the one int8 action-code table per level takes 1,330,779 (14.6 MB
        # while a parallel int16 probe-target table rode along); the cap
        # leaves 5% headroom
        tables = solve_complete(default_family, default_config.with_overrides(eta=10.0))
        arrays = [a for stage in tables.values + tables.actions for a in stage]
        arrays += [kept for kept in tables.kept if kept is not None]
        assert all(a.dtype == np.int8 for stage in tables.actions for a in stage)
        assert sum(a.nbytes for a in arrays) <= 12.6e6


class TestClassDominance:
    @pytest.mark.parametrize("eta,delta", [(0.5, 0.1), (5.0, 0.05), (12.0, 0.01)])
    def test_complete_never_worse_than_restricted(self, eta, delta):
        config, family = small_instance(4, 12, 4, eta=eta, delta=delta)
        glb = initial_value(solve_complete(family, config))
        rst = initial_value(backward_induction(family, config))
        assert glb <= rst + 1e-9


class TestConjectures:
    def test_reports_clean_on_small_instance(self, small_solved):
        _, _, tables = small_solved
        report = verify_complete_conjectures(tables)
        assert report["probing_states_checked"] > 0
        assert report["probe_largest_violations"] == 0
        assert report["stage_independence_mismatches"] == 0
        assert report["value_monotone_violations"] == 0
        assert report["enlargement_violations"] == 0
        assert report["osla_stage_n_mismatches"] == 0
        assert report["all_hold"] is True

    @pytest.mark.parametrize("delta", [0.1, 0.01, 0.0])
    @pytest.mark.parametrize("shape,eta", [((3, 8, 3), 2.0), ((4, 12, 4), 0.5), ((4, 6, 4), 12.0)])
    def test_probe_largest_count_matches_oracle(self, shape, eta, delta):
        config, family = small_instance(*shape, eta=eta, delta=delta)
        tables = solve_complete(family, config)
        report = verify_complete_conjectures(tables)
        assert report["probing_states_checked"] > 0
        assert report["probe_largest_violations"] == probe_largest_violations(tables)

    def test_lowered_probe_value_is_one_violation(self):
        config, family = small_instance(3, 8, 3, eta=2.0, delta=0.05)
        tables = solve_complete(family, config)
        before = verify_complete_conjectures(tables)
        # at stage N with every member unprobed and no reward yet, probing is
        # the only action; no other check reads this entry
        level = tables.values[-1][-1].copy()
        assert level.shape[1] == 1  # the none row alone, its last column
        assert tables.actions[-1][-1][0, -1] >= PROBE
        level[0, -1] -= 1e-6
        values = [list(stage) for stage in tables.values]
        values[-1][-1] = level
        report = verify_complete_conjectures(replace(tables, values=values))
        assert report["probe_largest_violations"] == before["probe_largest_violations"] + 1 == 1
        assert report["all_hold"] is False

    # one corrupted entry per failure counter, read by that check alone

    def test_flipped_stop_before_the_last_stage_is_one_mismatch(self, small_solved):
        _, _, tables = small_solved
        before = verify_complete_conjectures(tables)
        top = tables.n_bins - 1
        # the empty set at stage 1 against stage 2, its reference: both stop at the top bin
        assert tables.actions[0][0][0, top] == tables.actions[1][0][0, top] == STOP
        levels = corrupted(tables)
        levels.actions[0][0][0, top] = CONTINUE
        report = verify_complete_conjectures(levels)
        assert (report["stage_independence_mismatches"]
                == before["stage_independence_mismatches"] + 1 == 1)
        assert report["all_hold"] is False

    def test_raised_enlarged_value_is_one_violation(self, small_solved):
        _, _, tables = small_solved
        before = verify_complete_conjectures(tables)
        # J_1(none, {0}) above J_1(none, {}): only the enlargement check can
        # fail on it, the probe-largest check fails on lowered values only
        level = tables.values[0][1].copy()
        assert level.shape[1] == 1  # the none row alone
        level[0, -1] = tables.values[0][0][0, -1] + 1.0
        values = [list(stage) for stage in tables.values]
        values[0][1] = level
        report = verify_complete_conjectures(replace(tables, values=values))
        assert report["enlargement_violations"] == before["enlargement_violations"] + 1 == 1
        assert report["all_hold"] is False

    def test_stage_n_stop_flipped_is_one_osla_mismatch(self, small_solved):
        _, _, tables = small_solved
        before = verify_complete_conjectures(tables)
        top = tables.n_bins - 1
        # at stage N the top bin stops, ahead of the look-ahead probe by
        # eta * delta, far past the tie tolerance; no other check reads
        # a stage-N stop
        assert tables.actions[-1][1][0, top] == STOP
        levels = corrupted(tables)
        levels.actions[-1][1][0, top] = CONTINUE
        report = verify_complete_conjectures(levels)
        assert report["osla_stage_n_mismatches"] == before["osla_stage_n_mismatches"] + 1 == 1
        assert report["all_hold"] is False

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_tables_below_capacity_n_are_refused(self, capacity):
        config, family = small_instance(4, 6, 3, eta=2.0, delta=0.05)
        tables = _induction(family, config, capacity)[0]
        named = f"keep at most {capacity} unprobed relays awake, below N = 3"
        with pytest.raises(ValueError, match=named):
            verify_complete_conjectures(tables)

    def test_nan_value_fails_the_report(self):
        config, family = small_instance(6, 20, 4, eta=2.0, delta=0.05)
        tables = solve_complete(family, config)
        before = verify_complete_conjectures(tables)
        assert before["all_hold"] is True
        level = tables.values[2][2].copy()
        level[0, 0] = np.nan
        values = [list(stage) for stage in tables.values]
        values[2][2] = level
        report = verify_complete_conjectures(replace(tables, values=values))
        assert report["value_monotone_violations"] == before["value_monotone_violations"] + 1
        assert report["all_hold"] is False


class TestMultisetSpace:
    @pytest.mark.parametrize("n_types,max_size", [(1, 0), (1, 3), (3, 4), (20, 5), (2, 70)])
    def test_array_build_equals_enumeration(self, n_types, max_size):
        # (2, 70): base-2 keys of size-70 sets would not fit in int64
        space = MultisetSpace(n_types, max_size)
        msets, plus = reference_multiset_space(n_types, max_size)
        assert space.msets == msets
        for s, level in enumerate(msets):
            assert np.array_equal(space.members[s], np.array(level, dtype=np.intp).reshape(len(level), s))
            assert [space.row(g) for g in level] == list(range(len(level)))
        assert len(space.plus) == len(plus)
        for got, want in zip(space.plus, plus):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("mset", [(1, 0), (0, 3), (-1,), (0, 0, 0, 0, 0), (0.5,)])
    def test_unknown_multiset_is_a_value_error_naming_it(self, mset):
        with pytest.raises(ValueError, match=re.escape(repr(mset))):
            MultisetSpace(3, 4).row(mset)

    def test_solve_builds_no_tuples(self):
        multiset_space.cache_clear()
        config, family = small_instance(3, 8, 3, eta=2.0, delta=0.05)
        tables = solve_complete(family, config)
        assert "msets" not in vars(tables.space)
        assert tables.space.msets[2][tables.space.row((0, 2))] == (0, 2)


class TestRankedMembers:
    @pytest.mark.parametrize("n_types,max_size", [(1, 3), (4, 3), (7, 4), (20, 5), (300, 2)])
    def test_equal_to_the_table_construction(self, n_types, max_size):
        space = MultisetSpace(n_types, max_size)
        rank = tuple(np.random.default_rng(n_types).permutation(n_types).tolist())
        for s in range(1, max_size + 1):
            for got, want in zip(_ranked_members(space, s, rank),
                                 reference_ranked_members(space, s, rank)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert not got.flags.writeable

    def test_allocation_peak_is_linear_in_the_types(self):
        # one relay over 33,000 types: a (types x sets) table of the rows
        # less each type took 1,090 MB; the arrays themselves take under 1 MB
        n = 33_000
        space = MultisetSpace(n, 1)
        rank = tuple(range(n - 1, -1, -1))
        tracemalloc.start()
        try:
            types, rests = _ranked_members(space, 1, rank)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6
        assert np.array_equal(types[:, 0], np.arange(n)) and not rests.any()


class TestOverflowRule:
    @pytest.mark.parametrize("capacity", [1, 2, 3])
    @pytest.mark.parametrize("batch", [dp_complete.OVERFLOW_ELEMENTS, 60])
    def test_kept_table_follows_the_rule_state_by_state(self, monkeypatch, capacity, batch):
        # a batch of 60 entries splits the 4 newcomer types into batches of
        # at most two
        monkeypatch.setattr(dp_complete, "OVERFLOW_ELEMENTS", batch)
        config, family = small_instance(4, 6, 4, eta=6.0, delta=0.05)
        tables = _induction(family, config, capacity)[0]
        swapped = 0
        for stage in range(capacity + 1, config.n_relays + 1):
            kept = tables.kept[stage - 1]
            # on the columns the table holds: the none column alone at stage
            # capacity + 1 above capacity 1
            assert kept.shape[-1] == (1 if stage == capacity + 1 > 2 else tables.n_bins + 1)
            want = reference_overflow_keep(tables, stage)[..., -kept.shape[-1]:]
            assert np.array_equal(kept, want), stage
            swapped += int((kept != np.arange(kept.shape[1])[:, None]).sum())
        assert swapped > 0  # some wake-ups drop an awake relay

    @pytest.mark.parametrize("capacity", [1, 2, 3, 4])
    def test_full_continue_cost_reads_the_kept_values(self, capacity):
        config, family = small_instance(4, 6, 4, eta=6.0, delta=0.05)
        tables, _, conts = _induction(family, config, capacity, keep_costs=True)
        # no wake-up overflows into the stages up to the capacity (all at N)
        assert all(kept is None for kept in tables.kept[:capacity])
        n_types, bins = len(family), np.arange(tables.n_bins + 1)
        for k in range(capacity, config.n_relays):
            # stage k continues from its full level into stage k + 1
            total = np.zeros(tables.values[k][capacity].shape)
            held = bins[-tables.kept[k].shape[-1]:]  # the columns the kept table holds
            for t in range(n_types):
                total[:, held] += tables.values[k][capacity][tables.kept[k][t], held]
            want = total / n_types + config.tau
            # above capacity 1 the full level at stage k = capacity holds
            # its none row alone
            got = conts[k - 1][capacity]
            assert got.shape[1] == (1 if k == capacity > 1 else tables.n_bins + 1)
            assert got.tobytes() == want[:, -got.shape[1]:].tobytes(), k


class TestProbeKernel:
    """The slot-gather kernel against the per-target scatter, bit for bit."""

    @staticmethod
    def decoded(codes):
        """The probed type of each probe code, -1 elsewhere, as the
        reference's int16 targets."""
        return np.where(codes >= PROBE, codes.astype(np.intp) - PROBE, -1).astype(np.int16)

    @classmethod
    def assert_levels_match(cls, family, config, capacity):
        # above capacity 1 a level of k unprobed relays at stage k is solved
        # at its none row alone, which must equal the reference's none column
        tables, probes, _ = _induction(family, config, capacity, keep_costs=True)
        space, rank = tables.space, tuple(family.rank)
        surcharge = config.eta * config.delta
        for k in range(1, config.n_relays + 1):
            for s in range(1, min(k, capacity) + 1):
                none_only = s == k and capacity >= 2
                smaller = tables.values[k - 1][s - 1][:, :tables.n_bins]
                got = _probe_costs(smaller, family.pmf_matrix, family.cdf_matrix, surcharge,
                                   *_ranked_members(space, s, rank), none_only)
                want = reference_probe_costs(smaller, family, surcharge, space, s)
                if none_only:
                    want = tuple(w[:, tables.n_bins:] for w in want)
                assert tables.values[k - 1][s].shape == want[0].shape, (k, s)
                assert got[0].tobytes() == want[0].tobytes(), (k, s)
                assert got[1].dtype == action_dtype(len(family)), (k, s)
                assert cls.decoded(got[1]).tobytes() == want[1].tobytes(), (k, s)
                assert probes[k - 1][s].tobytes() == want[0].tobytes(), (k, s)
        return tables

    @pytest.mark.parametrize("capacity", [1, 2, 4])
    @pytest.mark.parametrize("delta", [0.05, 0.0])
    @pytest.mark.parametrize("batch", [dp_complete.BATCH_ELEMENTS, 40])
    def test_costs_and_targets_equal_the_reference(self, monkeypatch, capacity, delta, batch):
        # a batch of 40 floats splits every level with more than one smaller
        # row into chunks, down to one bin per chunk from size 3 up
        monkeypatch.setattr(dp_complete, "BATCH_ELEMENTS", batch)
        config, family = small_instance(4, 12, 4, eta=2.0, delta=delta)
        tables = self.assert_levels_match(family, config, capacity)
        # stopping at the lowest bin, of reward 0, costs -0.0
        stage_n_bare = tables.values[-1][0][0, 0]
        assert stage_n_bare == 0.0 and np.signbit(stage_n_bare)

    def test_level_spanning_two_chunks_at_the_real_batch(self):
        # size 3 over 20 types reads 20 x 210 (type, row) pairs per bin, so
        # its 100 bins take two chunks, at stage 3 (none row alone) and 4
        config, family = small_instance(20, 100, 4, eta=10.0, delta=0.01)
        assert dp_complete.BATCH_ELEMENTS // (20 * 210) < 100
        self.assert_levels_match(family, config, 3)

    @classmethod
    def assert_regime(cls, monkeypatch, tables, k, s, none_only, cumsums):
        """The level of size s at stage k equals the reference bitwise, and
        its running sums take ``cumsums`` np.cumsum calls."""
        family, config, n_bins = tables.family, tables.config, tables.n_bins
        smaller = tables.values[k - 1][s - 1][:, :n_bins]
        surcharge = config.eta * config.delta
        calls, cumsum = [], np.cumsum

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return cumsum(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(dp_complete.np, "cumsum", counted)
            got = _probe_costs(smaller, family.pmf_matrix, family.cdf_matrix, surcharge,
                               *_ranked_members(tables.space, s, tuple(family.rank)), none_only)
        assert len(calls) == cumsums
        want = reference_probe_costs(smaller, family, surcharge, tables.space, s)
        want = tuple(w[:, -tables.values[k - 1][s].shape[1]:] for w in want)
        assert got[0].tobytes() == want[0].tobytes()
        assert cls.decoded(got[1]).tobytes() == want[1].tobytes()

    def test_many_bins_of_a_narrow_plane_take_one_cumsum(self, monkeypatch, default_config):
        # capacity 1 at 400 bins: the (1, 1) level reads the one row of size
        # 0, a plane of 20 (type, row) pairs, and all 400 bins fit one chunk
        config = default_config.with_overrides(eta=10.0, n_reward_bins=400)
        family = build_ordered_family(build_forwarding_region(config), config)
        tables = _induction(family, config, 1)[0]
        plane = len(family)
        assert dp_complete.BATCH_ELEMENTS // plane >= 400 > plane
        self.assert_regime(monkeypatch, tables, 1, 1, False, cumsums=1)

    def test_few_bins_of_a_wide_plane_add_plane_by_plane(self, monkeypatch, default_config,
                                                         default_family):
        # the reference solve's size-4 level at stage 5 reads 20 x 1540 pairs
        # per bin in chunks of 8 bins, each summed one plane at a time
        tables = solve_complete(default_family, default_config.with_overrides(eta=10.0))
        plane = len(default_family) * math.comb(22, 3)
        width = dp_complete.BATCH_ELEMENTS // plane
        assert 1 < width < tables.n_bins and plane >= width
        self.assert_regime(monkeypatch, tables, 5, 4, False, cumsums=0)

    def test_level_of_the_none_row_alone_carries_one_sum(self, monkeypatch, default_config,
                                                          default_family):
        # the size-4 level at stage 4, which has probed nothing, needs only
        # the sum over every bin of the stage's size-3 level: no cumsum, and
        # one column
        tables = solve_complete(default_family, default_config.with_overrides(eta=10.0))
        assert tables.values[3][4].shape[1] == 1
        self.assert_regime(monkeypatch, tables, 4, 4, True, cumsums=0)

    def test_non_finite_inputs_behave_as_the_reference(self):
        config, family = small_instance(4, 12, 3, eta=2.0, delta=0.05)
        tables = solve_complete(family, config)
        space, rank = tables.space, tuple(family.rank)
        smaller = tables.values[1][1][:, :tables.n_bins].copy()
        smaller[0, 5] = np.nan
        smaller[2, :] = np.inf
        with np.errstate(invalid="ignore"):
            want = reference_probe_costs(smaller, family, 0.1, space, 2)
            for none_only in (False, True):
                got = _probe_costs(smaller, family.pmf_matrix, family.cdf_matrix, 0.1,
                                   *_ranked_members(space, 2, rank), none_only)
                cols = slice(tables.n_bins if none_only else 0, None)
                assert got[0].tobytes() == want[0][:, cols].tobytes()
                assert self.decoded(got[1]).tobytes() == want[1][:, cols].tobytes()

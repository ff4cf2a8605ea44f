import math
import re
import tracemalloc
from dataclasses import replace
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPORT_PEAK, SOLVE_PEAK, SWEEP_PEAK, corrupted, small_instance
from memory_peaks import table_bytes, traced_peak
from oracles import (
    Toy,
    complete_state_values,
    complete_value,
    enumerate_complete_policies,
    probe_largest_violations,
    reference_multiset_space,
    reference_overflow_keep,
    reference_probe_costs,
    reference_ranked_members,
    reference_states_per_stage,
)
from relaymdp import dp_complete, model
from relaymdp._kernels import (CONTINUE, NO_ACTION, PROBE, STOP, IllegalActionError,
                               action_dtype, dead_bins)
from relaymdp.dp_complete import (
    BudgetExceededError,
    MultisetSpace,
    UnreachableStateError,
    _induction,
    _overflow_rule,
    _probe_costs,
    _probe_plan,
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
from relaymdp.model import (ConfigError, ModelConfig, build_forwarding_region,
                            build_ordered_family, order_family, reward_grid)

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
            complete_value(toy), abs=1e-12
        )

    @pytest.mark.parametrize(
        "shape,eta,delta",
        [((6, 15, 5), 8.0, 0.04), ((5, 12, 4), 2.5, 0.15), ((8, 25, 5), 20.0, 0.02)],
    )
    def test_mid_scale_matches_memoized_reference(self, shape, eta, delta):
        # a second, structurally different solver (top-down memoized recursion
        # building its own multiset transitions) at mid scale
        config, family = small_instance(*shape, eta=eta, delta=delta)
        tables = solve_complete(family, config)
        toy = Toy.from_family(family, config)
        assert initial_value(tables) == pytest.approx(
            complete_value(toy), abs=1e-11
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
        expected = complete_state_values(toy, states)
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
            complete_value(toy), abs=1e-12
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
        ((True, None, (0,)), r"stage must be an integer in 1 \.\. 3, got True"),
        ((3, True, (0,)), r"best-reward index must be an integer in 0 \.\. 7, got True"),
        ((1, None, (True,)), r"multiset member must be an integer in 0 \.\. 2, got True"),
    ])
    def test_bool_in_an_integer_field_rejected(self, small_solved, state, named):
        _, _, tables = small_solved
        with pytest.raises(ValueError, match=named):
            act_complete(state, tables)

    @pytest.mark.parametrize("mset", [(0, "a"), 5, None])
    def test_multiset_of_non_integers_is_a_value_error_naming_it(self, small_solved, mset):
        # a collection by its first member that is not an integer
        _, _, tables = small_solved
        named = re.escape("multiset member must be an integer in 0 .. 2, got 'a'"
                          if isinstance(mset, tuple) else
                          f"multiset {mset!r} is not a collection of integer location types")
        with pytest.raises(ValueError, match=named):
            act_complete((2, None, mset), tables)
        with pytest.raises(ValueError, match=named):
            tables.value(2, None, mset)

    @pytest.mark.parametrize("mset,named", [
        ((10 ** 5000, "a"), "multiset member must be an integer in 0 .. 2, got "
                            "<an integer of 16610 bits>"),
        (("a", 10 ** 5000), "multiset member must be an integer in 0 .. 2, got 'a'"),
        (10 ** 5000, "multiset <an integer of 16610 bits> is not a collection"),
    ], ids=["huge_then_str", "str_then_huge", "huge"])
    def test_an_integer_past_the_digit_limit_is_not_formatted(self, small_solved, mset, named):
        # repr of an int of more than 4,300 digits raises Python's own ValueError
        _, _, tables = small_solved
        with pytest.raises(ValueError, match=re.escape(named)):
            act_complete((2, None, mset), tables)

    @pytest.mark.parametrize("state,named", [
        ((0, 2, (1,)), r"stage must be an integer in 1 \.\. 3, got 0"),
        ((2, 6, (1,)), r"best-reward index must be an integer in 0 \.\. 5, got 6"),
        ((2, -1, (1,)), r"best-reward index must be an integer in 0 \.\. 5, got -1"),
        ((True, 2, (1,)), r"stage must be an integer in 1 \.\. 3, got True"),
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

    def test_a_stage_past_the_digit_limit_is_named_by_its_bits(self, small_solved):
        # str() of an int of more than 4,300 digits raises ValueError
        _, _, tables = small_solved
        with pytest.raises(ConfigError, match=r"^stage must be an integer in 1 \.\. 3, got "
                                              r"<an integer of 16610 bits>$"):
            act_complete((10 ** 5000, None, (0,)), tables)

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
        assert sum(census.complete) < model.DEFAULT_STATE_BUDGET

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

    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_below_n_the_budget_counts_the_kept_rows(self, monkeypatch, capacity):
        # every value and kept row a capacity-c solve stores, and no more
        config, family = small_instance(4, 6, 4, eta=2.0, delta=0.05)
        tables = _induction(family, config, capacity)
        stored = sum(level.size for stage in tables.values for level in stage) + sum(
            kept.size for kept in tables.kept if kept is not None)
        monkeypatch.setattr(model, "DEFAULT_STATE_BUDGET", stored)
        _induction(family, config, capacity)
        monkeypatch.setattr(model, "DEFAULT_STATE_BUDGET", stored - 1)
        with pytest.raises(BudgetExceededError, match=f"= {stored} memo entries"):
            _induction(family, config, capacity)


class TestReachableScale:
    """Only reachable entries are stored, which brings six relays over 20
    types within reach of the default budget."""

    def test_six_relays_are_solved(self, default_config, default_family):
        config = default_config.with_overrides(n_relays=6, eta=10.0)
        tables = solve_complete(default_family, config)
        stored = sum(level.size for stage in tables.values for level in stage)
        assert stored == projected_state_count(20, 100, 6) == 6_874_009
        value = initial_value(tables)
        sweep, comps = traced_peak(lambda: complete_components(tables))
        assert comps.cost == pytest.approx(value, abs=1e-9)
        report, conjectures = traced_peak(lambda: verify_complete_conjectures(tables))
        assert conjectures["all_hold"] is True
        assert value <= initial_value(backward_induction(default_family, config)) + 1e-12
        # the peaks beside the tables stay within the reference config's
        # constants: 17.6 (solve; 22.5 while the probe kernel kept a chunk's
        # sums alive beside the next), 2.9 (sweep) and 2.1 MB (report),
        # against 53.8, 28.2 and 60.1 MB while each read whole levels at a
        # time; the sweep holds the float masses of two stages at a time
        held = table_bytes(tables)
        masses = [8 * sum(a.size for a in stage) for stage in tables.actions]
        del tables
        solve = traced_peak(lambda: solve_complete(default_family, config))[0]
        assert solve - held <= SOLVE_PEAK
        assert sweep - max(map(sum, zip(masses, masses[1:]))) <= SWEEP_PEAK
        assert report <= REPORT_PEAK

    def test_allocation_peak(self, default_config, default_family):
        # deterministic memory, not timing: the reference solve at eta 10
        # peaks at 18.1 MB with the multiset space built (19.7 MB while the
        # probe kernel kept a chunk's sums alive beside the next, 23.7 MB
        # while it held a transposed copy of the smaller level, 85 MB when
        # every level stored its unreachable real bins)
        config = default_config.with_overrides(eta=10.0)
        solve_complete(default_family, config)  # builds the cached space and slot tables
        assert traced_peak(lambda: solve_complete(default_family, config))[0] <= SOLVE_PEAK

    def test_table_bytes(self, default_config, default_family):
        # the arrays the reference solve keeps: 11,977,011 bytes, of which
        # the one int8 action-code table per level takes 1,330,779 (14.6 MB
        # while a parallel int16 probe-target table rode along); the cap
        # leaves 5% headroom
        tables = solve_complete(default_family, default_config.with_overrides(eta=10.0))
        assert all(a.dtype == np.int8 for stage in tables.actions for a in stage)
        assert table_bytes(tables) <= 12.6e6


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

    def test_two_relays_have_no_stage_pair_to_compare(self):
        # continuing is available at stage 1 alone, so no slice has a second stage
        config, family = small_instance(3, 6, 2, eta=2.0, delta=0.05)
        report = verify_complete_conjectures(solve_complete(family, config))
        assert report["stopping_slices_checked"] == 0
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

    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_tables_below_capacity_n_are_reported(self, capacity):
        # the checks cover the sets of at most min(k, c) members that the
        # capacity-c levels hold
        config, family = small_instance(4, 6, 3, eta=2.0, delta=0.05)
        report = verify_complete_conjectures(_induction(family, config, capacity))
        assert report["probing_states_checked"] > 0
        assert report["all_hold"] is True

    def test_allocation_peak(self, default_config, default_family):
        # deterministic memory, not timing: above the tables it reads, the
        # report of the reference solve at eta 10 peaks at 2.07 MB (16.1 MB
        # while each check read its levels whole)
        tables = solve_complete(default_family, default_config.with_overrides(eta=10.0))
        verify_complete_conjectures(tables)  # builds the cached slot tables
        assert traced_peak(lambda: verify_complete_conjectures(tables))[0] <= REPORT_PEAK

    @pytest.mark.parametrize("batch", [1, 40, 1000])
    def test_the_report_is_the_same_in_small_batches(self, monkeypatch, batch):
        # noisy values and codes fail every check many times over; a batch
        # of 1 float reads one row at a time, of 40 or 1000 a few rows (or,
        # at a level of the none row alone, a few sets' pairs)
        config, family = small_instance(4, 12, 4, eta=2.0, delta=0.05)
        tables = solve_complete(family, config)
        rng = np.random.default_rng(5)
        values = [[v + rng.normal(0.0, 0.3, v.shape) for v in stage] for stage in tables.values]
        levels = replace(corrupted(tables), values=values)
        for stage in levels.actions:
            for act in stage:
                act[rng.random(act.shape) < 0.2] = STOP
                act[rng.random(act.shape) < 0.2] = PROBE
        whole = verify_complete_conjectures(levels)
        assert all(whole[key] > 0 for key in whole if key != "all_hold")
        # every probing state of every level of one or more relays, once
        assert whole["probing_states_checked"] == sum(
            int((act >= PROBE).sum()) for stage in levels.actions for act in stage[1:])
        monkeypatch.setattr(dp_complete, "BATCH_ELEMENTS", batch)
        assert verify_complete_conjectures(levels) == whole

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

    @pytest.mark.parametrize("mset,named", [
        ((1, 5), "multiset member must be an integer in 0 .. 2, got 5"),
        ((0, 3), "multiset member must be an integer in 0 .. 2, got 3"),
        ((-1,), "multiset member must be an integer in 0 .. 2, got -1"),
        ((0, 0, 0, 0, 0), "multiset (0, 0, 0, 0, 0) holds more than the 4 members"),
        ((0.5,), "multiset member must be an integer in 0 .. 2, got 0.5"),
    ], ids=[f"mset{i}" for i in range(5)])
    def test_unknown_multiset_is_a_value_error_naming_it(self, mset, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            MultisetSpace(3, 4).row(mset)

    def test_member_order_does_not_matter(self):
        space = MultisetSpace(3, 4)
        assert space.row((1, 0)) == space.row((0, 1))
        assert space.row((2, 0, 1, 0)) == space.row((0, 0, 1, 2))

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
        tables = _induction(family, config, capacity)
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
        tables = _induction(family, config, capacity)
        # no wake-up overflows into the stages up to the capacity (all at N)
        assert all(kept is None for kept in tables.kept[:capacity])
        for k in range(capacity, config.n_relays):
            # stage k continues from its full level into stage k + 1, on the
            # columns the kept table holds: above capacity 1 the none row
            # alone where the full level at stage k = capacity holds only it
            held = np.arange(tables.n_bins + 1)[-tables.kept[k].shape[-1]:]
            assert len(held) == (1 if k == capacity > 1 else tables.n_bins + 1)
            level = tables.values[k][capacity]
            total = np.zeros((len(level), len(held)))
            for t in range(len(family)):
                total += level[tables.kept[k][t], held]
            kept, got = _overflow_rule(tables.space, level[:, held], capacity,
                                       tuple(family.rank))
            assert np.array_equal(kept, tables.kept[k]), k
            assert got.tobytes() == total.tobytes(), k


class TestProbeKernel:
    """The slot-gather kernel against the per-target scatter, bit for bit."""

    @staticmethod
    def decoded(codes):
        """The probed type of each probe code, -1 elsewhere, as the
        reference's int16 targets."""
        return np.where(codes >= PROBE, codes.astype(np.intp) - PROBE, -1).astype(np.int16)

    @staticmethod
    def plans(family, space, dead_from, max_size):
        """The kernel's plans for the sets of each size 1..max_size, None at
        size 0, from the dead bin of each type."""
        plans = [None]
        for _ in range(max_size):
            plans.append(_probe_plan(family, space, tuple(family.rank), dead_from, plans[-1]))
        return plans

    @classmethod
    def nothing_dead(cls, tables, s):
        """The kernel's plan for the size-s sets when no type is ever dead."""
        return cls.plans(tables.family, tables.space, np.full(len(tables.family), tables.n_bins),
                         s)[s]

    @classmethod
    def assert_levels_match(cls, family, config, capacity):
        # above capacity 1 a level of k unprobed relays at stage k is solved
        # at its none row alone, which must equal the reference's none column
        tables = _induction(family, config, capacity)
        space, rank = tables.space, tuple(family.rank)
        surcharge = config.eta * config.delta
        for k in range(1, config.n_relays + 1):
            for s in range(1, min(k, capacity) + 1):
                none_only = s == k and capacity >= 2
                smaller = tables.values[k - 1][s - 1][:, :tables.n_bins]
                got = _probe_costs(smaller, tables.values[k - 1][0][0, :tables.n_bins],
                                   surcharge, cls.nothing_dead(tables, s), none_only)
                want = reference_probe_costs(smaller, family, surcharge, space, s)
                if none_only:
                    want = tuple(w[:, tables.n_bins:] for w in want)
                assert tables.values[k - 1][s].shape == want[0].shape, (k, s)
                assert got[0].tobytes() == want[0].tobytes(), (k, s)
                assert got[1].dtype == action_dtype(len(family)), (k, s)
                assert cls.decoded(got[1]).tobytes() == want[1].tobytes(), (k, s)
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
            got = _probe_costs(smaller, tables.values[k - 1][0][0, :n_bins], surcharge,
                               cls.nothing_dead(tables, s), none_only)
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
        tables = _induction(family, config, 1)
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

    def test_level_of_the_none_row_alone_over_a_narrow_plane_takes_one_cumsum(
            self, monkeypatch):
        # at capacity 2 the size-2 level at stage 2 has probed nothing and
        # reads the stage's size-1 level, a plane of 3 x 3 (type, row) pairs,
        # over 40 bins: one chunk, summed by np.cumsum
        config, family = small_instance(3, 40, 3, eta=2.0, delta=0.05)
        tables = _induction(family, config, 2)
        assert tables.values[1][2].shape[1] == 1 and 3 * 3 < 40
        self.assert_regime(monkeypatch, tables, 2, 2, True, cumsums=1)

    @staticmethod
    def dead_rows(tables):
        """The first real bin from which every member of a set is dead, of
        the sets of each size, worked out from the members: 0 for the empty
        set."""
        config, family = tables.config, tables.family
        first = dead_bins(family.excess_bound, config.eta, config.delta,
                          max(1.0, config.eta, config.n_relays * config.tau))
        return [np.zeros(1, dtype=int)] + [first[m].max(axis=1).astype(int)
                                           for m in tables.space.members[1:]]

    @classmethod
    def assert_dead_states_hold_the_bare_row(cls, tables):
        """Every real-bin state whose members are all dead holds the value
        and the code of the stage's size-0 row, bitwise; returns how many."""
        dead, n_bins, checked = cls.dead_rows(tables), tables.n_bins, 0
        for k, (values, actions) in enumerate(zip(tables.values, tables.actions), start=1):
            for s in range(1, len(values)):
                val, act = values[s][:, :n_bins], actions[s][:, :n_bins]
                if values[s].shape[1] == 1:  # the none row alone
                    continue
                pruned = np.arange(n_bins) >= dead[s][:, None]
                bare_val = np.broadcast_to(values[0][0, :n_bins], val.shape)[pruned]
                bare_act = np.broadcast_to(actions[0][0, :n_bins], act.shape)[pruned]
                assert val[pruned].tobytes() == bare_val.tobytes(), (k, s)
                assert act[pruned].tobytes() == bare_act.tobytes(), (k, s)
                checked += int(pruned.sum())
        return checked

    @pytest.mark.parametrize("delta", [0.1, 0.01])
    @pytest.mark.parametrize("capacity", [1, 5])
    def test_states_whose_members_are_all_dead_hold_the_bare_row(
            self, default_config, default_family, capacity, delta):
        # the reference config at eta 10: the kernel leaves these states
        # unscanned, and carries the bare row's sums into them
        tables = _induction(default_family, default_config.with_overrides(eta=10.0, delta=delta),
                            capacity)
        assert self.assert_dead_states_hold_the_bare_row(tables) > 0

    def test_states_whose_members_are_all_dead_hold_the_bare_row_on_a_toy(self):
        # three laws on 8 bins, each dominating the one before, at capacity 2
        pmf = [[.4, .3, .2, .1, 0, 0, 0, 0], [.1, .2, .2, .2, .1, .1, .1, 0],
               [0, .05, .1, .15, .2, .2, .15, .15]]
        family = order_family(np.array(pmf), np.array([1.0, 2.0, 3.0]))
        config = ModelConfig(n_locations=3, n_reward_bins=8, n_relays=4, eta=4.0,
                             delta=0.08, tau=0.1).validate()
        tables = _induction(family, config, 2)
        assert self.assert_dead_states_hold_the_bare_row(tables) > 0

    @pytest.mark.parametrize("capacity", [1, 2, 4])
    @pytest.mark.parametrize("batch", [dp_complete.BATCH_ELEMENTS, 40])
    def test_pruned_costs_equal_the_reference_wherever_a_member_lives(
            self, monkeypatch, capacity, batch):
        # a batch of 40 floats cuts the levels from size 2 up into one-bin
        # chunks, so smaller rows become live chunk by chunk
        monkeypatch.setattr(dp_complete, "BATCH_ELEMENTS", batch)
        config, family = small_instance(6, 12, 4, eta=10.0, delta=0.1)
        tables = _induction(family, config, capacity)
        space, n_bins = tables.space, tables.n_bins
        dead = self.dead_rows(tables)
        first = dead_bins(family.excess_bound, config.eta, config.delta,
                          max(1.0, config.eta, config.n_relays * config.tau))
        plans = self.plans(family, space, first, capacity)
        surcharge, pruned = config.eta * config.delta, 0
        for k in range(1, config.n_relays + 1):
            for s in range(1, min(k, capacity) + 1):
                none_only = s == k and capacity >= 2
                smaller = tables.values[k - 1][s - 1][:, :n_bins]
                got = _probe_costs(smaller, tables.values[k - 1][0][0, :n_bins], surcharge,
                                   plans[s], none_only)
                want = reference_probe_costs(smaller, family, surcharge, space, s)
                # a member lives at a real bin below its set's dead bin, and
                # at the none row, which is never pruned
                lives = np.arange(n_bins + 1) < dead[s][:, None]
                lives[:, -1] = True
                if none_only:
                    want, lives = tuple(w[:, n_bins:] for w in want), lives[:, n_bins:]
                assert got[0][lives].tobytes() == want[0][lives].tobytes(), (k, s)
                assert self.decoded(got[1])[lives].tobytes() == want[1][lives].tobytes(), (k, s)
                assert np.isposinf(got[0][~lives]).all() and (got[1][~lives] == NO_ACTION).all()
                pruned += int((~lives).sum())
        assert pruned > 0

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
                got = _probe_costs(smaller, tables.values[1][0][0, :tables.n_bins], 0.1,
                                   self.nothing_dead(tables, 2), none_only)
                cols = slice(tables.n_bins if none_only else 0, None)
                assert got[0].tobytes() == want[0][:, cols].tobytes()
                assert self.decoded(got[1]).tobytes() == want[1][:, cols].tobytes()

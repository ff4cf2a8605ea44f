import math
import re
from dataclasses import replace
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_instance
from oracles import (
    Toy,
    complete_memo_state_values,
    complete_memo_value,
    complete_tree_value,
    enumerate_complete_policies,
    probe_largest_violations,
    reference_multiset_space,
    reference_probe_costs,
)
from relaymdp import dp_complete
from relaymdp._kernels import PROBE, IllegalActionError
from relaymdp.dp_complete import (
    BudgetExceededError,
    MultisetSpace,
    _induction,
    _probe_costs,
    _ranked_members,
    act_complete,
    multiset_space,
    initial_value,
    projected_state_count,
    solve_complete,
    state_space_census,
    verify_complete_conjectures,
)
from relaymdp.dp_restricted import Action, backward_induction
from relaymdp.dp_restricted import initial_value as restricted_initial_value
from relaymdp.model import ModelConfig, reward_grid

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
        assert np.isinf(tables.values[-1][0][0, tables.none_index])

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

    def test_mid_scale_state_values_match_reference(self):
        config, family = small_instance(5, 12, 4, eta=2.5, delta=0.15)
        tables = solve_complete(family, config)
        toy = Toy.from_family(family, config)
        states = [
            (1, None, (0,)), (2, 3, (1, 4)), (3, None, (2, 2, 0)),
            (2, 11, ()), (4, 0, (3, 3, 1)), (4, 7, (0, 1, 2, 4)),
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
        config, family, tables = small_solved
        eta, delta, tau = config.eta, config.delta, config.tau
        grid = reward_grid(tables.n_bins)
        n_bins, none = tables.n_bins, tables.none_index
        n_loc = len(family)
        pmf = family.pmf_matrix
        space = tables.space

        for k in range(1, config.n_relays + 1):
            for s in range(k + 1):
                for row, g in enumerate(space.msets[s]):
                    for b in (0, n_bins // 2, n_bins - 1, none):
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
                                tables.values[k][s + 1][space.plus[s][t][row], b]
                                for t in range(n_loc)
                            ) / n_loc
                            cands.append(cont)
                        stored = tables.values[k - 1][s][row, b]
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

    def test_state_with_no_legal_action_raises(self, small_solved):
        config, _, tables = small_solved
        with pytest.raises(IllegalActionError):
            act_complete((config.n_relays, None, ()), tables)

    def test_unknown_types_rejected(self, small_solved):
        _, _, tables = small_solved
        with pytest.raises(ValueError):
            act_complete((2, None, (99,)), tables)


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
        census = state_space_census(default_config)
        expected_last = sum(math.comb(19 + s, s) for s in range(6)) * 101
        assert census.complete[-1] == expected_last
        assert census.restricted == [101 * 21] * 5

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

    def test_single_type_counts_coincide_at_stage_one(self):
        census = state_space_census(ModelConfig(n_locations=1, n_relays=1))
        assert census.complete[0] == census.restricted[0]


class TestGuards:
    def test_budget_error_reports_projection(self, default_config, default_family):
        projected = projected_state_count(20, 100, 7)
        assert projected == 119_587_939
        with pytest.raises(BudgetExceededError) as err:
            solve_complete(default_family, default_config.with_overrides(n_relays=7))
        assert err.value.projected == projected
        assert str(projected) in str(err.value)

    def test_default_instance_fits_default_budget(self):
        assert projected_state_count(20, 100, 5) < 50_000_000


class TestClassDominance:
    @pytest.mark.parametrize("eta,delta", [(0.5, 0.1), (5.0, 0.05), (12.0, 0.01)])
    def test_complete_never_worse_than_restricted(self, eta, delta):
        config, family = small_instance(4, 12, 4, eta=eta, delta=delta)
        glb = initial_value(solve_complete(family, config))
        rst = restricted_initial_value(backward_induction(family, config))
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
        assert tables.actions[-1][-1][0, tables.none_index] == PROBE
        level[0, tables.none_index] -= 1e-6
        values = [list(stage) for stage in tables.values]
        values[-1][-1] = level
        report = verify_complete_conjectures(replace(tables, values=values))
        assert report["probe_largest_violations"] == before["probe_largest_violations"] + 1 == 1
        assert report["all_hold"] is False

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


class TestProbeKernel:
    """The slot-gather kernel against the per-target scatter, bit for bit."""

    @staticmethod
    def assert_levels_match(family, config, capacity):
        tables, probes, _ = _induction(family, config, capacity, keep_costs=True)
        space, rank = tables.space, tuple(family.rank)
        surcharge = config.eta * config.delta
        for k in range(1, config.n_relays + 1):
            for s in range(1, min(k, capacity) + 1):
                smaller = tables.values[k - 1][s - 1][:, :tables.n_bins]
                got = _probe_costs(smaller, family.pmf_matrix, family.cdf_matrix, surcharge,
                                   *_ranked_members(space, s, rank))
                want = reference_probe_costs(smaller, family, surcharge, space, s)
                assert got[0].tobytes() == want[0].tobytes(), (k, s)
                assert got[1].tobytes() == want[1].tobytes(), (k, s)
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
        # its 100 bins take two chunks
        config, family = small_instance(20, 100, 3, eta=10.0, delta=0.01)
        assert dp_complete.BATCH_ELEMENTS // (20 * 210) < 100
        self.assert_levels_match(family, config, 3)

    def test_non_finite_inputs_behave_as_the_reference(self):
        config, family = small_instance(4, 12, 3, eta=2.0, delta=0.05)
        tables = solve_complete(family, config)
        space, rank = tables.space, tuple(family.rank)
        smaller = tables.values[0][1][:, :tables.n_bins].copy()
        smaller[0, 5] = np.nan
        smaller[2, :] = np.inf
        with np.errstate(invalid="ignore"):
            got = _probe_costs(smaller, family.pmf_matrix, family.cdf_matrix, 0.1,
                               *_ranked_members(space, 2, rank))
            want = reference_probe_costs(smaller, family, 0.1, space, 2)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import corrupted, small_instance
from oracles import reference_run_policy
from relaymdp import model, simulate
from relaymdp._kernels import PROBE
from relaymdp.dp_complete import (BudgetExceededError, MultisetSpace, _induction,
                                  _ranked_members, _states_per_stage, initial_value,
                                  solve_complete)
from relaymdp.dp_restricted import backward_induction
from relaymdp.experiments import baseline_components, complete_components, policy_levels
from relaymdp.model import ConfigError, ModelConfig, reward_grid
from relaymdp.simulate import (
    EPISODES_PER_BLOCK,
    block_rng,
    check_episode_count,
    check_seed,
    episode_outcomes,
    monte_carlo,
    probe_first_levels,
    run_policy,
    sample_episode,
)


@pytest.fixture(scope="module")
def sim_instance():
    config, family = small_instance(5, 20, 5, eta=3.0, delta=0.05, tau=0.2)
    return config, family


class TestSampling:
    def test_blocks_have_the_fixed_size(self, sim_instance):
        config, family = sim_instance
        block = sample_episode(family, config, block_rng(0, 0))
        assert len(block) == EPISODES_PER_BLOCK
        assert block.wake_times.shape == (EPISODES_PER_BLOCK, config.n_relays)
        assert block.locations.shape == block.reward_bins.shape == block.wake_times.shape
        assert block.uniforms.shape == block.wake_times.shape

    def test_deterministic_wakeup_law(self, sim_instance):
        _, family = sim_instance
        config = ModelConfig(
            n_locations=5, n_reward_bins=20, wakeup_law="deterministic", tau=0.2
        )
        block = sample_episode(family, config, block_rng(0, 0))
        assert np.allclose(block.wake_times, [0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-15)

    def test_exponential_interwake_mean(self, sim_instance):
        config, family = sim_instance
        n = 100_000
        inter = []
        for j in range(math.ceil(n / config.n_relays / EPISODES_PER_BLOCK)):
            block = sample_episode(family, config, block_rng(123, j))
            inter.append(np.diff(block.wake_times, axis=1, prepend=0.0).ravel())
        inter = np.concatenate(inter)[:n]
        se = config.tau / math.sqrt(len(inter))  # exponential: sd == mean
        assert abs(inter.mean() - config.tau) <= 3 * se
        # and the law itself: gaps of the right mean but another shape, such
        # as tau * sqrt(E) / Gamma(3/2) with E ~ Exp(1), pass the mean check
        from scipy import stats

        assert stats.kstest(inter, "expon", args=(0.0, config.tau)).pvalue > 1e-3

    def test_replay_is_bit_identical(self, sim_instance):
        config, family = sim_instance
        for j in (0, 1, 17):
            b1 = sample_episode(family, config, block_rng(42, j))
            b2 = sample_episode(family, config, block_rng(42, j))
            assert np.array_equal(b1.wake_times, b2.wake_times)
            assert np.array_equal(b1.locations, b2.locations)
            assert np.array_equal(b1.reward_bins, b2.reward_bins)

    def test_distinct_indices_give_distinct_episodes(self, sim_instance):
        config, family = sim_instance
        b1 = sample_episode(family, config, block_rng(42, 0))
        b2 = sample_episode(family, config, block_rng(42, 1))
        assert not np.array_equal(b1.wake_times, b2.wake_times)
        assert len(np.unique(b1.wake_times[:, 0])) == EPISODES_PER_BLOCK

    def test_latent_bins_follow_the_location_pmfs(self, sim_instance):
        config, family = sim_instance
        n = 4000
        block = sample_episode(family, config, block_rng(9, 0)).head(n)
        counts = np.zeros((len(family), family.n_bins))
        np.add.at(counts, (block.locations.ravel(), block.reward_bins.ravel()), 1)
        for l in range(len(family)):
            total = counts[l].sum()
            empirical = counts[l] / total
            # crude 5-sigma multinomial check per bin
            for r in range(family.n_bins):
                p = family.pmf_matrix[l, r]
                sd = math.sqrt(max(p * (1 - p) / total, 1e-12))
                assert abs(empirical[r] - p) <= 5 * sd + 1e-9

    def test_bins_invert_each_locations_cdf(self, sim_instance):
        # the same draws as sample_episode: all wake times, all locations, all
        # uniforms; each binned by counting its location's cdf entries at or
        # below it, and relay by relay with searchsorted
        config, family = sim_instance
        shape = (EPISODES_PER_BLOCK, config.n_relays)
        top = family.n_bins - 1
        rng = block_rng(5, 0)
        rng.exponential(config.tau, size=shape)
        locations = rng.integers(len(family), size=shape)
        u = rng.random(shape)
        counted = np.minimum((family.cdf_matrix[locations] <= u[..., None]).sum(-1), top)
        block = sample_episode(family, config, block_rng(5, 0))
        assert np.array_equal(block.locations, locations)
        assert np.array_equal(block.uniforms, u)  # kept as drawn, binned on demand
        assert np.array_equal(block.reward_bins, counted)
        for i in range(500):
            expected = [min(int(np.searchsorted(family.cdf_matrix[l], x, side="right")), top)
                        for l, x in zip(locations[i], u[i])]
            assert block.reward_bins[i].tolist() == expected


class TestRunPolicy:
    def test_probe_first_baseline(self, sim_instance):
        config, family = sim_instance
        grid = reward_grid(family.n_bins)
        block = sample_episode(family, config, block_rng(5, 0))
        out = run_policy(block, probe_first_levels(family, config))
        assert np.all(out.probes == 1)
        assert np.all(out.stop_stage == 1)
        assert np.array_equal(out.delay, block.wake_times[:, 0])
        assert np.array_equal(out.reward, grid[block.reward_bins[:, 0]])
        assert np.allclose(out.cost, -config.eta * out.reward + config.eta * config.delta,
                           rtol=0, atol=1e-12)
        assert np.allclose(out.effective_reward, out.reward - config.delta, rtol=0, atol=1e-12)

    def test_probe_first_levels_reproduce_the_baseline(self, sim_instance):
        config, family = sim_instance
        levels = probe_first_levels(family, config)
        comps, baseline = complete_components(levels), baseline_components(family, config)
        assert levels.capacity == 1
        assert initial_value(levels) == pytest.approx(baseline.cost, abs=1e-12)
        for name in ("waiting", "reward", "probes", "cost", "stopped_mass"):
            assert getattr(comps, name) == pytest.approx(getattr(baseline, name), abs=1e-12)

    def test_probe_first_levels_check_the_state_budget(self, sim_instance, monkeypatch):
        # the capacity-1 level shapes, held to the values they store
        config, family = sim_instance
        stored = sum(_states_per_stage(len(family), family.n_bins, config.n_relays, 1))
        monkeypatch.setattr(model, "DEFAULT_STATE_BUDGET", stored)
        levels = probe_first_levels(family, config)
        assert sum(a.size for stage in levels.actions for a in stage) == stored == 630
        monkeypatch.setattr(model, "DEFAULT_STATE_BUDGET", stored - 1)
        with pytest.raises(BudgetExceededError, match=f"= {stored} memo entries"):
            probe_first_levels(family, config)

    def test_tiny_eta_optimal_behaves_like_baseline(self, sim_instance):
        _, family = sim_instance
        config = ModelConfig(n_locations=5, n_reward_bins=20, eta=1e-4, delta=0.05)
        levels = policy_levels("rst", family, config)
        block = sample_episode(family, config, block_rng(11, 0))
        out = run_policy(block, levels)
        assert np.all(out.stop_stage == 1) and np.all(out.probes == 1)

    def test_outcome_identities(self, sim_instance):
        config, family = sim_instance
        block = sample_episode(family, config, block_rng(3, 0))
        out = run_policy(block, policy_levels("rst", family, config))
        waiting = out.delay - block.wake_times[:, 0]
        assert np.allclose(
            out.cost,
            waiting - config.eta * out.reward + config.eta * config.delta * out.probes,
            rtol=0, atol=1e-12,
        )
        assert np.all((out.probes >= 0) & (out.probes <= out.stop_stage))
        assert np.array_equal(out.delay, block.wake_times[np.arange(len(block)),
                                                          out.stop_stage - 1])

    def test_complete_engine_probes_requested_type(self, sim_instance):
        config, family = sim_instance
        block = sample_episode(family, config, block_rng(21, 0))
        out = run_policy(block, policy_levels("glb", family, config))
        assert np.all((out.probes >= 1) & (out.probes <= config.n_relays))
        assert np.array_equal(out.delay, block.wake_times[np.arange(len(block)),
                                                          out.stop_stage - 1])

    @pytest.mark.parametrize("capacity", [1, 2, 5])
    def test_a_probe_reads_the_row_it_leaves_off_the_solve(self, sim_instance, monkeypatch,
                                                            capacity):
        # the solve has ranked every set's members and the rows they leave;
        # the replay ranks no set of its own
        config, family = sim_instance
        levels = _induction(family, config, capacity)
        block = sample_episode(family, config, block_rng(13, 0))
        before = run_policy(block, levels)

        def no_ranking(space, columns):
            raise AssertionError("the replay ranked a set")

        monkeypatch.setattr(MultisetSpace, "ranks", no_ranking)
        after = run_policy(block, levels)
        assert after.probes.sum() > len(block)  # episodes probe more than once
        for field in dataclasses.fields(after):
            assert np.array_equal(getattr(after, field.name), getattr(before, field.name))

    def test_single_relay_horizon(self):
        # N = 1: probe the only relay, then stop, under both classes
        config, family = small_instance(3, 8, 1, eta=2.0, delta=0.05)
        block = sample_episode(family, config, block_rng(8, 0))
        for name in ("rst", "glb", "first"):
            out = run_policy(block, policy_levels(name, family, config))
            assert np.all(out.stop_stage == 1) and np.all(out.probes == 1)


class TestEngineAgreement:
    """The batched engine against the scalar reference, episode by episode."""

    @pytest.fixture(scope="class")
    def reference_instance(self, default_config, default_family):
        return default_config.with_overrides(eta=10.0), default_family

    @pytest.mark.parametrize("delta", [0.1, 0.01, 0.0])
    @pytest.mark.parametrize("name", ["rst", "glb", "first", "c2"])
    @pytest.mark.parametrize("instance", ["small", "reference"])
    def test_every_episode_matches_the_reference(self, instance, name, delta, sim_instance,
                                                 reference_instance):
        config, family = sim_instance if instance == "small" else reference_instance
        config = config.with_overrides(delta=delta)
        # c2: capacity 2, where two awake relays may share a type, so an
        # overflow must work out which type it dropped from the kept set
        levels = (_induction(family, config, 2) if name == "c2"
                  else policy_levels(name, family, config))
        seen = set()
        for j in (0, 5):
            block = sample_episode(family, config, block_rng(31, j))
            out = run_policy(block, levels)
            got = zip(out.delay.tolist(), out.reward.tolist(), out.probes.tolist(),
                      out.cost.tolist(), out.effective_reward.tolist(), out.stop_stage.tolist())
            for i, outcome in enumerate(got):
                expected, events = reference_run_policy(block, i, levels)
                assert outcome == expected, (j, i)
                seen |= events
        # the blocks cover repeated awake types and overflow drops of an
        # awake relay wherever probing costs something
        if delta > 0 and name in ("glb", "c2"):
            assert "repeat" in seen
        if delta > 0 and name in ("rst", "c2"):
            assert "swap" in seen

    @pytest.mark.parametrize("capacity", [2, 5])
    def test_probes_of_the_smallest_member_match_the_reference(self, sim_instance, capacity):
        # the solved codes probe a set's stochastically largest member, the
        # first of its ranked slots; these probe the last, so the row a probe
        # leaves is read at another slot
        config, family = sim_instance
        levels = corrupted(_induction(family, config, capacity))
        rank, moved = tuple(family.rank), 0
        for stage in levels.actions:
            for s, codes in enumerate(stage[2:], start=2):
                smallest = PROBE + _ranked_members(levels.space, s, rank)[0][:, -1]
                probing = codes >= PROBE
                moved += int((probing & (codes != smallest[:, None])).sum())
                codes[probing] = np.broadcast_to(smallest[:, None], codes.shape)[probing]
        assert moved > 0
        block = sample_episode(family, config, block_rng(17, 0)).head(1500)
        out = run_policy(block, levels)
        got = zip(out.delay.tolist(), out.reward.tolist(), out.probes.tolist(),
                  out.cost.tolist(), out.effective_reward.tolist(), out.stop_stage.tolist())
        for i, outcome in enumerate(got):
            assert outcome == reference_run_policy(block, i, levels)[0], i


class TestMonteCarlo:
    def test_single_episode_estimates_equal_outcome(self, sim_instance):
        config, family = sim_instance
        levels = probe_first_levels(family, config)
        est = monte_carlo(levels, 1, seed=77)
        block = sample_episode(family, config, block_rng(77, 0))
        out = run_policy(block.head(1), levels)
        assert est.zero_variance
        assert est.mean_cost == out.cost[0]
        assert est.mean_delay == out.delay[0]
        assert est.se_cost == 0.0

    @pytest.mark.parametrize("name", ["rst", "glb"])
    def test_episodes_do_not_depend_on_the_run_length(self, sim_instance, name):
        # counts that are not multiples of the block size: episode i is the
        # same in every run of more than i episodes
        config, family = sim_instance
        levels = policy_levels(name, family, config)
        longest = episode_outcomes(levels, 2 * EPISODES_PER_BLOCK + 123, seed=4)
        for n in (1, 1000, EPISODES_PER_BLOCK + 7):
            out = episode_outcomes(levels, n, seed=4)
            for field in dataclasses.fields(out):
                assert np.array_equal(getattr(out, field.name),
                                      getattr(longest, field.name)[:n]), (n, field.name)

    def test_seeded_estimates_are_reproducible(self, sim_instance):
        config, family = sim_instance
        levels = probe_first_levels(family, config)
        e1 = monte_carlo(levels, 500, seed=11)
        e2 = monte_carlo(levels, 500, seed=11)
        assert e1 == e2

    def test_restricted_mc_agrees_with_dp(self, sim_instance):
        config, family = sim_instance
        tables = backward_induction(family, config)
        est = monte_carlo(tables, 30_000, seed=5)
        dp = initial_value(tables)
        assert abs(est.mean_cost - dp) <= 3 * est.se_cost

    def test_complete_mc_agrees_with_dp(self, sim_instance):
        config, family = sim_instance
        tables = solve_complete(family, config)
        est = monte_carlo(tables, 30_000, seed=6)
        dp = initial_value(tables)
        assert abs(est.mean_cost - dp) <= 3 * est.se_cost

    def test_deterministic_wakeups_also_agree_with_dp(self, sim_instance):
        # the solvers only use the mean inter-wake time, so both wake-up laws
        # must reproduce the same expected cost
        _, family = sim_instance
        config = ModelConfig(
            n_locations=5, n_reward_bins=20, eta=3.0, delta=0.05,
            wakeup_law="deterministic", tau=0.2,
        )
        tables = backward_induction(family, config)
        est = monte_carlo(tables, 20_000, seed=31)
        dp = initial_value(tables)
        assert abs(est.mean_cost - dp) <= max(3 * est.se_cost, 1e-12)

    def test_complete_beats_restricted_within_error(self, sim_instance):
        config, family = sim_instance
        rst = monte_carlo(policy_levels("rst", family, config), 20_000, seed=9)
        glb = monte_carlo(policy_levels("glb", family, config), 20_000, seed=9)
        combined = math.hypot(rst.se_cost, glb.se_cost)
        assert glb.mean_cost <= rst.mean_cost + 3 * combined

    def test_estimates_serialize_with_interface_names(self, sim_instance):
        config, family = sim_instance
        est = monte_carlo(probe_first_levels(family, config), 10, seed=1)
        payload = est.to_json()
        assert {"mean_D", "se_D", "mean_R", "se_R", "mean_M", "se_M",
                "mean_cost", "se_cost", "mean_eff_reward", "se_eff_reward",
                "n", "seed"} <= set(payload)

    def test_zero_episodes_rejected(self, sim_instance):
        config, family = sim_instance
        with pytest.raises(ValueError):
            monte_carlo(probe_first_levels(family, config), 0, seed=0)

    @pytest.mark.parametrize("count", [True, 2.7, 2.0, "10"])
    def test_non_integral_episode_counts_rejected(self, sim_instance, count):
        config, family = sim_instance
        with pytest.raises(ValueError, match="n_episodes must be an integer"):
            monte_carlo(probe_first_levels(family, config), count, seed=0)

    def test_episode_counts_are_held_to_the_state_budget(self):
        # six outcome arrays of one entry per episode; no episode is drawn here
        assert check_episode_count(8_333_333) == 8_333_333
        with pytest.raises(BudgetExceededError, match=r"^the outcome arrays, n_episodes entries "
                           r"each = 50000004 memo entries, over the state budget of 50000000$"):
            check_episode_count(8_333_334)

    def test_an_episode_block_is_held_to_the_state_budget(self, sim_instance, monkeypatch):
        # each (EPISODES_PER_BLOCK, n_relays) array of a block must fit, checked
        # before anything is drawn
        config, family = sim_instance
        levels = probe_first_levels(family, config)
        needed = EPISODES_PER_BLOCK * config.n_relays
        monkeypatch.setattr(model, "DEFAULT_STATE_BUDGET", needed)
        assert len(episode_outcomes(levels, 10, 0).delay) == 10
        monkeypatch.setattr(model, "DEFAULT_STATE_BUDGET", needed - 1)

        def never(*args):
            raise AssertionError("an episode block was drawn")

        monkeypatch.setattr(simulate, "sample_episode", never)
        named = f"^an episode block, {EPISODES_PER_BLOCK} episodes x n_relays = {needed} memo"
        with pytest.raises(BudgetExceededError, match=named):
            monte_carlo(levels, 10, seed=0)

    def test_the_outcome_arrays_are_held_once(self, default_config, default_family):
        # the peak is the one set of outcome arrays check_episode_count
        # charges, plus the work of a block
        n = 200_000
        levels = backward_induction(default_family, default_config.with_overrides(eta=10.0))
        tracemalloc.start()
        try:
            out = episode_outcomes(levels, n, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        charged = len(dataclasses.fields(out)) * n * 8
        assert all(getattr(out, f.name).itemsize == 8 for f in dataclasses.fields(out))
        assert peak <= charged + 4 * 2 ** 20

    @pytest.mark.parametrize("seed", [True, 1.5, 1.0, "1", -1, 2 ** 128],
                             ids=["bool", "float", "integral_float", "str", "negative", "2**128"])
    def test_bad_seeds_rejected(self, sim_instance, seed):
        # a bool or a float must not pass for the integer it equals
        config, family = sim_instance
        levels = probe_first_levels(family, config)
        named = re.escape(f"seed must be an integer in 0 .. {2 ** 128 - 1}, got {seed!r}")
        with pytest.raises(ValueError, match=named):
            monte_carlo(levels, 10, seed)
        with pytest.raises(ValueError, match=named):
            episode_outcomes(levels, 10, seed)

    def test_a_seed_past_the_digit_limit_is_named_by_its_bits(self):
        # str() of an int of more than 4,300 digits raises ValueError
        named = f"seed must be an integer in 0 .. {2 ** 128 - 1}, got <an integer of 16610 bits>"
        with pytest.raises(ConfigError, match=f"^{re.escape(named)}$"):
            check_seed(10 ** 5000)

    @pytest.mark.parametrize("seed", [0, 2 ** 128 - 1, np.uint64(2 ** 64 - 1)],
                             ids=["0", "2**128-1", "numpy_uint64"])
    def test_seeds_of_the_whole_key_range_accepted(self, sim_instance, seed):
        config, family = sim_instance
        assert check_seed(seed) == int(seed) and type(check_seed(seed)) is int
        assert monte_carlo(probe_first_levels(family, config), 10, seed).n_episodes == 10

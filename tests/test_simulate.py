import dataclasses
import math

import numpy as np
import pytest

from conftest import small_instance
from oracles import reference_run_policy
from relaymdp._kernels import CONTINUE, NO_ACTION, PROBE, STOP, IllegalActionError
from relaymdp.dp_complete import solve_complete
from relaymdp.dp_complete import initial_value as complete_initial_value
from relaymdp.dp_restricted import backward_induction, restricted_levels
from relaymdp.dp_restricted import initial_value as restricted_initial_value
from relaymdp.experiments import baseline_components, complete_components, policy_levels
from relaymdp.model import ModelConfig, reward_grid
from relaymdp.simulate import (
    EPISODES_PER_BLOCK,
    block_rng,
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


def corrupted(levels):
    """A copy of solved levels whose action and target tables may be edited."""
    return dataclasses.replace(
        levels,
        actions=[[a.copy() for a in stage] for stage in levels.actions],
        probe_targets=[[t.copy() for t in stage] for stage in levels.probe_targets],
    )


class TestSampling:
    def test_blocks_have_the_fixed_size(self, sim_instance):
        config, family = sim_instance
        block = sample_episode(family, config, block_rng(0, 0))
        assert len(block) == EPISODES_PER_BLOCK
        assert block.wake_times.shape == (EPISODES_PER_BLOCK, config.n_relays)
        assert block.locations.shape == block.reward_bins.shape == block.wake_times.shape

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
        assert complete_initial_value(levels) == pytest.approx(baseline.cost, abs=1e-12)
        for name in ("waiting", "reward", "probes", "cost", "stopped_mass"):
            assert getattr(comps, name) == pytest.approx(getattr(baseline, name), abs=1e-12)

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

    def test_single_relay_horizon(self):
        # N = 1: probe the only relay, then stop, under both classes
        config, family = small_instance(3, 8, 1, eta=2.0, delta=0.05)
        block = sample_episode(family, config, block_rng(8, 0))
        for name in ("rst", "glb", "first"):
            out = run_policy(block, policy_levels(name, family, config))
            assert np.all(out.stop_stage == 1) and np.all(out.probes == 1)

    # illegal actions, on corrupted copies of solved tables: the engine names
    # the state of the first offending episode

    def test_illegal_continue_at_last_stage(self, sim_instance):
        # probe while nothing is probed, else continue, also at the last stage
        config, family = sim_instance
        levels = corrupted(restricted_levels(backward_induction(family, config)))
        none = levels.none_index
        for acts, tgts in zip(levels.actions, levels.probe_targets):
            for act in acts:
                act[:, :none] = CONTINUE
            acts[1][:, none] = PROBE
            tgts[1][:, none] = np.arange(len(family))
        block = sample_episode(family, config, block_rng(0, 0))
        with pytest.raises(IllegalActionError,
                           match=r"last stage \(stage 5, episode 0, best=\d+, awake types"):
            run_policy(block, levels)

    def test_illegal_stop_with_nothing_probed(self, sim_instance):
        config, family = sim_instance
        levels = corrupted(solve_complete(family, config))
        for acts in levels.actions:
            for act in acts:
                act[:] = STOP
        block = sample_episode(family, config, block_rng(0, 0))
        first = int(block.locations[0, 0])
        with pytest.raises(IllegalActionError, match=(
                rf"nothing probed \(stage 1, episode 0, best=None, awake types \({first},\)\)")):
            run_policy(block, levels)

    def test_probe_target_not_awake(self, sim_instance):
        config, family = sim_instance
        levels = corrupted(probe_first_levels(family, config))
        n_loc = len(family)
        levels.probe_targets[0][1][:, levels.none_index] = (np.arange(n_loc) + 1) % n_loc
        block = sample_episode(family, config, block_rng(0, 0))
        first = int(block.locations[0, 0])
        with pytest.raises(IllegalActionError, match=(
                rf"target type {(first + 1) % n_loc} not awake \(stage 1, episode 0, "
                rf"best=None, awake types \({first},\)\)")):
            run_policy(block, levels)

    def test_no_action(self, sim_instance):
        config, family = sim_instance
        levels = corrupted(solve_complete(family, config))
        levels.actions[0][1][:] = NO_ACTION
        block = sample_episode(family, config, block_rng(0, 0))
        with pytest.raises(IllegalActionError,
                           match=r"no legal action \(code -1\) \(stage 1, episode 0, best=None"):
            run_policy(block, levels)

    def test_first_offending_episode_is_named(self, sim_instance):
        # only episodes whose first relay has type 2 meet the NO_ACTION row
        config, family = sim_instance
        levels = corrupted(solve_complete(family, config))
        levels.actions[0][1][2] = NO_ACTION
        block = sample_episode(family, config, block_rng(0, 0))
        first = int(np.flatnonzero(block.locations[:, 0] == 2)[0])
        with pytest.raises(IllegalActionError, match=rf"\(stage 1, episode {first}, best=None"):
            run_policy(block, levels)


class TestEngineAgreement:
    """The batched engine against the scalar reference, episode by episode."""

    @pytest.fixture(scope="class")
    def reference_instance(self, default_config, default_family):
        return default_config.with_overrides(eta=10.0), default_family

    @pytest.mark.parametrize("delta", [0.1, 0.01, 0.0])
    @pytest.mark.parametrize("name", ["rst", "glb", "first"])
    @pytest.mark.parametrize("instance", ["small", "reference"])
    def test_every_episode_matches_the_reference(self, instance, name, delta, sim_instance,
                                                 reference_instance):
        config, family = sim_instance if instance == "small" else reference_instance
        config = config.with_overrides(delta=delta)
        levels = policy_levels(name, family, config)
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
        if delta > 0 and name == "glb":
            assert "repeat" in seen
        if delta > 0 and name == "rst":
            assert "swap" in seen


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
        est = monte_carlo(restricted_levels(tables), 30_000, seed=5)
        dp = restricted_initial_value(tables)
        assert abs(est.mean_cost - dp) <= 3 * est.se_cost

    def test_complete_mc_agrees_with_dp(self, sim_instance):
        config, family = sim_instance
        tables = solve_complete(family, config)
        est = monte_carlo(tables, 30_000, seed=6)
        dp = complete_initial_value(tables)
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
        est = monte_carlo(restricted_levels(tables), 20_000, seed=31)
        dp = restricted_initial_value(tables)
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

import math

import numpy as np
import pytest

from conftest import small_instance
from relaymdp.dp_complete import solve_complete
from relaymdp.dp_complete import initial_value as complete_initial_value
from relaymdp.dp_restricted import IllegalActionError, backward_induction
from relaymdp.dp_restricted import initial_value as restricted_initial_value
from relaymdp.model import ModelConfig, reward_grid
from relaymdp.simulate import (
    Action,
    Decision,
    GlbOptPolicy,
    Policy,
    ProbeFirstPolicy,
    RstOptPolicy,
    episode_rng,
    monte_carlo,
    run_policy,
    sample_episode,
)


@pytest.fixture(scope="module")
def sim_instance():
    config, family = small_instance(5, 20, 5, eta=3.0, delta=0.05, tau=0.2)
    return config, family


class TestSampling:
    def test_deterministic_wakeup_law(self, sim_instance):
        _, family = sim_instance
        config = ModelConfig(
            n_locations=5, n_reward_bins=20, wakeup_law="deterministic", tau=0.2
        )
        episode = sample_episode(family, config, episode_rng(0, 0))
        assert np.allclose(episode.wake_times, [0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-15)

    def test_exponential_interwake_mean(self, sim_instance):
        config, family = sim_instance
        n = 100_000
        rng = episode_rng(123, 0)
        total = 0.0
        count = 0
        for _ in range(n // config.n_relays):
            episode = sample_episode(family, config, rng)
            inter = np.diff(np.concatenate(([0.0], episode.wake_times)))
            total += inter.sum()
            count += len(inter)
        mean = total / count
        se = config.tau / math.sqrt(count)  # exponential: sd == mean
        assert abs(mean - config.tau) <= 3 * se

    def test_replay_is_bit_identical(self, sim_instance):
        config, family = sim_instance
        for index in (0, 1, 17):
            e1 = sample_episode(family, config, episode_rng(42, index))
            e2 = sample_episode(family, config, episode_rng(42, index))
            assert np.array_equal(e1.wake_times, e2.wake_times)
            assert np.array_equal(e1.locations, e2.locations)
            assert np.array_equal(e1.reward_bins, e2.reward_bins)

    def test_distinct_indices_give_distinct_episodes(self, sim_instance):
        config, family = sim_instance
        e1 = sample_episode(family, config, episode_rng(42, 0))
        e2 = sample_episode(family, config, episode_rng(42, 1))
        assert not np.array_equal(e1.wake_times, e2.wake_times)

    def test_latent_bins_follow_the_location_pmfs(self, sim_instance):
        config, family = sim_instance
        counts = np.zeros((len(family), family.n_bins))
        n = 4000
        for i in range(n):
            ep = sample_episode(family, config, episode_rng(9, i))
            for loc, r in zip(ep.locations, ep.reward_bins):
                counts[loc, r] += 1
        for l in range(len(family)):
            total = counts[l].sum()
            empirical = counts[l] / total
            # crude 5-sigma multinomial check per bin
            for r in range(family.n_bins):
                p = family.pmf_matrix[l, r]
                sd = math.sqrt(max(p * (1 - p) / total, 1e-12))
                assert abs(empirical[r] - p) <= 5 * sd + 1e-9

    def test_bins_invert_each_locations_cdf(self, sim_instance):
        # the same draws as sample_episode, binned relay by relay
        config, family = sim_instance
        top = family.n_bins - 1
        for i in range(500):
            rng = episode_rng(5, i)
            rng.exponential(config.tau, size=config.n_relays)
            locations = rng.integers(len(family), size=config.n_relays)
            u = rng.random(config.n_relays)
            expected = [min(int(np.searchsorted(family.cdf_matrix[l], x, side="right")), top)
                        for l, x in zip(locations, u)]
            episode = sample_episode(family, config, episode_rng(5, i))
            assert episode.reward_bins.tolist() == expected


class TestRunPolicy:
    def test_probe_first_baseline(self, sim_instance):
        config, family = sim_instance
        grid = reward_grid(family.n_bins)
        for i in range(20):
            episode = sample_episode(family, config, episode_rng(5, i))
            out = run_policy(episode, ProbeFirstPolicy(), family, config)
            assert out.probes == 1
            assert out.stop_stage == 1
            assert out.delay == episode.wake_times[0]
            assert out.reward == grid[episode.reward_bins[0]]
            assert out.cost == pytest.approx(
                -config.eta * out.reward + config.eta * config.delta, abs=1e-12
            )
            assert out.effective_reward == pytest.approx(
                out.reward - config.delta, abs=1e-12
            )

    def test_tiny_eta_optimal_behaves_like_baseline(self, sim_instance):
        _, family = sim_instance
        config = ModelConfig(n_locations=5, n_reward_bins=20, eta=1e-4, delta=0.05)
        tables = backward_induction(family, config)
        policy = RstOptPolicy(tables)
        for i in range(50):
            episode = sample_episode(family, config, episode_rng(11, i))
            out = run_policy(episode, policy, family, config)
            assert out.stop_stage == 1 and out.probes == 1

    def test_outcome_identities(self, sim_instance):
        config, family = sim_instance
        tables = backward_induction(family, config)
        policy = RstOptPolicy(tables)
        for i in range(100):
            episode = sample_episode(family, config, episode_rng(3, i))
            out = run_policy(episode, policy, family, config)
            waiting = out.delay - episode.wake_times[0]
            assert out.cost == pytest.approx(
                waiting - config.eta * out.reward
                + config.eta * config.delta * out.probes,
                abs=1e-12,
            )
            assert 0 <= out.probes <= out.stop_stage
            assert out.delay in episode.wake_times

    def test_illegal_continue_at_last_stage(self, sim_instance):
        config, family = sim_instance

        class Stubborn(Policy):
            def action(self, stage, best, awake):
                if best is None and awake:
                    return Decision(Action.PROBE, awake[0])
                return Decision(Action.CONTINUE)

        episode = sample_episode(family, config, episode_rng(0, 0))
        with pytest.raises(IllegalActionError, match="last stage"):
            run_policy(episode, Stubborn(), family, config)

    def test_illegal_stop_with_nothing_probed(self, sim_instance):
        config, family = sim_instance

        class Eager(Policy):
            def action(self, stage, best, awake):
                return Decision(Action.STOP)

        episode = sample_episode(family, config, episode_rng(0, 0))
        with pytest.raises(IllegalActionError, match="nothing probed"):
            run_policy(episode, Eager(), family, config)

    def test_single_relay_horizon(self):
        # N = 1: probe the only relay, then stop; both engines agree
        config, family = small_instance(3, 8, 1, eta=2.0, delta=0.05)
        rt = backward_induction(family, config)
        ct = solve_complete(family, config)
        for i in range(20):
            episode = sample_episode(family, config, episode_rng(8, i))
            for policy in (RstOptPolicy(rt), GlbOptPolicy(ct)):
                out = run_policy(episode, policy, family, config)
                assert out.stop_stage == 1 and out.probes == 1

    def test_complete_engine_probes_requested_type(self, sim_instance):
        config, family = sim_instance
        tables = solve_complete(family, config)
        policy = GlbOptPolicy(tables)
        for i in range(50):
            episode = sample_episode(family, config, episode_rng(21, i))
            out = run_policy(episode, policy, family, config)
            assert 1 <= out.probes <= config.n_relays
            assert out.delay in episode.wake_times


class TestMonteCarlo:
    def test_single_episode_estimates_equal_outcome(self, sim_instance):
        config, family = sim_instance
        policy = ProbeFirstPolicy()
        est = monte_carlo(family, config, policy, 1, seed=77)
        episode = sample_episode(family, config, episode_rng(77, 0))
        out = run_policy(episode, policy, family, config)
        assert est.zero_variance
        assert est.mean_cost == out.cost
        assert est.mean_delay == out.delay
        assert est.se_cost == 0.0

    def test_seeded_estimates_are_reproducible(self, sim_instance):
        config, family = sim_instance
        policy = ProbeFirstPolicy()
        e1 = monte_carlo(family, config, policy, 500, seed=11)
        e2 = monte_carlo(family, config, policy, 500, seed=11)
        assert e1 == e2

    def test_restricted_mc_agrees_with_dp(self, sim_instance):
        config, family = sim_instance
        tables = backward_induction(family, config)
        est = monte_carlo(family, config, RstOptPolicy(tables), 30_000, seed=5)
        dp = restricted_initial_value(tables)
        assert abs(est.mean_cost - dp) <= 3 * est.se_cost

    def test_complete_mc_agrees_with_dp(self, sim_instance):
        config, family = sim_instance
        tables = solve_complete(family, config)
        est = monte_carlo(family, config, GlbOptPolicy(tables), 30_000, seed=6)
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
        est = monte_carlo(family, config, RstOptPolicy(tables), 20_000, seed=31)
        dp = restricted_initial_value(tables)
        assert abs(est.mean_cost - dp) <= max(3 * est.se_cost, 1e-12)

    def test_complete_beats_restricted_within_error(self, sim_instance):
        config, family = sim_instance
        rst = monte_carlo(
            family, config, RstOptPolicy(backward_induction(family, config)),
            20_000, seed=9,
        )
        glb = monte_carlo(
            family, config, GlbOptPolicy(solve_complete(family, config)),
            20_000, seed=9,
        )
        combined = math.hypot(rst.se_cost, glb.se_cost)
        assert glb.mean_cost <= rst.mean_cost + 3 * combined

    def test_estimates_serialize_with_interface_names(self, sim_instance):
        config, family = sim_instance
        est = monte_carlo(family, config, ProbeFirstPolicy(), 10, seed=1)
        payload = est.to_json()
        assert {"mean_D", "se_D", "mean_R", "se_R", "mean_M", "se_M",
                "mean_cost", "se_cost", "mean_eff_reward", "se_eff_reward",
                "n", "seed"} <= set(payload)

    def test_zero_episodes_rejected(self, sim_instance):
        config, family = sim_instance
        with pytest.raises(ValueError):
            monte_carlo(family, config, ProbeFirstPolicy(), 0, seed=0)

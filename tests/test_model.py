import math
import re
import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_instance
from oracles import reference_family
import relaymdp
from relaymdp import dp_complete, model, simulate
from relaymdp.dp_complete import solve_complete
from relaymdp.dp_restricted import backward_induction
from relaymdp.model import (
    BudgetExceededError,
    ConfigError,
    LocationGrid,
    ModelConfig,
    TotalOrderError,
    build_forwarding_region,
    build_ordered_family,
    finite_number,
    normalization_constant,
    order_family,
    reward_grid,
    reward_scale,
    whole_number,
)
from relaymdp.simulate import (EPISODES_PER_BLOCK, check_episode_count, episode_outcomes,
                               probe_first_levels)


class TestConfig:
    def test_defaults_are_the_reference_setup(self, default_config):
        assert default_config.v0 == 10.0
        assert default_config.comm_radius == 1.0
        assert default_config.n_locations == 20
        assert default_config.n_reward_bins == 100
        assert default_config.n_relays == 5
        assert default_config.tau == 0.2
        assert default_config.gamma_n0 == 1.0
        assert default_config.beta == 2.0
        assert default_config.a == 0.5

    @pytest.mark.parametrize(
        "bad",
        [
            {"v0": 1.0, "comm_radius": 2.0},
            {"comm_radius": 0.0},
            {"a": 1.5},
            {"a": -0.1},
            {"beta": -1.0},
            {"n_relays": 0},
            {"tau": 0.0},
            {"eta": -1.0},
            {"delta": -0.5},
            {"tail_mass": 0.0},
            {"tail_mass": 1.0},
            {"wakeup_law": "weibull"},
            {"n_reward_bins": 1},
            {"gamma_n0": 0.0},
        ],
    )
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ConfigError):
            ModelConfig(**bad).validate()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ModelConfig.from_dict({"v0": 10.0, "typo_field": 1})

    @pytest.mark.parametrize("field,build", [
        ("eta", lambda: ModelConfig(eta=10 ** 400).validate()),
        ("tau", lambda: ModelConfig().with_overrides(tau=10 ** 400)),
        ("v0", lambda: ModelConfig.from_dict({"v0": 10 ** 400})),
    ], ids=["validate", "with_overrides", "from_dict"])
    def test_integer_past_the_float_range_is_a_config_error(self, field, build):
        with pytest.raises(ConfigError, match=f"^{field} must be a finite number"):
            build()


class TestFiniteNumber:
    @pytest.mark.parametrize("value", [3, 2.5, -0.0, np.float64(0.25), np.int64(7), 10 ** 300])
    def test_a_finite_real_becomes_a_float(self, value):
        number = finite_number(value, "x")
        assert type(number) is float and number == float(value)

    @pytest.mark.parametrize("value", [True, False, "0.2", None, [1.0], math.nan, math.inf,
                                       -math.inf, 10 ** 400, -(10 ** 400), np.bool_(True)])
    def test_anything_else_is_a_config_error_naming_the_field(self, value):
        with pytest.raises(ConfigError, match="^sweep.eta_values must be a finite number"):
            finite_number(value, "sweep.eta_values")


class TestWholeNumber:
    @pytest.mark.parametrize("value,low,high", [
        (0, 0, None), (7, 1, None), (10 ** 400, 1, None), (np.int64(3), 1, 4),
        (2 ** 128 - 1, 0, 2 ** 128),
    ])
    def test_an_integer_in_range_becomes_an_int(self, value, low, high):
        number = whole_number(value, "x", low, high)
        assert type(number) is int and number == value

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.0, 2.5, "3", None,
                                       math.nan, [3]])
    def test_anything_but_an_integer_is_a_config_error_naming_the_field(self, value):
        with pytest.raises(ConfigError, match=r"^sweep\.n_episodes must be an integer >= 1"):
            whole_number(value, "sweep.n_episodes", 1)

    @pytest.mark.parametrize("value,low,high,wanted", [
        (0, 1, None, ">= 1"), (-1, 0, 10, "in 0 .. 9"), (10, 0, 10, "in 0 .. 9"),
        (1, 2, 5, "in 2 .. 4"),
    ])
    def test_an_integer_out_of_range_is_a_config_error_naming_the_range(self, value, low,
                                                                        high, wanted):
        with pytest.raises(ConfigError, match=f"^n must be an integer {wanted}, got {value}$"):
            whole_number(value, "n", low, high)


class TestSizeRule:
    """The restricted class's N (B+1) (L+1) values, which every reader holds
    at least, must fit the state budget, checked before anything is
    allocated; a solve counts the rest of what it stores itself."""

    @pytest.mark.parametrize("build", [
        lambda: ModelConfig(n_relays=10 ** 9).validate(),
        lambda: ModelConfig(n_reward_bins=10 ** 8).validate(),
        lambda: ModelConfig(n_locations=10 ** 7).validate(),
        lambda: ModelConfig.from_dict({"n_relays": 10 ** 20}),
        lambda: ModelConfig().with_overrides(n_relays=10 ** 400),
        lambda: ModelConfig(n_relays=np.int64(2 ** 62)).validate(),
    ], ids=["n_relays", "n_reward_bins", "n_locations", "from_dict_float", "10**400",
            "numpy_int64"])
    def test_oversized_configs_are_refused_at_once(self, build):
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="over the state budget of 50000000"):
            build()
        assert time.perf_counter() - start < 1.0

    def test_the_budget_is_met_exactly_at_its_edge(self):
        # at the reference L and B, 101 * 21 values per stage: 2121 N entries
        longest = model.DEFAULT_STATE_BUDGET // 2121
        assert ModelConfig(n_relays=longest).validate().n_relays == longest == 23_573
        with pytest.raises(ConfigError, match=f"= {2121 * (longest + 1)} memo entries"):
            ModelConfig(n_relays=longest + 1).validate()

    def test_the_restricted_solve_counts_its_kept_rows_at_its_edge(self, monkeypatch,
                                                                   default_config,
                                                                   default_family):
        # the capacity-1 solve adds 101 * 20 * 20 kept rows per stage past the
        # first: 101 * (421 N - 400) entries, refused before anything is
        # allocated; the space, built right after the count, marks a pass
        class Counted(Exception):
            pass

        def counted(*args):
            raise Counted

        monkeypatch.setattr(dp_complete, "multiset_space", counted)
        longest = (model.DEFAULT_STATE_BUDGET // 101 + 400) // 421
        assert longest == 1_176
        start = time.perf_counter()
        with pytest.raises(Counted):
            backward_induction(default_family, default_config.with_overrides(n_relays=longest))
        with pytest.raises(BudgetExceededError,
                           match=f"^the capacity-1 tables over 20 types, 100 bins and 1177 "
                                 f"stages = {101 * (421 * (longest + 1) - 400)} memo entries"):
            backward_induction(default_family, default_config.with_overrides(n_relays=longest + 1))
        assert time.perf_counter() - start < 1.0

    def test_the_rule_reads_the_model_budget(self, monkeypatch):
        monkeypatch.setattr(model, "DEFAULT_STATE_BUDGET", 5 * 101 * 21 - 1)
        with pytest.raises(ConfigError, match="= 10605 memo entries, over the state budget "
                                              "of 10604$"):
            ModelConfig().validate()

    def test_a_size_past_the_digit_limit_is_named_by_its_bits(self):
        # str() of an int of more than 4,300 digits raises ValueError
        entries = 2121 * 10 ** 5000
        named = (f"(n_reward_bins + 1) * n_relays * (n_locations + 1) = <an integer of "
                 f"{entries.bit_length()} bits> memo entries, over the state budget of 50000000")
        with pytest.raises(BudgetExceededError, match=f"^{re.escape(named)}$"):
            ModelConfig(n_relays=10 ** 5000).validate()

    @pytest.mark.parametrize("field,low", [("n_locations", 1), ("n_reward_bins", 2),
                                           ("n_relays", 1)])
    def test_integer_fields_have_their_lowest_values(self, field, low):
        assert getattr(ModelConfig(**{field: low}).validate(), field) == low
        with pytest.raises(ConfigError, match=f"^{field} must be an integer >= {low}, got"):
            ModelConfig(**{field: low - 1}).validate()

    @pytest.mark.parametrize("value", [True, 2.5, 3.0, "x", math.inf, math.nan])
    def test_integer_fields_refuse_what_is_not_an_integer(self, value):
        with pytest.raises(ConfigError, match="^n_relays must be an integer >= 1, got"):
            ModelConfig.from_dict({"n_relays": value})


@pytest.fixture(scope="module")
def budget_instance():
    # L = 3, B = 4, N = 6: the size rule counts 5 * 6 * 4 = 120 entries, the
    # complete class 713, an episode block 4096 * 6
    config, family = small_instance(3, 4, 6, eta=2.0, delta=0.05)
    return config, family, probe_first_levels(family, config)


class TestStateBudget:
    """One budget, model.DEFAULT_STATE_BUDGET, read at each call by the one
    check that raises, model.check_budget."""

    @pytest.mark.parametrize("needed,read", [
        (120, lambda config, family, levels: config.validate()),
        (713, lambda config, family, levels: solve_complete(family, config)),
        (120, lambda config, family, levels: probe_first_levels(family, config)),
        (EPISODES_PER_BLOCK * 6, lambda config, family, levels:
            episode_outcomes(levels, 1, 0)),
        (6 * 100, lambda config, family, levels: check_episode_count(100)),
    ], ids=["validate", "complete_solve", "probe_first", "episode_block", "n_episodes"])
    def test_every_reader_refuses_past_the_model_budget(self, budget_instance, monkeypatch,
                                                         needed, read):
        monkeypatch.setattr(model, "DEFAULT_STATE_BUDGET", needed)
        read(*budget_instance)
        monkeypatch.setattr(model, "DEFAULT_STATE_BUDGET", needed - 1)
        with pytest.raises(BudgetExceededError,
                           match=f"= {needed} memo entries, over the state budget of "
                                 f"{needed - 1}$") as err:
            read(*budget_instance)
        assert (err.value.projected, err.value.budget) == (needed, needed - 1)

    def test_a_complete_solve_is_held_to_what_it_stores(self, monkeypatch):
        # at L = 4, B = 6, N = 4 the complete class stores 461 entries and the
        # restricted class, with its kept rows, 476
        config, family = small_instance(4, 6, 4, eta=2.0, delta=0.05)
        monkeypatch.setattr(model, "DEFAULT_STATE_BUDGET", 461)
        tables = solve_complete(family, config)
        assert sum(a.size for stage in tables.values for a in stage) == 461
        with pytest.raises(BudgetExceededError, match="= 476 memo entries, over the state "
                                                      "budget of 461$"):
            backward_induction(family, config)

    def test_many_types_at_a_short_horizon_fit(self):
        # the restricted class with its kept rows would take 50,057,317
        # entries here, but the complete class stores 319,364
        config = ModelConfig(n_locations=703, n_relays=2).validate()
        family = build_ordered_family(build_forwarding_region(config), config)
        tables = solve_complete(family, config)
        assert sum(a.size for stage in tables.values for a in stage) == 319_364

    def test_only_the_model_binds_the_budget(self):
        assert not hasattr(dp_complete, "DEFAULT_STATE_BUDGET")
        assert not hasattr(simulate, "DEFAULT_STATE_BUDGET")

    def test_the_budget_error_is_a_config_error_wherever_imported(self):
        assert issubclass(BudgetExceededError, ConfigError)
        assert dp_complete.BudgetExceededError is relaymdp.BudgetExceededError
        assert relaymdp.BudgetExceededError is BudgetExceededError

    def test_an_episode_block_is_named_by_what_sizes_it(self, budget_instance, monkeypatch):
        monkeypatch.setattr(model, "DEFAULT_STATE_BUDGET", EPISODES_PER_BLOCK * 6 - 1)
        with pytest.raises(BudgetExceededError) as err:
            episode_outcomes(budget_instance[2], 1, 0)
        assert str(err.value).startswith(f"an episode block, {EPISODES_PER_BLOCK} episodes "
                                         "x n_relays = ")
        assert "n_locations" not in str(err.value) and "n_reward_bins" not in str(err.value)


class TestForwardingRegion:
    def test_default_region_has_twenty_points_inside(self, default_config, default_grid):
        assert len(default_grid) == 20
        assert np.all(default_grid.progress >= 0.0)
        assert np.all(default_grid.progress <= default_config.comm_radius)
        assert np.all(default_grid.distance > 0.0)
        assert np.all(default_grid.distance <= default_config.comm_radius)

    def test_axis_point_has_maximal_progress(self):
        # a point on the source-sink axis at distance 1 from the source
        v0 = 10.0
        z = v0 - math.hypot(1.0 - v0, 0.0)
        assert z == pytest.approx(1.0, abs=1e-15)

    def test_deterministic(self, default_config):
        g1 = build_forwarding_region(default_config)
        g2 = build_forwarding_region(default_config)
        assert np.array_equal(g1.progress, g2.progress)
        assert np.array_equal(g1.distance, g2.distance)
        assert np.array_equal(g1.xy, g2.xy)

    def test_single_point_region(self):
        grid = build_forwarding_region(ModelConfig(n_locations=1))
        assert len(grid) == 1

    def test_points_actually_lie_in_the_lens(self, default_config, default_grid):
        x = default_grid.xy[:, 0]
        y = default_grid.xy[:, 1]
        assert np.allclose(np.hypot(x, y), default_grid.distance)
        v = np.hypot(x - default_config.v0, y)
        assert np.allclose(default_config.v0 - v, default_grid.progress)

    def test_the_grid_is_charged_to_the_budget(self, monkeypatch):
        # 49 locations lay a 10 x 10 grid, 8 * 100 entries; 50 an 11 x 11 one
        monkeypatch.setattr(model, "DEFAULT_STATE_BUDGET", 800)
        config = ModelConfig(n_locations=49, n_reward_bins=2, n_relays=1)
        assert len(build_forwarding_region(config)) == 49
        with pytest.raises(BudgetExceededError, match=r"^the region grid, 8 floats x its "
                                                      r"11 x 11 cells = 968 memo entries"):
            build_forwarding_region(replace(config, n_locations=50))

    def test_too_few_points_fail_closed_naming_both_counts(self, monkeypatch):
        # no config reaches this: m = isqrt(2n) + 1 gives 2n cells, over 61% of
        # them in the region; a 2 x 2 grid forced here holds 4 of the 20
        monkeypatch.setattr(model.math, "isqrt", lambda n: 0)
        with pytest.raises(ConfigError, match=r"^forwarding region admits 4 of the 20 grid "
                                              r"points wanted"):
            build_forwarding_region(ModelConfig())


class TestRewardScale:
    def test_unit_factors(self):
        cfg = ModelConfig()
        assert reward_scale((1.0, 1.0), cfg) == pytest.approx(1.0, abs=0)

    def test_zero_progress_zero_scale(self):
        cfg = ModelConfig()
        assert reward_scale((0.0, 0.7), cfg) == 0.0

    def test_half_progress_matches_high_precision_value(self):
        # sqrt(0.5) via an independent high-precision path
        import mpmath

        mpmath.mp.dps = 50
        expected = float(mpmath.sqrt(mpmath.mpf("0.5")))
        cfg = ModelConfig()
        assert reward_scale((0.5, 1.0), cfg) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.70711, abs=5e-6)

    def test_zero_distance_is_a_domain_error(self):
        with pytest.raises(ValueError):
            reward_scale((0.5, 0.0), ModelConfig())

    def test_negative_progress_is_a_domain_error(self):
        with pytest.raises(ValueError, match="progress must be nonnegative, got -0.5"):
            reward_scale((-0.5, 0.7), ModelConfig())

    def test_all_zero_scales_have_no_normalization(self):
        with pytest.raises(ConfigError, match="all reward scales are zero"):
            normalization_constant(np.zeros(3), ModelConfig())


def family_at(points, config):
    """The ordered family of hand-placed (progress, distance) points."""
    progress, distance = (np.array(column, dtype=float) for column in zip(*points))
    grid = LocationGrid(progress=progress, distance=distance, xy=np.zeros((len(points), 2)))
    return build_ordered_family(grid, config)


def assert_bitwise_equal(family, reference):
    for name in ("scales", "pmf_matrix", "cdf_matrix", "order"):
        got, want = getattr(family, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert type(family.r_max) is float and family.r_max.hex() == reference.r_max.hex()
    assert family.minimal_index == reference.minimal_index


class TestQuantize:
    def test_zero_scale_point_mass_at_lowest_bin(self, default_config):
        family = family_at([(1.0, 0.5), (0.0, 0.5)], default_config)
        assert family.scales[1] == 0.0
        assert family.pmf_matrix[1, 0] == 1.0
        assert family.pmf_matrix[1, 1:].sum() == 0.0
        assert family.minimal_index == 1

    @pytest.mark.parametrize("point", [(0.2, 0.9), (0.9, 0.3), (0.05, 1.0)])
    def test_pmf_sums_to_one(self, default_config, point):
        family = family_at([(1.0, 0.5), point], default_config)
        for pmf, cdf in zip(family.pmf_matrix, family.cdf_matrix):
            assert abs(pmf.sum() - 1.0) < 1e-12
            assert np.all(pmf >= 0.0)
            assert np.all(np.diff(cdf) >= -1e-15)
            assert cdf[-1] == pytest.approx(1.0, abs=1e-12)

    def test_larger_scale_dominates(self, default_config):
        family = family_at([(0.25, 1.0), (1.0, 1.0 / 2.0**0.5)], default_config)
        weak, strong = family.cdf_matrix
        assert family.scales[1] > family.scales[0]
        assert np.all(strong <= weak + 1e-12)
        assert list(family.order) == [1, 0]

    def test_a_equal_one_degenerates_to_progress_point_mass(self, caplog):
        cfg = ModelConfig(a=1.0)
        with caplog.at_level("WARNING"):
            family = family_at([(0.5, 0.5), (0.25, 0.8), (0.0, 0.3)], cfg)
        assert np.all(family.pmf_matrix.max(axis=1) == 1.0)
        assert np.all(np.count_nonzero(family.pmf_matrix, axis=1) == 1)
        # reward Z on the grid scaled by r_max = max Z; 49.5 rounds to even
        assert list(np.argmax(family.pmf_matrix, axis=1)) == [99, 50, 0]
        assert len(caplog.records) == 1  # one line per family, not per location

    def test_zero_progress_warns_once_per_family(self, default_config, caplog):
        with caplog.at_level("WARNING"):
            family = family_at([(0.0, 0.5), (1.0, 0.5), (0.0, 0.9)], default_config)
        assert family.pmf_matrix[[0, 2], 0].tolist() == [1.0, 1.0]
        assert len(caplog.records) == 1
        assert "2 of 3 locations have zero progress" in caplog.records[0].getMessage()

    def test_a_equal_zero_is_pure_power_reward(self):
        # progress plays no role: scale is the inverse required power
        cfg = ModelConfig(a=0.0, beta=2.0, gamma_n0=2.0)
        assert reward_scale((0.0, 0.5), cfg) == pytest.approx(1.0 / (2.0 * 0.25))
        family = family_at([(0.0, 0.5), (0.3, 0.5), (0.3, 0.25)], cfg)
        assert family.scales[0] == family.scales[1] > 0.0
        assert np.all(np.abs(family.pmf_matrix.sum(axis=1) - 1.0) < 1e-12)

    def test_quantized_mean_converges_to_truncated_analytic_mean(self):
        # independent oracle: numeric quadrature of the truncated survival
        from scipy.integrate import quad

        cfg = ModelConfig(n_reward_bins=1000)
        family = build_ordered_family(build_forwarding_region(cfg), cfg)
        r_max = family.r_max
        assert r_max == normalization_constant(family.scales, cfg)
        exponent = 1.0 / (1.0 - cfg.a)
        for pmf, scale in zip(family.pmf_matrix, family.scales):
            quantized_mean = float(pmf @ reward_grid(cfg.n_reward_bins))
            analytic, _ = quad(
                lambda x: math.exp(-((x * r_max / scale) ** exponent)), 0.0, 1.0
            )
            assert quantized_mean == pytest.approx(analytic, rel=0.01)


class TestReferenceFamily:
    """The array build equals the location-by-location build bit for bit."""

    @pytest.mark.parametrize("beta", [0.0, 2.0, 3.7])
    @pytest.mark.parametrize("a", [0.0, 0.3, 0.5, 0.77, 0.999, 1.0])
    def test_arrays_equal_the_reference(self, a, beta):
        for v0, (n_locations, n_bins) in product(
                (1.5, 10.0), ((1, 2), (2, 3), (57, 7), (20, 100), (13, 401))):
            cfg = ModelConfig(v0=v0, a=a, beta=beta, n_locations=n_locations,
                              n_reward_bins=n_bins).validate()
            grid = build_forwarding_region(cfg)
            grids = [grid]
            if n_locations > 1:
                # a point of zero progress, where the scale is 0 unless a = 0
                progress = grid.progress.copy()
                progress[n_locations // 2] = 0.0
                grids.append(replace(grid, progress=progress))
            for g in grids:
                assert_bitwise_equal(build_ordered_family(g, cfg), reference_family(g, cfg))


class TestDominanceCheck:
    def test_identical_distributions_are_ordered(self):
        f = [0.2, 0.3, 0.5]
        family = order_family([f, f], [1.0, 1.0])
        assert list(family.order) == [0, 1]

    def test_point_masses(self):
        lo, hi = [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]
        family = order_family([lo, hi], [0.0, 1.0])
        assert list(family.order) == [1, 0]
        assert family.minimal_index == 0

    @pytest.mark.parametrize("swap", [False, True])
    def test_crossing_cdfs_raise(self, swap):
        pmfs = [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]]
        with pytest.raises(TotalOrderError, match="crossing"):
            order_family(pmfs[::-1] if swap else pmfs, [1.0, 1.0])

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError):
            order_family([[1.0], [0.5, 0.5]], [1.0, 1.0])


class TestOrderedFamily:
    def test_default_family_totally_ordered_minimal_is_smallest_scale(
        self, default_family
    ):
        cdf = default_family.cdf_matrix
        assert default_family.minimal_index == int(np.argmin(default_family.scales))
        # order is a valid dominance chain, largest first
        for a, b in zip(default_family.order[:-1], default_family.order[1:]):
            assert np.all(cdf[a] <= cdf[b] + 1e-12)

    def test_order_matches_scale_order(self, default_family):
        ordered_scales = default_family.scales[default_family.order]
        assert np.all(np.diff(ordered_scales) <= 1e-12)

    def test_scale_order_iff_dominance(self, default_family):
        n = len(default_family)
        scales, cdf = default_family.scales, default_family.cdf_matrix
        for i in range(n):
            for j in range(n):
                if scales[i] >= scales[j]:
                    assert np.all(cdf[i] <= cdf[j] + 1e-12)

    def test_single_distribution_family(self):
        family = order_family([[0.3, 0.7]], [1.0])
        assert family.minimal_index == 0
        assert list(family.order) == [0]
        built = build_ordered_family(build_forwarding_region(ModelConfig(n_locations=1)),
                                     ModelConfig(n_locations=1))
        assert len(built) == 1 and built.minimal_index == 0

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=2, max_size=6),
        st.integers(min_value=5, max_value=40),
    )
    def test_shared_edge_quantization_preserves_scale_order(self, scales, n_bins):
        cfg = ModelConfig(n_reward_bins=n_bins)
        # Z = c^2, d = 1 gives scale c under a = 0.5, beta = 2
        family = family_at([(c * c, 1.0) for c in scales], cfg)
        got = family.scales[family.order].tolist()
        assert got == sorted(got, reverse=True)
        cdf = family.cdf_matrix
        for i, ci in enumerate(scales):
            for j, cj in enumerate(scales):
                if ci >= cj:
                    assert np.all(cdf[i] <= cdf[j] + 1e-12)

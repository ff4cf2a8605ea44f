import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_family
from relaymdp.model import (
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
)


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

import csv
import json

import numpy as np
import pytest

from conftest import small_instance
from relaymdp.dp_complete import solve_complete
from relaymdp.dp_complete import initial_value as complete_initial_value
from relaymdp.dp_restricted import backward_induction
from relaymdp.dp_restricted import initial_value as restricted_initial_value
from relaymdp.experiments import (
    InfeasibleGammaError,
    SweepSpec,
    baseline_components,
    calibrate_eta,
    complete_components,
    config_hash,
    default_eta_grid,
    emit_plot_data,
    restricted_components,
    run_sweep,
)


@pytest.fixture(scope="module")
def small_base():
    config, family = small_instance(4, 15, 4, eta=2.0, delta=0.05)
    return config, family


@pytest.fixture(scope="module")
def small_sweep(small_base):
    config, _ = small_base
    spec = SweepSpec(
        base=config,
        eta_values=tuple(float(x) for x in np.geomspace(0.1, 20.0, 6)),
        delta_values=(0.1, 0.01),
        policies=("rst", "glb"),
        n_episodes=400,
        seed=3,
    )
    return run_sweep(spec)


class TestExactComponents:
    @pytest.mark.parametrize("eta,delta", [(0.3, 0.1), (2.0, 0.05), (8.0, 0.01)])
    def test_restricted_components_reproduce_dp_value(self, eta, delta):
        config, family = small_instance(4, 15, 4, eta=eta, delta=delta)
        tables = backward_induction(family, config)
        comps = restricted_components(tables)
        assert comps.cost == pytest.approx(restricted_initial_value(tables), abs=1e-9)
        assert comps.stopped_mass == pytest.approx(1.0, abs=1e-9)
        assert comps.mean_delay == pytest.approx(config.tau + comps.waiting, abs=1e-12)

    @pytest.mark.parametrize("eta,delta", [(0.3, 0.1), (2.0, 0.05), (8.0, 0.01)])
    def test_complete_components_reproduce_dp_value(self, eta, delta):
        config, family = small_instance(4, 15, 4, eta=eta, delta=delta)
        tables = solve_complete(family, config)
        comps = complete_components(tables)
        assert comps.cost == pytest.approx(complete_initial_value(tables), abs=1e-9)
        assert comps.stopped_mass == pytest.approx(1.0, abs=1e-9)

    def test_components_match_monte_carlo(self, small_base):
        from relaymdp.dp_restricted import restricted_levels
        from relaymdp.simulate import monte_carlo

        config, family = small_base
        tables = backward_induction(family, config)
        comps = restricted_components(tables)
        est = monte_carlo(restricted_levels(tables), 30_000, seed=17)
        assert abs(est.mean_delay - comps.mean_delay) <= 3 * est.se_delay + 1e-12
        assert abs(est.mean_reward - comps.reward) <= 3 * est.se_reward
        assert abs(est.mean_probes - comps.probes) <= 3 * est.se_probes

    def test_baseline_components(self, small_base):
        config, family = small_base
        comps = baseline_components(family, config)
        assert comps.probes == 1.0
        assert comps.waiting == 0.0
        assert comps.mean_delay == config.tau
        assert comps.cost == pytest.approx(
            -config.eta * comps.reward + config.eta * config.delta, abs=1e-12
        )


class TestSweep:
    def test_every_cell_solved(self, small_sweep):
        assert len(small_sweep.cells) == 2 * 2 * 6
        assert all(c.status == "ok" for c in small_sweep.cells)
        assert all(c.dp_value is not None for c in small_sweep.cells)
        assert all(c.estimates is not None for c in small_sweep.cells)

    def test_restricted_rows_carry_thresholds(self, small_sweep):
        for cell in small_sweep.cells:
            if cell.policy == "rst":
                assert cell.thresholds is not None and "x" in cell.thresholds
            else:
                assert cell.thresholds is None

    def test_dp_cost_monotone_in_eta(self, small_sweep):
        for policy in ("rst", "glb"):
            for delta in (0.1, 0.01):
                series = small_sweep.series(policy, delta)
                values = [c.dp_value for c in series]
                assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_dominance_per_cell(self, small_sweep):
        for delta in (0.1, 0.01):
            for eta in small_sweep.spec.eta_values:
                rst = small_sweep.cell("rst", eta, delta).dp_value
                glb = small_sweep.cell("glb", eta, delta).dp_value
                assert glb <= rst + 1e-9

    def test_cheaper_probing_never_costs_more(self, small_sweep):
        # cost is pointwise non-decreasing in delta for any fixed policy class
        for policy in ("rst", "glb"):
            for eta in small_sweep.spec.eta_values:
                cheap = small_sweep.cell(policy, eta, 0.01).dp_value
                dear = small_sweep.cell(policy, eta, 0.1).dp_value
                assert cheap <= dear + 1e-12

    def test_delta_zero_classes_coincide(self, small_base):
        config, _ = small_base
        spec = SweepSpec(
            base=config, eta_values=(0.5, 4.0), delta_values=(0.0,),
            policies=("rst", "glb"), n_episodes=2000, seed=1,
        )
        result = run_sweep(spec)
        for eta in spec.eta_values:
            rst = result.cell("rst", eta, 0.0)
            glb = result.cell("glb", eta, 0.0)
            assert glb.dp_value == pytest.approx(rst.dp_value, abs=1e-9)
            combined = (rst.estimates.se_cost**2 + glb.estimates.se_cost**2) ** 0.5
            assert abs(glb.estimates.mean_cost - rst.estimates.mean_cost) <= max(
                3 * combined, 1e-12
            )

    def test_probe_first_cells_match_the_closed_form(self, default_config, default_family):
        # first cells come from the probe-first levels through the shared
        # forward sweep; the closed form agrees to round-off
        spec = SweepSpec(
            base=default_config, eta_values=default_eta_grid(), delta_values=(0.1, 0.01, 0.0),
            policies=("first",), n_episodes=100, seed=2,
        )
        result = run_sweep(spec)
        assert len(result.cells) == 60
        for cell in result.cells:
            config = default_config.with_overrides(eta=cell.eta, delta=cell.delta)
            closed = baseline_components(default_family, config)
            assert cell.status == "ok"
            assert cell.dp_value == pytest.approx(closed.cost, rel=0, abs=1e-12)
            for name, value in vars(closed).items():
                assert getattr(cell.components, name) == pytest.approx(value, rel=0, abs=1e-12)

    def test_budget_failures_do_not_kill_the_sweep(self, default_config):
        # seven relays project 119,587,939 complete-class memo entries, over
        # the budget; the restricted class stays small
        spec = SweepSpec(
            base=default_config.with_overrides(n_relays=7), eta_values=(1.0,),
            delta_values=(0.1,), policies=("rst", "glb"), n_episodes=50, seed=1,
        )
        result = run_sweep(spec)
        assert result.cell("rst", 1.0, 0.1).status == "ok"
        glb = result.cell("glb", 1.0, 0.1)
        assert glb.status == "budget_exceeded"
        assert "budget" in glb.message

    def test_threaded_sweep_matches_serial(self, small_base):
        config, _ = small_base
        kwargs = dict(
            base=config, eta_values=(0.5, 5.0), delta_values=(0.05,),
            policies=("rst", "first"), n_episodes=300, seed=4,
        )
        serial = run_sweep(SweepSpec(**kwargs, threads=1))
        threaded = run_sweep(SweepSpec(**kwargs, threads=4))
        for c1, c2 in zip(serial.cells, threaded.cells):
            assert c1 == c2

    def test_spec_validation(self, small_base):
        config, _ = small_base
        with pytest.raises(ValueError):
            SweepSpec(base=config, eta_values=(), delta_values=(0.1,)).validate()
        with pytest.raises(ValueError):
            SweepSpec(
                base=config, eta_values=(1.0,), delta_values=(0.1,),
                policies=("nope",),
            ).validate()


class TestCalibration:
    def test_zero_target_returns_smallest_eta(self, small_base):
        config, _ = small_base
        result = calibrate_eta(0.0, delta=0.05, config=config, eta_hi=20.0)
        assert result.eta == 0.0
        assert result.effective_reward >= 0.0

    def test_unreachable_target_raises_with_supremum(self, small_base):
        config, _ = small_base
        with pytest.raises(InfeasibleGammaError) as err:
            calibrate_eta(10.0, delta=0.05, config=config, eta_hi=20.0)
        assert err.value.achievable < 10.0

    def test_midrange_target_is_tight_at_grid_resolution(self, small_base):
        config, family = small_base
        resolution = 1e-2

        def eff(eta):
            tables = backward_induction(
                family, config.with_overrides(eta=eta, delta=0.05)
            )
            return restricted_components(tables).effective_reward

        gamma = 0.5 * (eff(0.0) + eff(20.0))  # strictly interior target
        result = calibrate_eta(
            gamma, delta=0.05, config=config, eta_hi=20.0, resolution=resolution
        )
        assert result.effective_reward >= gamma
        assert 0.0 < result.eta <= 20.0
        # the previous grid point must miss the target
        assert eff(max(result.eta - resolution, 0.0)) < gamma

    def test_effective_reward_nondecreasing_in_eta(self, small_base):
        config, family = small_base
        values = []
        for eta in np.geomspace(0.05, 20.0, 8):
            tables = backward_induction(
                family, config.with_overrides(eta=float(eta), delta=0.05)
            )
            values.append(restricted_components(tables).effective_reward)
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


class TestEmit:
    def test_four_figure_csvs_and_manifest(self, small_base, tmp_path):
        config, _ = small_base
        spec = SweepSpec(
            base=config,
            eta_values=tuple(float(x) for x in np.geomspace(0.2, 10.0, 10)),
            delta_values=(0.1, 0.01),
            policies=("rst", "first"),
            n_episodes=50,
            seed=2,
        )
        result = run_sweep(spec)
        files = emit_plot_data(result, tmp_path)
        names = sorted(p.name for p in files)
        assert names == [
            "fig_delay.csv", "fig_probing_cost.csv", "fig_reward.csv",
            "fig_total_cost.csv", "manifest.json",
        ]
        for name in names:
            if name.endswith(".csv"):
                with open(tmp_path / name) as fh:
                    rows = list(csv.DictReader(fh))
                assert len(rows) == 2 * 2 * 10
                assert set(rows[0]) == {
                    "policy", "eta", "delta", "dp_cost", "mc_cost", "mc_se",
                    "mean_delay", "mean_reward", "mean_probe_cost", "eff_reward",
                }
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(config)
        assert len(manifest["cells"]) == 40

    def test_manifest_cells_record_mc_z_and_stopped_mass(self, small_base, tmp_path):
        config, _ = small_base
        spec = SweepSpec(
            base=config, eta_values=(0.5, 2.0), delta_values=(0.05,),
            policies=("rst", "glb", "first"), n_episodes=300, seed=5,
        )
        result = run_sweep(spec)
        emit_plot_data(result, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["cells"]) == len(result.cells) == 6
        for entry, cell in zip(manifest["cells"], result.cells):
            assert (entry["policy"], entry["eta"], entry["delta"]) == (
                cell.policy, cell.eta, cell.delta)
            est = cell.estimates
            assert entry["mc_z"] == (est.mean_cost - cell.dp_value) / est.se_cost
            assert entry["stopped_mass"] == cell.components.stopped_mass
            assert entry["stopped_mass"] == pytest.approx(1.0, abs=1e-9)
            assert abs(entry["mc_z"]) <= 5.0

    def test_mc_z_is_null_without_spread(self, small_base, tmp_path):
        # one episode has no standard error, so no z-score
        config, _ = small_base
        spec = SweepSpec(
            base=config, eta_values=(0.5,), delta_values=(0.05,),
            policies=("first",), n_episodes=1, seed=5,
        )
        emit_plot_data(run_sweep(spec), tmp_path)
        (cell,) = json.loads((tmp_path / "manifest.json").read_text())["cells"]
        assert cell["mc_z"] is None
        assert cell["stopped_mass"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("count", [True, 2.7, 0])
    def test_bad_episode_counts_rejected(self, small_base, count):
        config, _ = small_base
        spec = SweepSpec(base=config, eta_values=(1.0,), delta_values=(0.1,),
                         n_episodes=count)
        with pytest.raises(ValueError, match="n_episodes"):
            spec.validate()

    def test_reruns_are_byte_identical(self, small_base, tmp_path):
        config, _ = small_base
        spec = SweepSpec(
            base=config, eta_values=(0.5, 2.0), delta_values=(0.05,),
            policies=("first",), n_episodes=30, seed=8,
        )
        emit_plot_data(run_sweep(spec), tmp_path / "a")
        emit_plot_data(run_sweep(spec), tmp_path / "b")
        for name in ("fig_total_cost.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_config_hash_changes_iff_config_changes(self, small_base):
        config, _ = small_base
        same = config.with_overrides()
        other = config.with_overrides(eta=config.eta + 1.0)
        assert config_hash(config) == config_hash(same)
        assert config_hash(config) != config_hash(other)

    def test_empty_result_rejected(self, small_base, tmp_path):
        config, _ = small_base
        from relaymdp.experiments import SweepResult

        spec = SweepSpec(base=config, eta_values=(1.0,), delta_values=(0.1,))
        with pytest.raises(ValueError):
            emit_plot_data(SweepResult(spec=spec, cells=()), tmp_path)

    def test_default_eta_grid_shape(self):
        grid = default_eta_grid()
        assert len(grid) == 20
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(60.0)
        assert all(b > a for a, b in zip(grid, grid[1:]))

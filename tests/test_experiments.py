import csv
import dataclasses
import json

import numpy as np
import pytest

from conftest import SWEEP_PEAK, corrupted, small_instance
from memory_peaks import traced_peak
from oracles import reference_components
from relaymdp import experiments
from relaymdp._kernels import CONTINUE, NO_ACTION, PROBE, STOP, IllegalActionError
from relaymdp.dp_complete import _induction, initial_value, solve_complete
from relaymdp.dp_restricted import NonThresholdSetError, backward_induction
from relaymdp.experiments import (
    ETA_MAX,
    RESOLUTION,
    InfeasibleGammaError,
    PolicyComponents,
    SweepCell,
    SweepSpec,
    baseline_components,
    calibrate_eta,
    complete_components,
    config_hash,
    default_eta_grid,
    emit_plot_data,
    policy_levels,
    restricted_components,
    run_sweep,
)
from relaymdp.model import ConfigError, build_forwarding_region, build_ordered_family
from relaymdp.simulate import (Estimates, block_rng, probe_first_levels, run_policy,
                               sample_episode)


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
        assert comps.cost == pytest.approx(initial_value(tables), abs=1e-9)
        assert comps.stopped_mass == pytest.approx(1.0, abs=1e-9)
        assert comps.mean_delay == pytest.approx(config.tau + comps.waiting, abs=1e-12)

    @pytest.mark.parametrize("eta,delta", [(0.3, 0.1), (2.0, 0.05), (8.0, 0.01)])
    def test_complete_components_reproduce_dp_value(self, eta, delta):
        config, family = small_instance(4, 15, 4, eta=eta, delta=delta)
        tables = solve_complete(family, config)
        comps = complete_components(tables)
        assert comps.cost == pytest.approx(initial_value(tables), abs=1e-9)
        assert comps.stopped_mass == pytest.approx(1.0, abs=1e-9)

    def test_components_match_monte_carlo(self, small_base):
        from relaymdp.simulate import monte_carlo

        config, family = small_base
        tables = backward_induction(family, config)
        comps = restricted_components(tables)
        est = monte_carlo(tables, 30_000, seed=17)
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


def capacity_levels(policy, family, config):
    """The levels of capacity ``policy`` ("N": the complete class) or, for
    "first", of the probe-first baseline."""
    if policy == "first":
        return probe_first_levels(family, config)
    return _induction(family, config, config.n_relays if policy == "N" else policy)


def assert_matches_reference(comps, levels):
    expected = reference_components(levels)
    for field in dataclasses.fields(comps):
        assert getattr(comps, field.name) == pytest.approx(
            getattr(expected, field.name), rel=0, abs=1e-12), field.name


# BATCH_ELEMENTS as the sweep reads it.  At the default every level of
# small_instance(4, 15, 4) moves in one batch of every type and one chunk of
# rows.  At 130 entries the levels of two and three relays that hold real
# bins take batches of two and one types; at 40 every level that holds real
# bins, and the none-only level of four relays, takes one or two types at a
# time, and every level its reached rows in chunks of one or two, the last
# of three reached rows a chunk of its own.  Below the default every level
# of more than one row also reads its legality, stops and continues in
# several row batches: 8 or 2 rows of 16 columns, or 130 or 40 rows of one
COMPACTING_BATCHES = [experiments.BATCH_ELEMENTS, 130, 40]


def _probe_two_members_or_a_repeated_one(levels):
    """Legal edits of every level of sets of two or more relays: a row of
    different members probes its first member at the even columns and its
    last at the odd ones (the none row among them), and a row that holds a
    member twice probes that member everywhere."""
    for stage in levels.actions:
        for s, act in enumerate(stage[2:], start=2):
            members = levels.space.members[s]
            act[:, 0::2] = PROBE + members[:, :1]
            act[:, 1::2] = PROBE + members[:, -1:]
            twice = members[:, 1:] == members[:, :-1]
            rows = twice.any(axis=1)
            act[rows] = PROBE + members[rows, 1 + twice[rows].argmax(axis=1), None]


@pytest.fixture(scope="module")
def reference_glb(default_config, default_family):
    """The complete-class solve of the reference config at eta 10."""
    return solve_complete(default_family, default_config.with_overrides(eta=10.0))


class TestSweepAgainstDenseReference:
    """The sweep (each level's mass in the shape of its action table, a
    none-only level one column) against ``oracles.reference_components``,
    which holds every level as one dense (sets, bins + 1) array; only the
    order of the sums differs."""

    @pytest.mark.parametrize("delta", [0.1, 0.01, 0.0])
    @pytest.mark.parametrize("eta", [0.3, 2.0, 8.0])
    @pytest.mark.parametrize("policy", [1, 2, 3, "N", "first"])
    def test_every_field_matches(self, policy, eta, delta):
        config, family = small_instance(4, 15, 4, eta=eta, delta=delta)
        levels = capacity_levels(policy, family, config)
        comps = complete_components(levels)
        assert_matches_reference(comps, levels)
        assert comps.cost == pytest.approx(initial_value(levels), abs=1e-9)
        assert comps.stopped_mass == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("batch", COMPACTING_BATCHES[1:])
    @pytest.mark.parametrize("delta", [0.1, 0.01, 0.0])
    @pytest.mark.parametrize("eta", [0.3, 2.0, 8.0])
    @pytest.mark.parametrize("policy", [1, 2, 3, "N", "first"])
    def test_every_field_matches_in_smaller_batches(self, policy, eta, delta, batch,
                                                    monkeypatch):
        monkeypatch.setattr(experiments, "BATCH_ELEMENTS", batch)
        self.test_every_field_matches(policy, eta, delta)

    @pytest.mark.parametrize("policy", [1, 2, 4, "first"])
    def test_reference_config(self, policy, default_config, default_family):
        levels = capacity_levels(policy, default_family, default_config.with_overrides(eta=10.0))
        assert_matches_reference(complete_components(levels), levels)

    @pytest.mark.parametrize("eta", [2.0, 40.0])
    def test_reference_config_at_400_bins_and_one_relay_awake(self, eta, default_config):
        # the shape of every sweep that calibrate_eta runs
        config = default_config.with_overrides(n_reward_bins=400, eta=eta)
        family = build_ordered_family(build_forwarding_region(config), config)
        levels = capacity_levels(1, family, config)
        assert_matches_reference(complete_components(levels), levels)

    def test_reference_config_complete_class(self, reference_glb):
        comps = complete_components(reference_glb)
        assert comps.waiting > 0.0  # the largest levels are reached
        assert_matches_reference(comps, reference_glb)

    @pytest.mark.parametrize("batch", COMPACTING_BATCHES)
    @pytest.mark.parametrize("policy", [2, 3, "N"])
    def test_rows_that_probe_two_members_or_a_repeated_one(self, policy, batch, monkeypatch):
        # the solved codes probe each row's stochastically largest member at
        # every bin; a move that assumed one probed type per row, or that
        # moved a member held twice twice, would fail here
        config, family = small_instance(4, 15, 4, eta=8.0, delta=0.05)
        solved = capacity_levels(policy, family, config)
        levels = corrupted(solved)
        _probe_two_members_or_a_repeated_one(levels)
        monkeypatch.setattr(experiments, "BATCH_ELEMENTS", batch)
        comps = complete_components(levels)
        assert comps.probes > complete_components(solved).probes
        assert comps.stopped_mass == pytest.approx(1.0, abs=1e-9)
        assert_matches_reference(comps, levels)

    def test_allocation_peak(self, reference_glb):
        # deterministic memory, not timing: at eta 10 mass reaches every
        # level, and the largest (42,504 sets of size 5) holds its none
        # column alone; as one dense (sets, bins + 1) array it would take
        # 34 MB by itself.  The sweep peaks at 13.95 MB (16.66 MB while a
        # level's legality and stops were read whole)
        assert traced_peak(lambda: complete_components(reference_glb))[0] <= SWEEP_PEAK


def _no_action_at_one_reached_entry(levels):
    # the first relay is of type 2 with probability 1/4
    levels.actions[0][1][2, -1] = NO_ACTION  # the none row, the one column of (1, 1)


def _stop_with_nothing_probed(levels):
    levels.actions[0][1][:, -1] = STOP


def _probe_of_a_type_not_held(levels):
    levels.actions[0][1][:, -1] = PROBE + 1  # held by the set (1,) alone


def _continue_at_the_last_stage(levels):
    act = levels.actions[-1][0]
    act[act == STOP] = CONTINUE


# corruption: (the action named, the sweep's state, the first types of the
# episodes that meet it at stage 1, or None past stage 1)
CORRUPTIONS = {
    _no_action_at_one_reached_entry: (r"no legal action \(code -1\)",
                                      r"\(stage 1, multiset \(2,\), best=None\)", {2}),
    _stop_with_nothing_probed: ("stop with nothing probed",
                                r"\(stage 1, multiset \(0,\), best=None\)", {0, 1, 2, 3}),
    _probe_of_a_type_not_held: ("probe target type 1 not awake",
                                r"\(stage 1, multiset \(0,\), best=None\)", {0, 2, 3}),
    _continue_at_the_last_stage: ("continue at the last stage",
                                  r"\(stage 3, multiset \(\), best=\d+\)", None),
}


class TestSweepFailsClosed:
    """Nonzero mass on an action its state forbids raises IllegalActionError
    naming the stage, the multiset and the bin; the replay engine rejects the
    same tables, naming the same action."""

    @pytest.fixture(scope="class")
    def solved(self):
        config, family = small_instance(4, 15, 3, eta=8.0, delta=0.05)
        return solve_complete(family, config)

    @pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__[1:])
    def test_both_engines_reject_the_same_tables(self, solved, corrupt):
        action, sweep_state, first_types = CORRUPTIONS[corrupt]
        levels = corrupted(solved)
        corrupt(levels)
        with pytest.raises(IllegalActionError, match=rf"^{action} {sweep_state}$"):
            complete_components(levels)
        block = sample_episode(levels.family, levels.config, block_rng(0, 0))
        if first_types is None:
            episode = r"\(stage 3, episode \d+, best=\d+, awake types \(\)\)"
        else:
            # the first episode whose first relay's type meets it
            e = next(i for i, t in enumerate(block.locations[:, 0]) if t in first_types)
            episode = (rf"\(stage 1, episode {e}, best=None, "
                       rf"awake types \({block.locations[e, 0]},\)\)")
        with pytest.raises(IllegalActionError, match=rf"^{action} {episode}$"):
            run_policy(block, levels)

    @pytest.mark.parametrize("batch", [16, 40])
    def test_the_first_illegal_entry_past_the_first_batch_is_named(self, solved, batch,
                                                                     monkeypatch):
        # the (stage 3, size 2) level holds 10 rows of 16 columns, read here
        # one or two rows per batch; the first entry of nonzero mass from row
        # 5 and bin 3 on, row 5 itself, lies in the third batch or later and
        # is named by its row in the level, as when the level is one batch
        levels = corrupted(solved)
        assert levels.actions[2][2].shape == (10, 16)
        levels.actions[2][2][5:, 3:] = NO_ACTION
        monkeypatch.setattr(experiments, "BATCH_ELEMENTS", batch)
        with pytest.raises(IllegalActionError, match=(
                r"^no legal action \(code -1\) \(stage 3, multiset \(1, 2\), best=3\)$")):
            complete_components(levels)

    def test_negative_mass_is_named_where_it_lies(self, solved):
        # a negated pmf column sends negative mass to bin 3 of the empty set
        # at stage 1, where NO_ACTION then stands; an entry of nonzero mass,
        # not only of positive mass, must hold a legal action
        pmf = solved.family.pmf_matrix.copy()
        pmf[:, 3] *= -1.0
        levels = dataclasses.replace(corrupted(solved),
                                     family=dataclasses.replace(solved.family, pmf_matrix=pmf))
        levels.actions[0][0][0, 3] = NO_ACTION
        with pytest.raises(IllegalActionError, match=(
                r"^no legal action \(code -1\) \(stage 1, multiset \(\), best=3\)$")):
            complete_components(levels)

    def test_no_action_where_only_an_overflow_arrives(self):
        # at capacity 2 the none row of (stage 3, size 2) is entered only from
        # the none row of (2, 2), whose one column overflows into it
        config, family = small_instance(4, 15, 4, eta=8.0, delta=0.05)
        levels = corrupted(_induction(family, config, 2))
        levels.actions[2][2][:, -1] = NO_ACTION
        with pytest.raises(IllegalActionError, match=(
                r"no legal action \(code -1\) \(stage 3, multiset \(0, 0\), best=None\)")):
            complete_components(levels)


def test_an_unknown_policy_name_is_refused_naming_the_choices():
    config, family = small_instance(3, 6, 2, eta=2.0, delta=0.05)
    with pytest.raises(ValueError, match=r"^unknown policy 'nope'; choose from "
                                         r"\('rst', 'glb', 'first'\)$"):
        policy_levels("nope", family, config)


class TestSweep:
    def test_every_cell_solved(self, small_sweep):
        assert len(small_sweep.cells) == 2 * 2 * 6
        assert all(c.status == "ok" for c in small_sweep.cells)
        assert all(c.dp_value is not None for c in small_sweep.cells)
        assert all(c.estimates is not None for c in small_sweep.cells)

    def test_a_cell_outside_the_grid_is_a_key_error(self, small_sweep):
        with pytest.raises(KeyError, match=r"\('first', 0\.5, 0\.1\)"):
            small_sweep.cell("first", 0.5, 0.1)

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
        # eight relays project 122,696,144 complete-class memo entries, over
        # the budget; the restricted class stays small
        spec = SweepSpec(
            base=default_config.with_overrides(n_relays=8), eta_values=(1.0,),
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

    def test_a_raising_cell_ends_a_one_worker_sweep(self, small_base, monkeypatch):
        # one worker path for every thread count: a raising cell ends the
        # sweep, and no cell starts after it
        config, _ = small_base
        calls = []

        def not_an_up_set(levels):
            calls.append(levels.config.eta)
            raise NonThresholdSetError(f"S_1 at eta {levels.config.eta} is not an up-set")

        monkeypatch.setattr(experiments, "extract_thresholds", not_an_up_set)
        spec = SweepSpec(base=config, eta_values=(0.5, 1.0, 2.0, 4.0), delta_values=(0.05,),
                         policies=("rst",), n_episodes=20, threads=1)
        with pytest.raises(NonThresholdSetError, match="^S_1 at eta 0.5 is not an up-set$"):
            run_sweep(spec)
        assert calls == [0.5]

    def test_observations_read_each_series_in_eta_order(self, small_base):
        # the grid's order is the CSV row order, never the order of a curve
        config, _ = small_base
        kwargs = dict(base=config, delta_values=(0.05,), policies=("rst", "glb"),
                      n_episodes=20)
        ascending = run_sweep(SweepSpec(eta_values=(0.5, 1.0, 2.0, 4.0, 8.0), **kwargs))
        descending = run_sweep(SweepSpec(eta_values=(8.0, 4.0, 2.0, 1.0, 0.5), **kwargs))
        observed = experiments._component_observations(ascending)
        assert observed == experiments._component_observations(descending)
        assert all(all(trends.values()) for trends in observed.values())
        for policy in ("rst", "glb"):
            etas = [c.eta for c in descending.series(policy, 0.05)]
            assert etas == [0.5, 1.0, 2.0, 4.0, 8.0]
        assert [c.eta for c in descending.cells[:5]] == [8.0, 4.0, 2.0, 1.0, 0.5]

    def test_spec_validation(self, small_base):
        config, _ = small_base
        with pytest.raises(ValueError):
            SweepSpec(base=config, eta_values=(), delta_values=(0.1,)).validate()
        with pytest.raises(ValueError):
            SweepSpec(
                base=config, eta_values=(1.0,), delta_values=(0.1,),
                policies=("nope",),
            ).validate()

    @pytest.mark.parametrize("key", ["eta_values", "delta_values"])
    @pytest.mark.parametrize("bad", [True, "0.5", float("nan"), 10 ** 400],
                             ids=["bool", "str", "nan", "huge-int"])
    def test_spec_rejects_a_grid_entry_that_is_not_a_finite_number(self, small_base, key,
                                                                     bad):
        config, _ = small_base
        with pytest.raises(ValueError, match=f"sweep.{key} must be a finite number"):
            SweepSpec(base=config, **{key: (1.0, bad)}).validate()

    @pytest.mark.parametrize("key,values,repeated", [
        ("eta_values", (1.0, 2.0, 1), "1"),
        ("delta_values", (0.1, 0.1), "0.1"),
        ("policies", ("rst", "glb", "rst"), "'rst'"),
    ])
    def test_spec_rejects_a_repeated_grid_entry(self, small_base, key, values, repeated):
        # each copy would run as a cell of its own under its own seed, and
        # SweepResult.cell would find only the first
        config, _ = small_base
        spec = SweepSpec(base=config, **{key: values})
        named = f"^sweep.{key} holds {repeated} more than once$"
        with pytest.raises(ConfigError, match=named):
            spec.validate()
        with pytest.raises(ConfigError, match=named):
            run_sweep(spec)

    def test_spec_defaults_are_the_sweep_block_defaults(self, small_base):
        config, _ = small_base
        spec = SweepSpec(base=config)
        assert spec.eta_values == default_eta_grid() and len(spec.eta_values) == 20
        assert spec.delta_values == (0.1, 0.01)
        assert spec.policies == ("rst", "glb")
        assert spec.n_episodes == 2000


CALIBRATE_NUMBERS = {"target_gamma": 0.1, "delta": 0.05}
# the bracket and resolution calibrate_eta no longer takes: ETA_MAX and RESOLUTION
REMOVED_CALIBRATE_ARGUMENTS = ("eta_lo", "eta_hi", "resolution")


class TestCalibration:
    @pytest.mark.parametrize("name", [*CALIBRATE_NUMBERS, *REMOVED_CALIBRATE_ARGUMENTS])
    @pytest.mark.parametrize("bad", [True, "0.2", 10 ** 400], ids=["bool", "str", "huge-int"])
    def test_a_bad_number_is_named_before_any_solve(self, small_base, monkeypatch, name, bad):
        config, _ = small_base

        def no_solve(*args, **kwargs):
            raise AssertionError("calibrate_eta solved before checking its arguments")

        monkeypatch.setattr(experiments, "build_forwarding_region", no_solve)
        monkeypatch.setattr(experiments, "backward_induction", no_solve)
        if name in CALIBRATE_NUMBERS:
            error, match = ValueError, f"calibrate {name} must be a finite number"
        else:
            error, match = TypeError, f"unexpected keyword argument '{name}'"
        with pytest.raises(error, match=match):
            calibrate_eta(config=config, **{**CALIBRATE_NUMBERS, name: bad})

    def test_zero_target_returns_smallest_eta(self, small_base):
        config, _ = small_base
        result = calibrate_eta(0.0, delta=0.05, config=config)
        assert result.eta == 0.0
        assert result.effective_reward >= 0.0

    def test_unreachable_target_raises_with_supremum(self, small_base):
        config, _ = small_base
        with pytest.raises(InfeasibleGammaError) as err:
            calibrate_eta(10.0, delta=0.05, config=config)
        assert err.value.achievable < 10.0

    def test_midrange_target_is_tight_at_grid_resolution(self, small_base):
        config, family = small_base

        def eff(eta):
            tables = backward_induction(
                family, config.with_overrides(eta=eta, delta=0.05)
            )
            return restricted_components(tables).effective_reward

        gamma = 0.5 * (eff(0.0) + eff(ETA_MAX))  # strictly interior target
        result = calibrate_eta(gamma, delta=0.05, config=config)
        assert result.effective_reward >= gamma
        assert 0.0 < result.eta <= ETA_MAX
        lo, hi = result.bracket
        assert hi == result.eta and 0.0 < hi - lo <= RESOLUTION
        # the bracket's lower end must miss the target
        assert eff(lo) < gamma
        # [0, 60] halved until at most 1e-3 wide: 16 halvings, after the two ends
        assert result.evaluations == 18

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
    def test_one_sweep_csv_and_manifest(self, small_base, tmp_path):
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
        assert names == ["manifest.json", "sweep.csv"]
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 10
        assert list(rows[0]) == [
            "policy", "eta", "delta", "dp_cost", "mc_cost", "mc_se",
            "mean_delay", "mean_reward", "mean_probe_cost", "eff_reward",
        ]
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

    @pytest.mark.parametrize("seed", [True, 1.5, -1, 2 ** 128],
                             ids=["bool", "float", "negative", "2**128"])
    def test_bad_seeds_rejected(self, small_base, seed):
        # a bool or a float must not pass for the integer it equals
        config, _ = small_base
        spec = SweepSpec(base=config, eta_values=(1.0,), delta_values=(0.1,), seed=seed)
        with pytest.raises(ValueError, match="seed must be"):
            spec.validate()
        with pytest.raises(ValueError, match="seed must be"):
            run_sweep(spec)

    @pytest.mark.parametrize("count", [True, 2.7, 0])
    def test_bad_episode_counts_rejected(self, small_base, count):
        config, _ = small_base
        spec = SweepSpec(base=config, eta_values=(1.0,), delta_values=(0.1,),
                         n_episodes=count)
        with pytest.raises(ValueError, match="n_episodes"):
            spec.validate()

    @pytest.mark.parametrize("threads", ["4", 2.5, True, 0, -3])
    def test_bad_thread_counts_rejected(self, small_base, threads):
        config, _ = small_base
        spec = SweepSpec(base=config, eta_values=(1.0,), delta_values=(0.1,),
                         threads=threads)
        named = f"^threads must be an integer >= 1, got {threads!r}$"
        with pytest.raises(ConfigError, match=named):
            spec.validate()
        with pytest.raises(ConfigError, match="^threads must be"):
            run_sweep(spec)

    def test_reruns_are_byte_identical(self, small_base, tmp_path):
        config, _ = small_base
        spec = SweepSpec(
            base=config, eta_values=(0.5, 2.0), delta_values=(0.05,),
            policies=("first",), n_episodes=30, seed=8,
        )
        emit_plot_data(run_sweep(spec), tmp_path / "a")
        emit_plot_data(run_sweep(spec), tmp_path / "b")
        for name in ("sweep.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_config_hash_changes_iff_config_changes(self, small_base):
        config, _ = small_base
        same = config.with_overrides()
        other = config.with_overrides(eta=config.eta + 1.0)
        assert config_hash(config) == config_hash(same)
        assert config_hash(config) != config_hash(other)

    def test_csv_writes_each_float_as_its_repr(self, small_base, tmp_path):
        config, _ = small_base
        a, b, c = 0.1 + 0.2, 1e-20, 1e16
        spec = SweepSpec(base=config, eta_values=(a,), delta_values=(b,), policies=("rst",))
        comps = PolicyComponents(waiting=a, mean_delay=b, reward=c, probes=a, cost=b,
                                 effective_reward=c, probing_cost=a, stopped_mass=1.0)
        estimates = Estimates(
            n_episodes=2, seed=0, mean_delay=a, se_delay=b, mean_reward=c, se_reward=a,
            mean_probes=b, se_probes=c, mean_cost=a, se_cost=b, mean_effective_reward=c,
            se_effective_reward=a, zero_variance=False)
        cell = SweepCell(policy="rst", eta=a, delta=b, status="ok", dp_value=c,
                         components=comps, estimates=estimates)
        emit_plot_data(experiments.SweepResult(spec=spec, cells=(cell,)), tmp_path)
        row = [repr(v) if isinstance(v, float) else v for v in cell.row().values()]
        assert row == ["rst", "0.30000000000000004", "1e-20", "1e+16", "0.30000000000000004",
                       "1e-20", "1e-20", "1e+16", "0.30000000000000004", "1e+16"]
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1] == ",".join(row)

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

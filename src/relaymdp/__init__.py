"""Relay selection with channel probing: MDP solvers, structural verification
and Monte-Carlo simulation for sleep-wake cycling geographic forwarding."""

__version__ = "0.1.0"

from .model import (
    ConfigError,
    LocationGrid,
    ModelConfig,
    OrderedFamily,
    OrderResult,
    RewardDistribution,
    TotalOrderError,
    build_forwarding_region,
    build_ordered_family,
    quantize_distribution,
    reward_grid,
    reward_scale,
    stochastic_order_cmp,
)
from ._kernels import Action, Decision, IllegalActionError
from .dp_restricted import (
    NonThresholdSetError,
    RestrictedTables,
    ThresholdSummary,
    act,
    backward_induction,
    extract_thresholds,
    verify_structure,
)
from .dp_restricted import initial_value as restricted_initial_value
from .dp_complete import (
    BudgetExceededError,
    CompleteTables,
    NonFiniteValueError,
    act_complete,
    solve_complete,
    state_space_census,
    verify_complete_conjectures,
)
from .dp_complete import initial_value as complete_initial_value
from .simulate import (
    EpisodeBlock,
    Estimates,
    Outcomes,
    monte_carlo,
    run_policy,
    sample_episode,
)
from .experiments import (
    CalibrationResult,
    InfeasibleGammaError,
    PolicyComponents,
    SweepResult,
    SweepSpec,
    calibrate_eta,
    complete_components,
    default_eta_grid,
    emit_plot_data,
    policy_levels,
    restricted_components,
    run_sweep,
)

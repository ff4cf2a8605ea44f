"""Discrete-event episode engine and Monte-Carlo estimation.

An episode pre-draws all randomness (renewal wake-up times, i.i.d. uniform
locations, one latent reward bin per relay under the quasi-static channel);
``run_policy`` then replays it against a policy of either class, revealing a
relay's bin only when probed; a wake-up past the policy's capacity (one
unprobed relay for the restricted class) drops a relay by the overflow rule
of ``dp_complete``.  Rewards are sampled as bins of the quantized pmf, so the
simulator and the solvers share one probability space and agreement with the
dynamic-programming values is an exact check up to sampling error.

Reproducibility: episode i draws from ``Philox(key=seed).jumped(i)``, a
counter-based stream independent of scheduling order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import Action, Decision, IllegalActionError
from .dp_complete import CompleteTables, act_complete
from .dp_restricted import RestrictedTables, act, restricted_levels
from .model import ModelConfig, OrderedFamily, reward_grid


@dataclass(frozen=True)
class Episode:
    """One realization of the forwarding situation: wake-up times W_1..W_N,
    location indices, and the latent reward bin of each relay (revealed at
    most once, on probing)."""

    wake_times: np.ndarray
    locations: np.ndarray
    reward_bins: np.ndarray

    @property
    def n_relays(self) -> int:
        return len(self.wake_times)


@dataclass(frozen=True)
class EpisodeOutcome:
    """Result of one forwarding decision.

    ``delay`` includes the wait for the first relay; ``cost`` excludes it
    (no policy can influence the first wait, so it is not charged)."""

    delay: float
    reward: float
    probes: int
    cost: float
    effective_reward: float
    stop_stage: int


@dataclass(frozen=True)
class Estimates:
    """Monte-Carlo means with standard errors (sample-variance based)."""

    n_episodes: int
    seed: int
    mean_delay: float
    se_delay: float
    mean_reward: float
    se_reward: float
    mean_probes: float
    se_probes: float
    mean_cost: float
    se_cost: float
    mean_effective_reward: float
    se_effective_reward: float
    zero_variance: bool

    def to_json(self) -> dict:
        return {
            "n": self.n_episodes,
            "seed": self.seed,
            "mean_D": self.mean_delay,
            "se_D": self.se_delay,
            "mean_R": self.mean_reward,
            "se_R": self.se_reward,
            "mean_M": self.mean_probes,
            "se_M": self.se_probes,
            "mean_cost": self.mean_cost,
            "se_cost": self.se_cost,
            "mean_eff_reward": self.mean_effective_reward,
            "se_eff_reward": self.se_effective_reward,
            "zero_variance": self.zero_variance,
        }


def episode_rng(seed: int, index: int) -> np.random.Generator:
    """The counter-based stream of episode ``index`` under a master seed."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


def sample_episode(
    family: OrderedFamily, config: ModelConfig, rng: np.random.Generator
) -> Episode:
    """Draw one episode: renewal wake-ups, uniform locations, latent bins."""
    n = config.n_relays
    if config.wakeup_law == "deterministic":
        inter = np.full(n, config.tau)
    else:
        inter = rng.exponential(config.tau, size=n)
    locations = rng.integers(len(family), size=n)
    u = rng.random(n)
    # the bin of each draw: how many cdf entries lie at or below u, capped
    top = family.n_bins - 1
    bins = np.minimum((family.cdf_matrix[locations] <= u[:, None]).sum(axis=1), top)
    return Episode(wake_times=np.cumsum(inter), locations=locations, reward_bins=bins)


class Policy:
    """State -> decision map over (stage, best reward, awake types): the
    location types of the woken, unprobed relays in wake order.

    A policy keeps at most ``capacity`` unprobed relays awake (None: no
    limit); one with a capacity also holds ``levels``, its solved tables,
    whose overflow rule the engine follows past the capacity."""

    capacity: Optional[int] = None
    levels: Optional[CompleteTables] = None

    def action(self, stage: int, best: Optional[int], awake: tuple[int, ...]) -> Decision:
        raise NotImplementedError


class RstOptPolicy(Policy):
    """Optimal restricted-class policy read off the solved tables."""

    name = "rst"
    capacity = 1

    def __init__(self, tables: RestrictedTables):
        self.tables = tables
        self.levels = restricted_levels(tables)

    def action(self, stage, best, awake):
        dist = awake[0] if awake else None
        kind = act((best, dist, stage), self.tables)
        return Decision(kind, dist if kind is Action.PROBE else None)


class ProbeFirstPolicy(Policy):
    """Baseline: probe the first relay that wakes and forward to it."""

    name = "first"

    def action(self, stage, best, awake):
        if best is None:
            if not awake:
                raise IllegalActionError("nothing probed and nothing to probe")
            return Decision(Action.PROBE, awake[0])
        return Decision(Action.STOP)


class GlbOptPolicy(Policy):
    """Optimal complete-class policy read off the solved tables."""

    name = "glb"

    def __init__(self, tables: CompleteTables):
        self.tables = tables

    def action(self, stage, best, awake):
        return act_complete((stage, best, awake), self.tables)


def run_policy(
    episode: Episode,
    policy: Policy,
    family: OrderedFamily,
    config: ModelConfig,
) -> EpisodeOutcome:
    """Replay an episode against a policy.

    Probes consume one unit of probe count and reveal the pre-drawn bin of the
    first awake relay of the requested type; a stop at stage k yields delay
    W_k; at stage N the process must terminate.  Illegal actions raise
    IllegalActionError naming the offending state.
    """
    locations = episode.locations.tolist()  # Python ints, cheap to look up per decision
    best: Optional[int] = None
    awake: list[int] = [0]  # relay indices of the woken, unprobed relays
    probes = 0
    stage = 1
    while True:
        types = tuple(locations[r] for r in awake)
        decision = policy.action(stage, best, types)
        if decision.kind is Action.STOP:
            if best is None:
                raise IllegalActionError(
                    f"stop with nothing probed at stage {stage} (awake types {types})"
                )
            break
        if decision.kind is Action.PROBE:
            if decision.probe_target not in types:
                raise IllegalActionError(
                    f"probe target type {decision.probe_target} not awake at stage "
                    f"{stage} (best={best}, awake types {types})"
                )
            pick = awake.pop(types.index(decision.probe_target))
            revealed = int(episode.reward_bins[pick])
            best = revealed if best is None else max(best, revealed)
            probes += 1
        elif decision.kind is Action.CONTINUE:
            if stage == episode.n_relays:
                raise IllegalActionError(
                    f"continue at the last stage (best={best}, awake types {types})"
                )
            awake.append(stage)  # 0-based index of the relay waking at stage+1
            stage += 1
            if policy.capacity is not None and len(awake) > policy.capacity:
                types = tuple(locations[r] for r in awake)
                awake.pop(_overflow_drop(policy.levels, stage, best, types))
        else:
            raise IllegalActionError(f"unknown action {decision!r} at stage {stage}")

    reward = float(reward_grid(family.n_bins)[best])
    delay = float(episode.wake_times[stage - 1])
    waiting = delay - float(episode.wake_times[0])
    eta, delta = config.eta, config.delta
    return EpisodeOutcome(
        delay=delay,
        reward=reward,
        probes=probes,
        cost=waiting - eta * reward + eta * delta * probes,
        effective_reward=reward - delta * probes,
        stop_stage=stage,
    )


def _overflow_drop(levels: CompleteTables, stage: int, best: Optional[int], types: tuple) -> int:
    """Position in ``types`` (wake order, newcomer last) of the relay the overflow
    rule drops: the newcomer, or else the first-woken relay of a dropped type."""
    space = levels.space
    held = space.row(tuple(sorted(types[:-1])))
    b = levels.none_index if best is None else best
    kept = levels.overflow_keep(stage)[types[-1], held, b]
    if kept == held:
        return len(types) - 1
    left = space.msets[len(types) - 1][kept]
    return next(p for p, u in enumerate(types) if types.count(u) > left.count(u))


def monte_carlo(
    family: OrderedFamily,
    config: ModelConfig,
    policy,
    n_episodes: int,
    seed: int,
) -> Estimates:
    """Estimate E[D], E[R], E[M], the Lagrangian cost and the effective reward
    over independently seeded episodes."""
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    base = np.random.Philox(key=seed)
    samples = np.empty((n_episodes, 5))
    for i in range(n_episodes):
        rng = np.random.Generator(base.jumped(i))
        episode = sample_episode(family, config, rng)
        out = run_policy(episode, policy, family, config)
        samples[i] = (out.delay, out.reward, out.probes, out.cost, out.effective_reward)

    means = samples.mean(axis=0)
    if n_episodes >= 2:
        ses = samples.std(axis=0, ddof=1) / math.sqrt(n_episodes)
    else:
        ses = np.zeros(5)
    return Estimates(
        n_episodes=n_episodes,
        seed=seed,
        mean_delay=float(means[0]), se_delay=float(ses[0]),
        mean_reward=float(means[1]), se_reward=float(ses[1]),
        mean_probes=float(means[2]), se_probes=float(ses[2]),
        mean_cost=float(means[3]), se_cost=float(ses[3]),
        mean_effective_reward=float(means[4]), se_effective_reward=float(ses[4]),
        zero_variance=bool(n_episodes < 2 or float(ses.max()) == 0.0),
    )

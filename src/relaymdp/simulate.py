"""Block-sampled episodes, one array-at-a-time replay engine and Monte-Carlo
estimation.

An episode pre-draws all randomness (renewal wake-up times, i.i.d. uniform
locations, one latent reward bin per relay under the quasi-static channel).
``sample_episode`` draws a block of episodes and ``run_policy`` replays every
episode of a block at once against a policy's action tables, the stage-by-size
levels of the capacity-c induction of ``dp_complete``; a relay's bin is
revealed only when it is probed, and a wake-up past the policy's capacity (one
unprobed relay for the restricted class) drops a relay by the overflow rule.
Rewards are sampled as bins of the quantized pmf, so the simulator and the
solvers share one probability space and agreement with the
dynamic-programming values is an exact check up to sampling error.

Reproducibility: block j holds episodes j * EPISODES_PER_BLOCK onwards and is
drawn from ``Philox(key=seed).jumped(j)``, a counter-based stream (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).  A block is
always drawn in full, so episode i is the same in every run of more than i
episodes, whatever the number of threads or the order of the work.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._kernels import (CONTINUE, NO_ACTION, PROBE, STOP, action_dtype, illegal_action,
                       legal_actions)
from .dp_complete import CompleteTables, _ranked_members, multiset_space
from .model import ModelConfig, OrderedFamily, check_budget, reward_grid, whole_number

# Nothing here calls these two; perfbench/tracing.py wraps them by their names
# in this module, so the bindings stay.
from .dp_complete import act_complete
from .dp_restricted import act

# Episodes drawn from one counter-based stream; fixed, so that episode i never
# depends on how many episodes a run asks for.
EPISODES_PER_BLOCK = 4096


@dataclass(frozen=True)
class EpisodeBlock:
    """Realizations of the forwarding situation, one row per episode: wake-up
    times W_1..W_N, location indices, and the latent reward bin of each relay
    (revealed at most once, on probing)."""

    wake_times: np.ndarray
    locations: np.ndarray
    reward_bins: np.ndarray

    def __len__(self) -> int:
        return len(self.wake_times)

    def head(self, count: int) -> "EpisodeBlock":
        """The first ``count`` episodes (views)."""
        return EpisodeBlock(self.wake_times[:count], self.locations[:count],
                            self.reward_bins[:count])


@dataclass(frozen=True)
class Outcomes:
    """Results of a block's forwarding decisions, one entry per episode.

    ``delay`` includes the wait for the first relay; ``cost`` excludes it
    (no policy can influence the first wait, so it is not charged)."""

    delay: np.ndarray
    reward: np.ndarray
    probes: np.ndarray
    cost: np.ndarray
    effective_reward: np.ndarray
    stop_stage: np.ndarray


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


def block_rng(seed: int, block: int) -> np.random.Generator:
    """The counter-based stream of block ``block`` under a master seed."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(block))


def sample_episode(
    family: OrderedFamily, config: ModelConfig, rng: np.random.Generator
) -> EpisodeBlock:
    """Draw one block of EPISODES_PER_BLOCK episodes: all renewal wake-ups,
    then all uniform locations, then all uniforms that fix the latent bins."""
    shape = (EPISODES_PER_BLOCK, config.n_relays)
    if config.wakeup_law == "deterministic":
        inter = np.full(shape, config.tau)
    else:
        inter = rng.exponential(config.tau, size=shape)
    locations = rng.integers(len(family), size=shape)
    u = rng.random(shape)
    # the bin of each draw: how many of the first n_bins - 1 entries of its
    # location's cdf lie at or below u (the top bin takes the rest); a cdf is
    # nondecreasing, so a binary search over that row of the flattened
    # matrix counts them exactly, the count lying in [at, at + span] - start
    start = locations * family.n_bins
    at = start.copy()
    span = family.n_bins - 1
    cdf = family.cdf_matrix.ravel()
    while span > 1:
        half = span // 2
        at += half * (cdf[at + (half - 1)] <= u)
        span -= half
    at += cdf[at] <= u
    bins = at - start
    return EpisodeBlock(wake_times=np.cumsum(inter, axis=1), locations=locations,
                        reward_bins=bins)


def probe_first_levels(family: OrderedFamily, config: ModelConfig) -> CompleteTables:
    """The probe-first baseline as capacity-1 levels: at stage 1 it probes the
    awake relay while nothing is probed and stops otherwise; the values are
    that policy's costs.  Later stages are never reached and hold NO_ACTION.
    BudgetExceededError, before anything is allocated, where the restricted
    class's values, which these levels hold, would not fit the state budget."""
    config.validate()
    n_loc, none = len(family), family.n_bins
    shapes, stages = ((1, none + 1), (n_loc, none + 1)), range(config.n_relays)
    values = [[np.full(shape, np.inf) for shape in shapes] for _ in stages]
    actions = [[np.full(shape, NO_ACTION, dtype=action_dtype(n_loc)) for shape in shapes]
               for _ in stages]
    (bare, held), (bare_act, held_act) = values[0], actions[0]
    bare[:, :none] = held[:, :none] = -config.eta * reward_grid(family.n_bins)
    bare_act[:, :none] = held_act[:, :none] = STOP
    held[:, none] = config.eta * config.delta + family.pmf_matrix @ held[0, :none]
    held_act[:, none] = PROBE + np.arange(n_loc)
    return CompleteTables(config=config, family=family, space=multiset_space(n_loc, 1),
                          values=values, actions=actions, kept=[None] * config.n_relays)


def run_policy(block: EpisodeBlock, levels: CompleteTables) -> Outcomes:
    """Replay every episode of a block against a policy's action tables, the
    levels of the capacity-c induction, under their family and config.

    Stage by stage, each live episode reads its action at (stage, best,
    awake multiset), largest multisets first, so an episode that probes is
    asked again at the next smaller size in the same pass.  A probe costs one
    probe count and reveals the pre-drawn bin of the first-woken awake relay
    of the target type; a stop at stage k yields delay W_k; a continue wakes
    the next relay once the pass is over, and past the capacity the overflow
    rule drops the newcomer or the first-woken relay of the dropped type.
    Illegal actions (stop with nothing probed, a probe target that is not
    awake, continue at the last stage, NO_ACTION) raise IllegalActionError
    naming the state of the first offending episode.
    """
    space, capacity, rank = levels.space, levels.capacity, tuple(levels.family.rank)
    loc, bins = block.locations, block.reward_bins
    n, n_stages = loc.shape

    awake = np.zeros((n, n_stages), dtype=bool)  # woken, unprobed relays
    awake[:, 0] = True
    size = np.ones(n, dtype=np.intp)
    row = loc[:, 0].astype(np.intp)  # multisets of size 1 are ordered by type
    best = np.full(n, -1, dtype=np.intp)  # nothing probed: the none column, -1, of a level
    probes = np.zeros(n, dtype=np.intp)
    stop_stage = np.zeros(n, dtype=np.intp)
    live = np.ones(n, dtype=bool)

    for k in range(1, n_stages + 1):
        going = np.zeros(n, dtype=bool)
        for s in range(min(k, capacity), -1, -1):
            at = np.flatnonzero(live & (size == s))
            if at.size == 0:
                continue
            g, b = row[at], best[at]
            code = levels.actions[k - 1][s][g, b]
            # the awake relays of the probed type (none for other codes)
            match = awake[at] & (loc[at] == (code.astype(np.intp) - PROBE)[:, None])
            legal = legal_actions(code, match.any(axis=1), b >= 0, k == n_stages)
            if not legal.all():
                i = int(np.argmin(legal))
                raise illegal_action(
                    code[i], f"(stage {k}, episode {at[i]}, best={None if b[i] < 0 else b[i]}, "
                    f"awake types {tuple(loc[at[i]][awake[at[i]]].tolist())})")

            stops = at[code == STOP]
            live[stops] = False
            stop_stage[stops] = k
            going[at[code == CONTINUE]] = True

            probing = code >= PROBE
            if probing.any():
                e = at[probing]
                pick = match[probing].argmax(axis=1)  # the first-woken relay of that type
                awake[e, pick] = False
                revealed = bins[e, pick]
                best[e] = np.maximum(best[e], revealed)
                probes[e] += 1
                # the row of the set left, the solve's rest at a slot of the
                # probed type: equal members leave the same rest
                types, rests = _ranked_members(space, s, rank)
                g, t = g[probing], loc[e, pick]
                row[e] = rests[g, (types[g] == t[:, None]).argmax(axis=1)]
                size[e] = s - 1

        if k == n_stages:
            break
        # relay k + 1 (column k) wakes in every continuing episode, once
        e = np.flatnonzero(going)
        t, g, sizes = loc[e, k], row[e], size[e]
        for s in range(min(k + 1, capacity)):
            grow = sizes == s
            row[e[grow]] = space.plus[s][t[grow], g[grow]]
            size[e[grow]] = s + 1
            awake[e[grow], k] = True
        full = sizes == capacity
        if full.any():
            e, t, g = e[full], t[full], g[full]
            kept = levels.kept[k][t, g, best[e]]
            swap = kept != g  # else the newcomer is dropped
            e, t, g, kept = e[swap], t[swap], g[swap], kept[swap]
            # the type dropped: the members of g and t, less those kept
            sums = space.members[capacity].sum(axis=1)
            dropped = sums[g] + t - sums[kept]
            awake[e, (awake[e] & (loc[e] == dropped[:, None])).argmax(axis=1)] = False
            awake[e, k] = True
            row[e] = kept

    reward = reward_grid(levels.n_bins)[best]
    delay = block.wake_times[np.arange(n), stop_stage - 1]
    cost, effective_reward = levels.config.lagrangian(
        delay - block.wake_times[:, 0], reward, probes)
    return Outcomes(delay=delay, reward=reward, probes=probes, cost=cost,
                    effective_reward=effective_reward, stop_stage=stop_stage)


def check_episode_count(n_episodes) -> int:
    """The episode count as an int, held to the state budget in entries of
    its outcome arrays; otherwise ConfigError."""
    count = whole_number(n_episodes, "n_episodes", 1)
    check_budget(len(fields(Outcomes)) * count, "the outcome arrays, n_episodes entries each")
    return count


def check_seed(seed) -> int:
    """The master seed, a key of the counter-based streams, which take 128-bit
    keys, as an int; otherwise ConfigError."""
    return whole_number(seed, "seed", 0, 2 ** 128)


def episode_outcomes(levels: CompleteTables, n_episodes: int, seed: int) -> Outcomes:
    """Outcomes of episodes 0 .. n_episodes - 1 of a policy's levels under a
    master seed, drawn and replayed a block at a time."""
    count = check_episode_count(n_episodes)
    seed = check_seed(seed)
    # a block draws several (EPISODES_PER_BLOCK, n_relays) arrays, each held to the budget
    check_budget(EPISODES_PER_BLOCK * levels.config.n_relays,
                 f"an episode block, {EPISODES_PER_BLOCK} episodes x n_relays")
    names = [f.name for f in fields(Outcomes)]
    for j, first in enumerate(range(0, count, EPISODES_PER_BLOCK)):
        block = sample_episode(levels.family, levels.config, block_rng(seed, j))
        part = run_policy(block.head(count - first), levels)
        if j == 0:  # one set of arrays, as check_episode_count charges
            out = Outcomes(*(np.empty(count, getattr(part, name).dtype) for name in names))
        for name in names:
            getattr(out, name)[first:first + EPISODES_PER_BLOCK] = getattr(part, name)
    return out


def monte_carlo(levels: CompleteTables, n_episodes: int, seed: int) -> Estimates:
    """Estimate E[D], E[R], E[M], the Lagrangian cost and the effective reward
    of a policy's levels over the episodes of a master seed."""
    out = episode_outcomes(levels, n_episodes, seed)
    columns = (out.delay, out.reward, out.probes, out.cost, out.effective_reward)
    means = [float(c.mean()) for c in columns]
    if n_episodes >= 2:
        ses = [float(c.std(ddof=1)) / math.sqrt(n_episodes) for c in columns]
    else:
        ses = [0.0] * 5
    return Estimates(
        n_episodes=int(n_episodes),
        seed=int(seed),
        mean_delay=means[0], se_delay=ses[0],
        mean_reward=means[1], se_reward=ses[1],
        mean_probes=means[2], se_probes=ses[2],
        mean_cost=means[3], se_cost=ses[3],
        mean_effective_reward=means[4], se_effective_reward=ses[4],
        zero_variance=bool(n_episodes < 2 or max(ses) == 0.0),
    )

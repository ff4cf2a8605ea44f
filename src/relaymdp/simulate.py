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
import numbers
from dataclasses import dataclass, fields

import numpy as np

from ._kernels import CONTINUE, NO_ACTION, PROBE, STOP, IllegalActionError
from .dp_complete import CompleteTables, _ranked_members, multiset_space
from .model import ModelConfig, OrderedFamily, reward_grid

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
    # the bin of each draw: how many entries of its location's cdf lie at or
    # below u, capped at the top bin; a cdf is nondecreasing, so searchsorted
    # counts them exactly, one location at a time
    bins = np.empty(shape, dtype=np.intp)
    for loc, cdf in enumerate(family.cdf_matrix):
        at = locations == loc
        bins[at] = np.searchsorted(cdf, u[at], side="right")
    np.minimum(bins, family.n_bins - 1, out=bins)
    return EpisodeBlock(wake_times=np.cumsum(inter, axis=1), locations=locations,
                        reward_bins=bins)


def probe_first_levels(family: OrderedFamily, config: ModelConfig) -> CompleteTables:
    """The probe-first baseline as capacity-1 levels: at stage 1 it probes the
    awake relay while nothing is probed and stops otherwise; the values are
    that policy's costs.  Later stages are never reached and hold NO_ACTION."""
    n_loc, none = len(family), family.n_bins

    def unreached(rows: int) -> tuple:
        shape = (rows, family.n_bins + 1)
        return (np.full(shape, np.inf), np.full(shape, NO_ACTION, dtype=np.int8),
                np.full(shape, -1, dtype=np.int16))

    stages = [[unreached(1), unreached(n_loc)] for _ in range(config.n_relays)]
    (bare, bare_act, _), (held, held_act, held_tgt) = stages[0]
    bare[:, :none] = held[:, :none] = -config.eta * reward_grid(family.n_bins)
    bare_act[:, :none] = held_act[:, :none] = STOP
    held[:, none] = config.eta * config.delta + family.pmf_matrix @ held[0, :none]
    held_act[:, none] = PROBE
    held_tgt[:, none] = np.arange(n_loc)
    return CompleteTables(
        config=config, family=family, space=multiset_space(n_loc, min(2, config.n_relays)),
        values=[[lv[0] for lv in st] for st in stages],
        actions=[[lv[1] for lv in st] for st in stages],
        probe_targets=[[lv[2] for lv in st] for st in stages],
    )


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
    space, capacity, none = levels.space, levels.capacity, levels.none_index
    loc, bins = block.locations, block.reward_bins
    n, n_stages = loc.shape

    awake = np.zeros((n, n_stages), dtype=bool)  # woken, unprobed relays
    awake[:, 0] = True
    size = np.ones(n, dtype=np.intp)
    row = loc[:, 0].astype(np.intp)  # multisets of size 1 are ordered by type
    best = np.full(n, none, dtype=np.intp)
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
            target = levels.probe_targets[k - 1][s][g, b]
            match = awake[at] & (loc[at] == target[:, None])
            illegal = (((code == STOP) & (b == none)) | ((code == CONTINUE) & (k == n_stages))
                       | ((code == PROBE) & ~match.any(axis=1))
                       | ((code != STOP) & (code != PROBE) & (code != CONTINUE)))
            if illegal.any():
                i = int(np.argmax(illegal))
                raise _illegal(int(code[i]), int(target[i]), k, int(at[i]), int(b[i]), none,
                               tuple(loc[at[i]][awake[at[i]]].tolist()))

            stops = at[code == STOP]
            live[stops] = False
            stop_stage[stops] = k
            going[at[code == CONTINUE]] = True

            probing = code == PROBE
            if probing.any():
                e = at[probing]
                pick = match[probing].argmax(axis=1)  # the first-woken relay of that type
                awake[e, pick] = False
                revealed = bins[e, pick]
                best[e] = np.where(best[e] == none, revealed, np.maximum(best[e], revealed))
                probes[e] += 1
                # the row of the set left, rebuilt from its s - 1 members
                row[e] = _rows(space, loc[e][awake[e]].reshape(len(e), s - 1))
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
            kept = levels.overflow_keep(k + 1)[t, g, best[e]]
            swap = kept != g  # else the newcomer is dropped
            e, t, g, kept = e[swap], t[swap], g[swap], kept[swap]
            joined = space.plus[capacity][t, g]
            types, rests = _ranked_members(space, capacity + 1, tuple(levels.family.rank))
            dropped = types[joined, (rests[joined] == kept[:, None]).argmax(axis=1)]
            awake[e, (awake[e] & (loc[e] == dropped[:, None])).argmax(axis=1)] = False
            awake[e, k] = True
            row[e] = kept

    reward = reward_grid(levels.n_bins)[best]
    delay = block.wake_times[np.arange(n), stop_stage - 1]
    waiting = delay - block.wake_times[:, 0]
    eta, delta = levels.config.eta, levels.config.delta
    return Outcomes(
        delay=delay,
        reward=reward,
        probes=probes,
        cost=waiting - eta * reward + eta * delta * probes,
        effective_reward=reward - delta * probes,
        stop_stage=stop_stage,
    )


def _rows(space, types: np.ndarray) -> np.ndarray:
    """The row of the multiset in each row of ``types`` (members in any
    order), built up member by member through the ``plus`` maps."""
    rows = np.zeros(len(types), dtype=np.intp)
    for i in range(types.shape[1]):
        rows = space.plus[i][types[:, i], rows]
    return rows


def _illegal(code: int, target: int, stage: int, episode: int, best: int, none: int,
             types: tuple) -> IllegalActionError:
    """The error naming an offending episode's state (awake types in wake order)."""
    state = (f"(stage {stage}, episode {episode}, best={None if best == none else best}, "
             f"awake types {types})")
    if code == STOP:
        return IllegalActionError(f"stop with nothing probed {state}")
    if code == PROBE:
        return IllegalActionError(f"probe target type {target} not awake {state}")
    if code == CONTINUE:
        return IllegalActionError(f"continue at the last stage {state}")
    return IllegalActionError(f"no legal action (code {code}) {state}")


def check_episode_count(n_episodes) -> int:
    """The episode count as an int; a bool, a non-integral or a count below
    one raises ValueError."""
    if isinstance(n_episodes, bool) or not isinstance(n_episodes, numbers.Integral):
        raise ValueError(f"n_episodes must be an integer, got {n_episodes!r}")
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    return int(n_episodes)


def episode_outcomes(levels: CompleteTables, n_episodes: int, seed: int) -> Outcomes:
    """Outcomes of episodes 0 .. n_episodes - 1 of a policy's levels under a
    master seed, drawn and replayed a block at a time."""
    count = check_episode_count(n_episodes)
    parts = []
    for j, first in enumerate(range(0, count, EPISODES_PER_BLOCK)):
        block = sample_episode(levels.family, levels.config, block_rng(seed, j))
        parts.append(run_policy(block.head(count - first), levels))
    return Outcomes(*(np.concatenate([getattr(p, f.name) for p in parts])
                      for f in fields(Outcomes)))


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
        seed=seed,
        mean_delay=means[0], se_delay=ses[0],
        mean_reward=means[1], se_reward=ses[1],
        mean_probes=means[2], se_probes=ses[2],
        mean_cost=means[3], se_cost=ses[3],
        mean_effective_reward=means[4], se_effective_reward=ses[4],
        zero_variance=bool(n_episodes < 2 or max(ses) == 0.0),
    )

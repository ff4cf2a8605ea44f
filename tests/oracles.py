"""Independent brute-force oracles for the solver test suites.

Two layers, deliberately separate from the production code paths:

* one Bellman recursion per policy class, top-down over the states of the
  history tree in pure Python floats, memoized on the state, with no tables
  and no vectorization.  Minimizing action by action over the finite tree
  gives the optimum over every (history-dependent) policy; its readers give
  the optimal value, the values of chosen states and (for the restricted
  class) the stopping and probing sets.
* ``enumerate_*_policies``: literal enumeration of all deterministic policies
  on instances small enough, evaluating each policy's expected cost by
  recursion.  Used to cross-validate the recursions themselves.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import product


class Toy:
    """A tiny instance: explicit pmfs over an explicit reward grid."""

    def __init__(self, pmfs, grid, eta, delta, tau, n_relays):
        self.pmfs = [list(map(float, p)) for p in pmfs]
        self.grid = list(map(float, grid))
        self.eta = float(eta)
        self.delta = float(delta)
        self.tau = float(tau)
        self.n_relays = int(n_relays)
        self.n_loc = len(pmfs)

    @classmethod
    def from_family(cls, family, config):
        from relaymdp.model import reward_grid

        return cls(
            pmfs=family.pmf_matrix.tolist(),
            grid=reward_grid(family.n_bins).tolist(),
            eta=config.eta,
            delta=config.delta,
            tau=config.tau,
            n_relays=config.n_relays,
        )


# ---------------------------------------------------------------------------
# restricted class: keep at most the best probed relay plus one unprobed one
# ---------------------------------------------------------------------------

def _restricted_bellman(toy: Toy):
    """The restricted class's recursion, memoized on the state.  A holding
    state (k, b, l) holds the best probed bin b (None before any probe) and
    one unprobed relay at location l, and may stop, probe or continue; a bare
    state (k, b) has just probed, its only awake relay the best probed one.
    Returns (holding, probe_cost, cont_holding, cont_bare): the value of a
    holding state and the costs of its probe and continue, and the cost of a
    bare state's continue."""

    @lru_cache(maxsize=None)
    def holding(k, b, l):
        costs = []
        if b is not None:
            costs.append(-toy.eta * toy.grid[b])
        costs.append(probe_cost(k, b, l))
        if k < toy.n_relays:
            costs.append(cont_holding(k, b, l))
        return min(costs)

    def probe_cost(k, b, l):
        total = toy.eta * toy.delta
        for r, p in enumerate(toy.pmfs[l]):
            if p:
                total += p * bare(k, r if b is None else max(b, r))
        return total

    def cont_holding(k, b, l):
        # the incumbent at l or the newcomer at u is kept, whichever costs less
        total = 0.0
        for u in range(toy.n_loc):
            total += min(holding(k + 1, b, l), holding(k + 1, b, u))
        return toy.tau + total / toy.n_loc

    def cont_bare(k, b):
        total = 0.0
        for u in range(toy.n_loc):
            total += holding(k + 1, b, u)
        return toy.tau + total / toy.n_loc

    @lru_cache(maxsize=None)
    def bare(k, b):
        stop = -toy.eta * toy.grid[b]
        if k == toy.n_relays:
            return stop
        return min(stop, cont_bare(k, b))

    return holding, probe_cost, cont_holding, cont_bare


def restricted_value(toy: Toy) -> float:
    """Optimal restricted-class expected cost from the first wake-up."""
    holding = _restricted_bellman(toy)[0]
    return sum(holding(1, None, l) for l in range(toy.n_loc)) / toy.n_loc


def restricted_state_value(toy: Toy, k, b, l) -> float:
    """Value of one holding state (for table spot checks)."""
    return _restricted_bellman(toy)[0](k, b, l)


def restricted_sets(toy: Toy, tol: float = 1e-12):
    """Stopping/probing sets derived from the recursion.

    Returns per-stage boolean masks over the real reward bins for S_k, S_k^l
    and Q_k^l (stages 1..N-1), using the same tie convention as the solver
    (ties within ``tol`` count as stopping / as probe-or-stop).
    """
    _, probe_cost, cont_holding, cont_bare = _restricted_bellman(toy)
    n_bins = len(toy.grid)
    sets = {"s": [], "s_l": [], "q_l": []}
    for k in range(1, toy.n_relays):
        s_mask = []
        for b in range(n_bins):
            s_mask.append(-toy.eta * toy.grid[b] <= cont_bare(k, b) + tol)
        sets["s"].append(s_mask)
        s_l_mask = []
        q_l_mask = []
        for l in range(toy.n_loc):
            s_col, q_col = [], []
            for b in range(n_bins):
                stop = -toy.eta * toy.grid[b]
                cp = probe_cost(k, b, l)
                cc = cont_holding(k, b, l)
                s_col.append(stop <= min(cp, cc) + tol)
                q_col.append(min(stop, cp) <= cc + tol)
            s_l_mask.append(s_col)
            q_l_mask.append(q_col)
        sets["s_l"].append(s_l_mask)
        sets["q_l"].append(q_l_mask)
    return sets



def enumerate_restricted_policies(toy: Toy) -> float:
    """Minimum expected cost over every deterministic restricted policy.

    Decision points: holding states (k, b, l) choose stop/probe/continue,
    bare states (k, b) choose stop/continue, and arrivals (k, b, incumbent,
    newcomer) choose which unprobed relay to retain.  Feasible only for very
    small instances; validates the tree recursion above.
    """
    points: dict[tuple, tuple] = {}

    def options_holding(k, b, l):
        opts = []
        if b is not None:
            opts.append("stop")
        opts.append("probe")
        if k < toy.n_relays:
            opts.append("continue")
        return tuple(opts)

    def discover_holding(k, b, l):
        key = ("h", k, b, l)
        if key in points:
            return
        points[key] = options_holding(k, b, l)
        for r, p in enumerate(toy.pmfs[l]):
            if p:
                discover_bare(k, r if b is None else max(b, r))
        if k < toy.n_relays:
            for u in range(toy.n_loc):
                discover_arrival(k + 1, b, l, u)

    def discover_bare(k, b):
        key = ("b", k, b)
        if key in points:
            return
        points[key] = ("stop",) if k == toy.n_relays else ("stop", "continue")
        if k < toy.n_relays:
            for u in range(toy.n_loc):
                discover_holding(k + 1, b, u)

    def discover_arrival(k, b, l, u):
        key = ("a", k, b, l, u)
        if key in points:
            return
        points[key] = ("keep", "replace")
        discover_holding(k, b, l)
        discover_holding(k, b, u)

    for l in range(toy.n_loc):
        discover_holding(1, None, l)

    keys = sorted(points, key=repr)
    best = math.inf
    for combo in product(*(points[k] for k in keys)):
        policy = dict(zip(keys, combo))

        def val_holding(k, b, l):
            choice = policy[("h", k, b, l)]
            if choice == "stop":
                return -toy.eta * toy.grid[b]
            if choice == "probe":
                total = toy.eta * toy.delta
                for r, p in enumerate(toy.pmfs[l]):
                    if p:
                        total += p * val_bare(k, r if b is None else max(b, r))
                return total
            total = 0.0
            for u in range(toy.n_loc):
                total += val_arrival(k + 1, b, l, u)
            return toy.tau + total / toy.n_loc

        def val_bare(k, b):
            if policy[("b", k, b)] == "stop":
                return -toy.eta * toy.grid[b]
            total = 0.0
            for u in range(toy.n_loc):
                total += val_holding(k + 1, b, u)
            return toy.tau + total / toy.n_loc

        def val_arrival(k, b, l, u):
            kept = l if policy[("a", k, b, l, u)] == "keep" else u
            return val_holding(k, b, kept)

        value = sum(val_holding(1, None, l) for l in range(toy.n_loc)) / toy.n_loc
        best = min(best, value)
    return best


# ---------------------------------------------------------------------------
# complete class: every woken relay may stay awake
# ---------------------------------------------------------------------------

def _complete_bellman(toy: Toy):
    """The complete-class recursion, memoized on the state: value(k, b, mset)
    of stage k, best probed bin b (None before any probe) and the sorted
    multiset of awake unprobed types, which builds its own multiset
    transitions, independent of the production solver's bottom-up tables
    and precomputed index maps."""

    @lru_cache(maxsize=None)
    def value(k, b, mset):
        costs = []
        if b is not None:
            costs.append(-toy.eta * toy.grid[b])
        for t in sorted(set(mset)):
            rest = list(mset)
            rest.remove(t)
            rest = tuple(rest)
            probe = toy.eta * toy.delta
            for r, p in enumerate(toy.pmfs[t]):
                if p:
                    probe += p * value(k, r if b is None else max(b, r), rest)
            costs.append(probe)
        if k < toy.n_relays:
            total = 0.0
            for u in range(toy.n_loc):
                total += value(k + 1, b, tuple(sorted(mset + (u,))))
            costs.append(toy.tau + total / toy.n_loc)
        return min(costs) if costs else math.inf

    return value


def complete_value(toy: Toy) -> float:
    """Optimal complete-class expected cost from the first wake-up."""
    value = _complete_bellman(toy)
    return sum(value(1, None, (l,)) for l in range(toy.n_loc)) / toy.n_loc


def complete_state_values(toy: Toy, states):
    """Values of chosen (stage, best, multiset) states."""
    value = _complete_bellman(toy)
    return [value(k, b, tuple(sorted(g))) for k, b, g in states]



def enumerate_complete_policies(toy: Toy) -> float:
    """Minimum expected cost over every deterministic complete-class policy
    (actions indexed by (stage, best reward, unprobed multiset))."""
    points: dict[tuple, tuple] = {}

    def options(k, b, mset):
        opts = []
        if b is not None:
            opts.append(("stop",))
        for t in sorted(set(mset)):
            opts.append(("probe", t))
        if k < toy.n_relays:
            opts.append(("continue",))
        return tuple(opts)

    def discover(k, b, mset):
        key = (k, b, mset)
        if key in points:
            return
        opts = options(k, b, mset)
        points[key] = opts
        for opt in opts:
            if opt[0] == "probe":
                rest = list(mset)
                rest.remove(opt[1])
                rest = tuple(rest)
                for r, p in enumerate(toy.pmfs[opt[1]]):
                    if p:
                        discover(k, r if b is None else max(b, r), rest)
            elif opt[0] == "continue":
                for u in range(toy.n_loc):
                    discover(k + 1, b, tuple(sorted(mset + (u,))))

    for l in range(toy.n_loc):
        discover(1, None, (l,))

    keys = sorted(points, key=repr)
    best = math.inf
    for combo in product(*(points[k] for k in keys)):
        policy = dict(zip(keys, combo))

        def val(k, b, mset):
            choice = policy[(k, b, mset)]
            if choice[0] == "stop":
                return -toy.eta * toy.grid[b]
            if choice[0] == "probe":
                t = choice[1]
                rest = list(mset)
                rest.remove(t)
                rest = tuple(rest)
                total = toy.eta * toy.delta
                for r, p in enumerate(toy.pmfs[t]):
                    if p:
                        total += p * val(k, r if b is None else max(b, r), rest)
                return total
            total = 0.0
            for u in range(toy.n_loc):
                total += val(k + 1, b, tuple(sorted(mset + (u,))))
            return toy.tau + total / toy.n_loc

        value = sum(val(1, None, (l,)) for l in range(toy.n_loc)) / toy.n_loc
        best = min(best, value)
    return best



# ---------------------------------------------------------------------------
# structural check (f): the eta-Lipschitz bound, pair by pair
# ---------------------------------------------------------------------------

def pairwise_lipschitz_excess(arr, grid, eta):
    """For every bin j >= 1 along the last axis, max over i < j of
    a_i - a_j - eta (r_j - r_i), from the full (B, B) array of pairs, one
    leading row at a time."""
    import numpy as np

    slack = eta * (grid[None, :] - grid[:, None])  # slack[i, j] = eta (r_j - r_i)
    pairs_i_lt_j = np.triu(np.ones((len(grid), len(grid)), dtype=bool), k=1)
    rows = arr.reshape(-1, len(grid))
    out = np.empty((rows.shape[0], len(grid) - 1))
    for n, a in enumerate(rows):
        d = np.where(pairs_i_lt_j, a[:, None] - a[None, :] - slack, -np.inf)
        out[n] = d.max(axis=0)[1:]
    return out.reshape(arr.shape[:-1] + (len(grid) - 1,))


# ---------------------------------------------------------------------------
# complete-class conjecture: probing the stochastically largest member
# ---------------------------------------------------------------------------

def probe_largest_violations(tables, tol: float = 1e-9) -> int:
    """Probing states of a complete-class solve where probing the member of
    lowest ``family.rank`` costs more than the best probe, re-minimising over
    every member type, each expectation summed bin by bin from the stored
    value of the set left behind.  Only the states the tables hold count: a
    level of one column holds the none row alone."""
    from relaymdp._kernels import Action, decision_of

    def is_probe(code) -> bool:
        decision = decision_of(code)
        return decision is not None and decision.kind is Action.PROBE

    family, space, config = tables.family, tables.space, tables.config
    n_bins = tables.n_bins
    count = 0
    for k in range(1, tables.n_stages + 1):
        for s in range(1, k + 1):
            smaller = tables.values[k - 1][s - 1]
            level = tables.actions[k - 1][s]
            bins = range(n_bins + 1)[-level.shape[1]:]  # the best rewards of its columns
            for g, mset in enumerate(space.msets[s]):
                probing = [b for col, b in enumerate(bins) if is_probe(level[g, col])]
                if not probing:
                    continue
                costs = {}
                for t in set(mset):
                    rest = list(mset)
                    rest.remove(t)
                    row = space.row(tuple(rest))
                    pmf = family.pmf_matrix[t]
                    costs[t] = [
                        config.eta * config.delta + sum(
                            float(pmf[r]) * float(smaller[row, r if b == n_bins else max(b, r)])
                            for r in range(n_bins)
                        )
                        for b in range(n_bins + 1)
                    ]
                largest = min(mset, key=lambda t: family.rank[t])
                count += sum(costs[largest][b] > min(c[b] for c in costs.values()) + tol
                             for b in probing)
    return count


# ---------------------------------------------------------------------------
# episode replay: one policy query per decision, one episode at a time
# ---------------------------------------------------------------------------

def reference_run_policy(block, index, levels):
    """Replay episode ``index`` of a block against a policy's levels decision
    by decision through ``act_complete``: the scalar ground truth of the
    batched engine.

    Returns ``(outcome, events)``: outcome is (delay, reward, probes, cost,
    effective_reward, stop_stage) in Python numbers, and events holds
    "repeat" when the awake relays ever held two of one type and "swap" when
    an overflow dropped an awake relay in place of the newcomer.
    """
    import numpy as np

    from relaymdp import Action, IllegalActionError, act_complete
    from relaymdp.model import reward_grid

    locations = block.locations[index].tolist()
    # each relay's latent bin, counted apart from the engine's ``bins_of``:
    # the entries of its location's cdf at or below its uniform, the top bin
    # taking the rest
    cdf, u = block.cdf_matrix[block.locations[index]], block.uniforms[index]
    bins = np.minimum((cdf <= u[:, None]).sum(axis=1), levels.n_bins - 1).tolist()
    wake_times = block.wake_times[index].tolist()
    n_relays = len(locations)
    events = set()
    best = None
    awake = [0]  # relay indices of the woken, unprobed relays, in wake order
    probes = 0
    stage = 1
    while True:
        types = tuple(locations[r] for r in awake)
        if len(set(types)) < len(types):
            events.add("repeat")
        decision = act_complete((stage, best, types), levels)
        if decision.kind is Action.STOP:
            if best is None:
                raise IllegalActionError(
                    f"stop with nothing probed at stage {stage} (awake types {types})")
            break
        if decision.kind is Action.PROBE:
            if decision.probe_target not in types:
                raise IllegalActionError(
                    f"probe target type {decision.probe_target} not awake at stage "
                    f"{stage} (best={best}, awake types {types})")
            pick = awake.pop(types.index(decision.probe_target))
            best = bins[pick] if best is None else max(best, bins[pick])
            probes += 1
        elif decision.kind is Action.CONTINUE:
            if stage == n_relays:
                raise IllegalActionError(
                    f"continue at the last stage (best={best}, awake types {types})")
            awake.append(stage)  # 0-based index of the relay waking at stage+1
            stage += 1
            if len(awake) > levels.capacity:
                types = tuple(locations[r] for r in awake)
                drop = _overflow_drop(levels, stage, best, types)
                if drop != len(types) - 1:
                    events.add("swap")
                awake.pop(drop)
        else:
            raise IllegalActionError(f"unknown action {decision!r} at stage {stage}")

    reward = float(reward_grid(levels.n_bins)[best])
    delay = wake_times[stage - 1]
    waiting = delay - wake_times[0]
    eta, delta = levels.config.eta, levels.config.delta
    outcome = (delay, reward, probes, waiting - eta * reward + eta * delta * probes,
               reward - delta * probes, stage)
    return outcome, events


def _overflow_drop(levels, stage, best, types):
    """Position in ``types`` (wake order, newcomer last) of the relay the
    overflow rule drops: the newcomer, or else the first-woken relay of a
    dropped type."""
    space = levels.space
    held = space.row(tuple(sorted(types[:-1])))
    b = -1 if best is None else best  # the none row is the last column
    kept = levels.kept[stage - 1][types[-1], held, b]
    if kept == held:
        return len(types) - 1
    left = space.msets[len(types) - 1][kept]
    return next(p for p, u in enumerate(types) if types.count(u) > left.count(u))


def reference_overflow_keep(levels, stage):
    """The overflow rule state by state, as its docstring words it: the
    newcomer t is dropped unless dropping an awake member of g leaves a
    strictly smaller value; among members that tie, the one of lowest
    ``family.rank`` is dropped.  Returns kept[t, g, b] as int64 rows."""
    import numpy as np

    space, c = levels.space, levels.capacity
    level = levels.values[stage - 1][c]
    rank = levels.family.rank
    n_types = len(levels.family)
    kept = np.empty((n_types,) + level.shape, dtype=np.int64)
    for g, awake in enumerate(space.msets[c]):
        for t in range(n_types):
            for b in range(level.shape[1]):
                keep, value = g, level[g, b]  # drop the newcomer
                for x in sorted(set(awake), key=lambda u: rank[u]):
                    rest = list(awake)
                    rest.remove(x)
                    row = space.row(tuple(sorted(rest + [t])))
                    if level[row, b] < value:
                        keep, value = row, level[row, b]
                kept[t, g, b] = keep
    return kept


# ---------------------------------------------------------------------------
# the complete-class kernels, one target and one dense level at a time
# ---------------------------------------------------------------------------

def reference_multiset_space(n_types, max_size):
    """(msets, plus) of the multiset space, by enumeration and insertion:
    msets[s] lists the sorted size-s multisets as tuples and plus[s][t, g] is
    the row of msets[s][g] + (t,) among those of size s + 1."""
    from bisect import bisect_left
    from itertools import combinations_with_replacement

    import numpy as np

    msets = [list(combinations_with_replacement(range(n_types), s))
             for s in range(max_size + 1)]
    index = [{g: i for i, g in enumerate(level)} for level in msets]
    plus = []
    for s in range(max_size):
        dst = np.empty((n_types, len(msets[s])), dtype=np.intp)
        for t in range(n_types):
            for gi, g in enumerate(msets[s]):
                pos = bisect_left(g, t)
                dst[t, gi] = index[s + 1][g[:pos] + (t,) + g[pos:]]
        plus.append(dst)
    return msets, plus


def reference_probe_costs(smaller, family, surcharge, space, s):
    """Probe cost and target of every size-s state, one target at a time:
    each target's expectation runs over the whole ``smaller`` level (values
    over the real bins) and is scattered to the size-s sets holding it, the
    targets taken from the stochastically largest down and a later one
    winning only with a strictly smaller cost."""
    import numpy as np

    from relaymdp._kernels import expect_over_max

    probe = np.full((len(space.msets[s]), family.n_bins + 1), np.inf)
    target = np.full(probe.shape, -1, dtype=np.int16)
    for t in family.order:
        cost = surcharge + expect_over_max(smaller, family.pmf_matrix[t], family.cdf_matrix[t])
        src = space.plus[s - 1][t]
        current = probe[src]
        better = cost < current
        probe[src] = np.where(better, cost, current)
        target[src] = np.where(better, t, target[src])
    return probe, target


# ---------------------------------------------------------------------------
# the exact forward sweep, every level one dense array
# ---------------------------------------------------------------------------

def reference_components(tables):
    """Forward probability sweep under a solved policy of any capacity, with
    every level held as one dense (sets, n_bins + 1) array and every probe
    move gathered per target type over the whole level: the ground truth of
    ``experiments.complete_components``.

    Mass moves over (stage, multiset, best reward) as the action tables say;
    a continue from the full capacity goes where the overflow rule keeps it.
    Only the masses of the current and the next stage are alive at a time.
    """
    import numpy as np

    from relaymdp._kernels import CONTINUE, PROBE, STOP
    from relaymdp.dp_complete import BATCH_ELEMENTS
    from relaymdp.experiments import _components
    from relaymdp.model import reward_grid

    config = tables.config
    family = tables.family
    space = tables.space
    n_bins = tables.n_bins
    none = tables.n_bins
    n_loc = len(family)
    n_stages = tables.n_stages
    capacity = tables.capacity
    grid = reward_grid(n_bins)
    pmf, cdf = family.pmf_matrix, family.cdf_matrix

    def level(masses: dict, s: int) -> np.ndarray:
        if s not in masses:
            masses[s] = np.zeros((len(space.members[s]), n_bins + 1))
        return masses[s]

    current = {}
    level(current, 1)[:, none] = 1.0 / n_loc  # msets of size 1 are ordered by type

    reward = probes = waits = stopped = 0.0
    for k in range(1, n_stages + 1):
        following = {}
        for s in range(min(k, capacity), -1, -1):
            m = current.pop(s, None)
            if m is None:
                continue
            # a level of one column, the none row alone, broadcasts its
            # actions over bins where no mass ever arrives
            act = tables.actions[k - 1][s]
            # the probed type of each probe code, -1 elsewhere
            tgt = np.where(act >= PROBE, act.astype(np.intp) - PROBE, -1)

            stopping = m * (act == STOP)
            reward += float(stopping[:, :n_bins].sum(axis=0) @ grid)
            stopped += float(stopping.sum())
            del stopping

            if s >= 1:
                # probing t from the set of row plus[s-1][t][f] leaves row f
                out = level(current, s - 1)
                per_call = max(1, BATCH_ELEMENTS // out.size)
                for first in range(0, n_loc, per_call):
                    types = np.arange(first, min(first + per_call, n_loc))
                    src = space.plus[s - 1][first:first + per_call]
                    w = m[src] * (tgt[src] == types[:, None, None])
                    if not w.any():
                        continue
                    probes += float(w.sum())
                    # prefix[..., j]: the probing mass at the none row and below bin j
                    below = np.cumsum(w[..., :n_bins - 1], axis=-1)
                    prefix = w[..., none, None] + np.concatenate(
                        [np.zeros(w.shape[:-1] + (1,)), below], axis=-1
                    )
                    out[:, :n_bins] += (
                        w[..., :n_bins] * cdf[types, None] + pmf[types, None] * prefix
                    ).sum(axis=0)

            if k < n_stages:
                cw = m * (act == CONTINUE)
                total = float(cw.sum())
                if total > 0.0:
                    waits += total
                    cw /= n_loc
                    if s == capacity:  # one relay is dropped, as the overflow rule says
                        out = level(following, s)
                        # one newcomer type at a time, which keeps the
                        # temporaries small; np.add.at adds in the order of a
                        # single pass over every (type, row, bin)
                        bins = np.arange(n_bins + 1)
                        for kept in tables.kept[k]:
                            np.add.at(out.reshape(-1), (kept * np.intp(n_bins + 1) + bins).ravel(),
                                      cw.ravel())
                    else:
                        out = level(following, s + 1)
                        for t in range(n_loc):
                            out[space.plus[s][t]] += cw
        current = following

    return _components(waits, reward, probes, stopped, config)



# ---------------------------------------------------------------------------
# the location family, one location at a time
# ---------------------------------------------------------------------------

def reference_family(grid, config):
    """The ordered family built location by location: each location's scale
    and quantized pmf on its own, then every adjacent pair of the dominance
    order compared by a pointwise CDF test.  The ground truth of
    ``model.build_ordered_family``."""
    import numpy as np

    from relaymdp.model import ORDER_TOL, OrderedFamily, TotalOrderError, reward_grid, reward_scale

    n_bins = config.n_reward_bins
    values = reward_grid(n_bins)
    scales = [reward_scale(p, config) for p in grid.points]
    r_max = max(scales) * (-math.log(config.tail_mass)) ** (1.0 - config.a)
    pmfs = []
    for (z, _), scale in zip(grid.points, scales):
        pmf = np.zeros(n_bins)
        if config.a == 1.0:
            pmf[min(n_bins - 1, int(round(np.clip(z / r_max, 0.0, 1.0) * (n_bins - 1))))] = 1.0
        elif scale == 0.0:
            pmf[0] = 1.0
        else:
            edges = np.empty(n_bins + 1)
            edges[0] = 0.0
            edges[1:n_bins] = 0.5 * (values[:-1] + values[1:])
            edges[n_bins] = np.inf
            with np.errstate(over="ignore"):
                cdf = 1.0 - np.exp(-np.power(edges * r_max / scale, 1.0 / (1.0 - config.a)))
            pmf = np.diff(np.where(np.isinf(edges), 1.0, cdf))
        pmfs.append(pmf)
    cdfs = [np.cumsum(pmf) for pmf in pmfs]
    cdf_matrix = np.vstack(cdfs)
    order = np.lexsort((-np.array(scales), cdf_matrix.sum(axis=1)))
    for i, j in zip(order[:-1], order[1:]):
        if not (np.all(cdfs[i] <= cdfs[j] + ORDER_TOL) or np.all(cdfs[j] <= cdfs[i] + ORDER_TOL)):
            raise TotalOrderError(f"distributions {i} and {j} have crossing CDFs")
    return OrderedFamily(scales=np.array(scales), pmf_matrix=np.vstack(pmfs),
                         cdf_matrix=cdf_matrix, order=order, r_max=r_max)


# ---------------------------------------------------------------------------
# state counts and ranked members, by enumeration
# ---------------------------------------------------------------------------

def reference_states_per_stage(n_types, n_bins, n_stages, capacity):
    """Memo entries per stage k, summed over every multiset size 0..min(k, c)
    with its stars-and-bars count: a size-k level at stage k above capacity 1
    holds its none row alone."""
    capacity = min(capacity, n_stages)
    return [
        sum(math.comb(n_types + s - 1, s) * (1 if s == k and capacity >= 2 else n_bins + 1)
            for s in range(min(k, capacity) + 1))
        for k in range(1, n_stages + 1)
    ]


def reference_ranked_members(space, s, rank):
    """(types, rests) of the size-s sets, with rests read from a full
    (n_types, n_multisets(s)) table of the row of each set less one type."""
    import numpy as np

    members = space.members[s]
    order = np.argsort(np.asarray(rank)[members], axis=1, kind="stable")
    types = np.take_along_axis(members, order, axis=1)
    without = np.zeros((space.n_types, len(members)),
                       dtype=np.min_scalar_type(len(space.members[s - 1])))
    joined = space.plus[s - 1]  # [t, f]: row of f + t
    without[np.arange(space.n_types)[:, None], joined] = np.arange(joined.shape[1])
    return types, without[types, np.arange(len(members))[:, None]]


# ---------------------------------------------------------------------------
# threshold sets, one set at a time
# ---------------------------------------------------------------------------

def reference_thresholds(levels):
    """The stopping and probing sets of capacity-1 levels, read one set at a
    time: stage by stage, S_k and then S_k^0 .. S_k^{L-1}, each checked as an
    up-set of the real bins.  Returns a dict of the ``ThresholdSummary``
    arrays, or raises NonThresholdSetError at the first set that is not an
    up-set, naming its members."""
    import numpy as np

    from relaymdp._kernels import CONTINUE, PROBE, STOP
    from relaymdp.dp_restricted import NonThresholdSetError

    def least_member(mask, label):
        members = np.flatnonzero(mask)
        if members.size == 0:
            return len(mask)
        if not mask[members[0]:].all():
            raise NonThresholdSetError(f"{label} is not an up-set: members {members.tolist()}")
        return int(members[0])

    n_bins, n_loc = levels.n_bins, len(levels.family)
    n_dec = max(levels.n_stages - 1, 0)
    out = {"x": [], "x_l": [], "y_l": [], "s_flags": [], "s_l_flags": [], "q_flags": [],
           "p_flags": []}
    for i in range(n_dec):
        bare = levels.actions[i][0][0, :n_bins]
        held = levels.actions[i][1][:, :n_bins]  # (location, bin)
        out["x"].append(least_member(bare == STOP, f"S_{i + 1}"))
        out["x_l"].append([least_member(held[l] == STOP, f"S_{i + 1}^{l}")
                           for l in range(n_loc)])
        probing = [np.flatnonzero(held[l] >= PROBE) for l in range(n_loc)]
        out["y_l"].append([int(p[-1]) if p.size else -1 for p in probing])
        out["s_flags"].append(bare == STOP)
        out["s_l_flags"].append((held == STOP).T)
        out["q_flags"].append((held != CONTINUE).T)
        out["p_flags"].append((held >= PROBE).T)
    shapes = {"x": (n_dec,), "x_l": (n_dec, n_loc), "y_l": (n_dec, n_loc),
              "s_flags": (n_dec, n_bins)}
    return {key: np.array(value, dtype=int if key in ("x", "x_l", "y_l") else bool)
            .reshape(shapes.get(key, (n_dec, n_bins, n_loc)))
            for key, value in out.items()}

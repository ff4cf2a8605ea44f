"""Independent brute-force oracles for the solver test suites.

Two layers, deliberately separate from the production code paths:

* ``*_tree_value``: plain recursive expectimax over the raw history tree in
  pure Python floats, with no tables, no memoization and no vectorization.
  Minimizing action-by-action over the finite tree enumerates the optimum
  over every (history-dependent) policy.
* ``enumerate_*_policies``: literal enumeration of all deterministic policies
  on instances small enough, evaluating each policy's expected cost by
  recursion.  Used to cross-validate the tree recursion itself.
"""
from __future__ import annotations

import math
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

def restricted_tree_value(toy: Toy) -> float:
    """Optimal expected cost from the first wake-up, by raw tree recursion."""

    def holding(k, b, l):
        # state (b, F_l): stop / probe / continue
        costs = []
        if b is not None:
            costs.append(-toy.eta * toy.grid[b])
        probe = toy.eta * toy.delta
        for r, p in enumerate(toy.pmfs[l]):
            if p:
                probe += p * bare(k, r if b is None else max(b, r))
        costs.append(probe)
        if k < toy.n_relays:
            total = 0.0
            for u in range(toy.n_loc):
                total += min(holding(k + 1, b, l), holding(k + 1, b, u))
            costs.append(toy.tau + total / toy.n_loc)
        return min(costs)

    def bare(k, b):
        # just probed: the only awake relay is the best probed one
        stop = -toy.eta * toy.grid[b]
        if k == toy.n_relays:
            return stop
        total = 0.0
        for u in range(toy.n_loc):
            total += holding(k + 1, b, u)
        return min(stop, toy.tau + total / toy.n_loc)

    return sum(holding(1, None, l) for l in range(toy.n_loc)) / toy.n_loc


def restricted_tree_state_value(toy: Toy, k, b, l) -> float:
    """Tree value of one holding state (for table spot checks)."""

    def holding(k_, b_, l_):
        costs = []
        if b_ is not None:
            costs.append(-toy.eta * toy.grid[b_])
        probe = toy.eta * toy.delta
        for r, p in enumerate(toy.pmfs[l_]):
            if p:
                probe += p * bare(k_, r if b_ is None else max(b_, r))
        costs.append(probe)
        if k_ < toy.n_relays:
            total = 0.0
            for u in range(toy.n_loc):
                total += min(holding(k_ + 1, b_, l_), holding(k_ + 1, b_, u))
            costs.append(toy.tau + total / toy.n_loc)
        return min(costs)

    def bare(k_, b_):
        stop = -toy.eta * toy.grid[b_]
        if k_ == toy.n_relays:
            return stop
        total = 0.0
        for u in range(toy.n_loc):
            total += holding(k_ + 1, b_, u)
        return min(stop, toy.tau + total / toy.n_loc)

    return holding(k, b, l)


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

def complete_tree_value(toy: Toy) -> float:
    """Optimal complete-class expected cost by raw tree recursion."""

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
        if not costs:
            return math.inf
        return min(costs)

    return sum(value(1, None, (l,)) for l in range(toy.n_loc)) / toy.n_loc


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


def complete_memo_value(toy: Toy) -> float:
    """Reference complete-class solver: top-down memoized recursion in pure
    Python.  Independent of the production solver's bottom-up tables and
    precomputed multiset index maps; feasible at mid scale, unlike the raw
    tree recursion."""
    from functools import lru_cache

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
            acc = 0.0
            for u in range(toy.n_loc):
                acc += value(k + 1, b, tuple(sorted(mset + (u,))))
            costs.append(toy.tau + acc / toy.n_loc)
        return min(costs) if costs else math.inf

    return sum(value(1, None, (l,)) for l in range(toy.n_loc)) / toy.n_loc


def complete_memo_state_values(toy: Toy, states):
    """Reference values for chosen (stage, best, multiset) states."""
    from functools import lru_cache

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
            acc = 0.0
            for u in range(toy.n_loc):
                acc += value(k + 1, b, tuple(sorted(mset + (u,))))
            costs.append(toy.tau + acc / toy.n_loc)
        return min(costs) if costs else math.inf

    return [value(k, b, tuple(sorted(g))) for k, b, g in states]


def restricted_tree_sets(toy: Toy, tol: float = 1e-12):
    """Stopping/probing sets derived from the raw tree recursion.

    Returns per-stage boolean masks over the real reward bins for S_k, S_k^l
    and Q_k^l (stages 1..N-1), using the same tie convention as the solver
    (ties within ``tol`` count as stopping / as probe-or-stop).
    """

    def holding(k, b, l):
        return min(holding_costs(k, b, l))

    def holding_costs(k, b, l):
        costs = []
        if b is not None:
            costs.append(-toy.eta * toy.grid[b])
        probe = toy.eta * toy.delta
        for r, p in enumerate(toy.pmfs[l]):
            if p:
                probe += p * bare(k, r if b is None else max(b, r))
        costs.append(probe)
        if k < toy.n_relays:
            costs.append(cont_holding(k, b, l))
        return costs

    def cont_holding(k, b, l):
        total = 0.0
        for u in range(toy.n_loc):
            total += min(holding(k + 1, b, l), holding(k + 1, b, u))
        return toy.tau + total / toy.n_loc

    def cont_bare(k, b):
        total = 0.0
        for u in range(toy.n_loc):
            total += holding(k + 1, b, u)
        return toy.tau + total / toy.n_loc

    def bare(k, b):
        stop = -toy.eta * toy.grid[b]
        if k == toy.n_relays:
            return stop
        return min(stop, cont_bare(k, b))

    def probe_cost(k, b, l):
        total = toy.eta * toy.delta
        for r, p in enumerate(toy.pmfs[l]):
            if p:
                total += p * bare(k, r if b is None else max(b, r))
        return total

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
    value of the set left behind."""
    family, space, config = tables.family, tables.space, tables.config
    n_bins = tables.n_bins
    count = 0
    for k in range(1, tables.n_stages + 1):
        for s in range(1, k + 1):
            smaller = tables.values[k - 1][s - 1]
            for g, mset in enumerate(space.msets[s]):
                # action code 1 is PROBE
                probing = [b for b in range(n_bins + 1) if tables.actions[k - 1][s][g, b] == 1]
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
    from relaymdp import Action, IllegalActionError, act_complete
    from relaymdp.model import reward_grid

    locations = block.locations[index].tolist()
    bins = block.reward_bins[index].tolist()
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
    b = levels.none_index if best is None else best
    kept = levels.overflow_keep(stage)[types[-1], held, b]
    if kept == held:
        return len(types) - 1
    left = space.msets[len(types) - 1][kept]
    return next(p for p, u in enumerate(types) if types.count(u) > left.count(u))


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

"""The action codes: their dtype, their decoding, the one legality rule, the
one tie rule at exact ties, the one batch rule, and the dead bins of the
probe kernel."""
from fractions import Fraction

import numpy as np
import pytest

from relaymdp._kernels import (CONTINUE, NO_ACTION, PROBE, STOP, STRUCTURE_TOL, TIE_TOL, Action,
                               Decision, action_dtype, dead_bins, decision_of, excess_bound,
                               illegal_action, legal_actions, resolve_actions, row_batches)
from relaymdp.model import reward_grid


@pytest.mark.parametrize("n_types,dtype", [
    (1, np.int8), (126, np.int8), (127, np.int16), (32_766, np.int16), (32_767, np.int32),
    (2 ** 31 - 2, np.int32), (2 ** 31 - 1, np.int64),
])
def test_action_dtype_is_the_smallest_that_holds_every_code(n_types, dtype):
    assert action_dtype(n_types) == dtype
    assert PROBE + n_types - 1 <= np.iinfo(dtype).max
    if dtype is not np.int8:
        smaller = np.dtype(dtype).itemsize // 2
        assert PROBE + n_types - 1 > np.iinfo(f"i{smaller}").max


def test_codes_decode_to_decisions():
    assert decision_of(np.int8(STOP)) == Decision(Action.STOP)
    assert decision_of(np.int8(CONTINUE)) == Decision(Action.CONTINUE)
    assert decision_of(np.int8(PROBE)) == Decision(Action.PROBE, 0)
    assert decision_of(np.int32(PROBE + 40_000)) == Decision(Action.PROBE, 40_000)
    for code in (NO_ACTION, -2, -128):
        assert decision_of(np.int8(code)) is None


def test_legality_rule():
    # stop needs a real bin, a probe an awake relay of its type, a continue a
    # later stage; no negative code is ever legal
    code = np.array([STOP, STOP, PROBE + 3, PROBE + 3, CONTINUE, NO_ACTION, -5, -128],
                    dtype=np.int8)
    held = np.array([True, True, True, False, True, True, True, True])
    probed = np.array([True, False, True, True, True, True, True, True])
    before = [True, False, True, False, True, False, False, False]
    assert legal_actions(code, held, probed, last=False).tolist() == before
    assert legal_actions(code, held, probed, last=True).tolist() == before[:4] + [False] * 4


@pytest.mark.parametrize("code,message", [
    (np.int8(STOP), "stop with nothing probed (here)"),
    (np.int8(CONTINUE), "continue at the last stage (here)"),
    (np.int32(PROBE + 40_000), "probe target type 40000 not awake (here)"),
    (np.int8(NO_ACTION), "no legal action (code -1) (here)"),
])
def test_illegal_action_names_the_action(code, message):
    assert str(illegal_action(code, "(here)")) == message


@pytest.mark.parametrize("costs,code", [
    # (stop, probe, continue): stop > probe > continue at exact ties
    ((0.25, 0.25, 0.25), STOP),
    ((0.5, 0.25, 0.25), PROBE + 3),
    ((0.5, 0.25 + TIE_TOL / 2, 0.25), PROBE + 3),
    ((0.5, 0.25 + 2 * TIE_TOL, 0.25), CONTINUE),
    ((np.inf, np.inf, np.inf), NO_ACTION),
], ids=["all-equal", "probe-equals-continue", "probe-within-tol", "probe-past-tol", "none"])
def test_tie_rule(costs, code):
    stop, probe, cont = (np.array([c]) for c in costs)
    act = resolve_actions(stop, probe, np.array([PROBE + 3], dtype=np.int8), cont)
    assert act.tolist() == [code]


@pytest.mark.parametrize("n_rows,row_entries,budget", [
    # the last: nothing for no rows
    (10, 3, 9), (10, 3, 10), (10, 3, 2), (1, 5, 100), (7, 1, 7), (7, 1, 6), (0, 4, 100),
])
def test_row_batches_cover_every_row_once_within_the_budget(n_rows, row_entries, budget):
    batches = [range(n_rows)[rows] for rows in row_batches(n_rows, row_entries, budget)]
    assert [row for batch in batches for row in batch] == list(range(n_rows))
    for batch in batches:
        assert len(batch) >= 1
        assert len(batch) * row_entries <= budget or len(batch) == 1
    for batch in batches[:-1]:  # as many rows as fit
        assert (len(batch) + 1) * row_entries > budget


def exact_excess(pmf, grid):
    """E[(X_t - r_b)^+] of every type and real bin, in exact rationals of
    the floats given."""
    pmf = [[Fraction(p) for p in row] for row in pmf.tolist()]
    grid = [Fraction(r) for r in grid.tolist()]
    return [[sum(p * (r - grid[b]) for p, r in zip(row[b + 1:], grid[b + 1:]))
             for b in range(len(grid))] for row in pmf]


class TestDeadBins:
    """A type is dead at bin b when eta (delta - E[(X_t - r_b)^+]) exceeds
    STRUCTURE_TOL * scale, and dead from the first bin from which it is dead
    at every bin up."""

    @staticmethod
    def random_pmf(rng, n_types, n_bins):
        pmf = rng.random((n_types, n_bins)) * (rng.random((n_types, n_bins)) < 0.7)
        pmf[:, 0] += 1e-3  # no empty row
        return pmf / pmf.sum(axis=1, keepdims=True)

    @staticmethod
    def exact_from(excess, eta, delta, scale, slack=Fraction(0)):
        """The first bin from which the exact margin, widened by ``slack``
        of itself, holds at every bin up, of each type."""
        margin = Fraction(STRUCTURE_TOL) * Fraction(scale) * (1 + slack)
        first = []
        for row in excess:
            b = len(row)
            while b and Fraction(eta) * (Fraction(delta) - row[b - 1]) > margin:
                b -= 1
            first.append(b)
        return first

    @pytest.mark.parametrize("seed", range(6))
    def test_never_dead_where_the_exact_margin_fails(self, seed):
        rng = np.random.default_rng(seed)
        n_types, n_bins = 5, int(rng.integers(3, 30))
        pmf, grid = self.random_pmf(rng, n_types, n_bins), reward_grid(n_bins)
        excess = exact_excess(pmf, grid)
        bound = excess_bound(pmf, grid)
        for eta in (0.5, 3.0, 1e3):
            scale = max(1.0, eta)
            margin = Fraction(STRUCTURE_TOL) * Fraction(scale)
            # a delta that puts a (type, bin) on the margin, and its float
            # neighbours, beside deltas far from it
            t, b = int(rng.integers(n_types)), int(rng.integers(n_bins))
            edge = float(excess[t][b] + margin / Fraction(eta))
            deltas = [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0), 0.05, 0.3]
            for delta in deltas:
                got = dead_bins(bound, eta, delta, scale)
                assert got.dtype == np.min_scalar_type(n_bins)
                want = self.exact_from(excess, eta, delta, scale)
                # no earlier than the exact rule, and no later than it with
                # a margin widened by 1e-4 of itself, above the round-off
                # allowance of (n_bins + 4) eps (eta (1 + delta) + margin)
                assert (got >= want).all(), (eta, delta)
                loose = self.exact_from(excess, eta, delta, scale, Fraction(1, 10 ** 4))
                assert (got <= loose).all(), (eta, delta)
                for row, first in zip(excess, got.tolist()):
                    assert all(Fraction(eta) * (Fraction(delta) - e) > margin
                               for e in row[first:])

    def test_monotone_in_the_bin_and_in_delta(self):
        rng = np.random.default_rng(7)
        pmf, grid = self.random_pmf(rng, 6, 40), reward_grid(40)
        bound = excess_bound(pmf, grid)
        # a type dead at a bin is dead at every bin above (the first test),
        # and a dearer probe kills it no later
        firsts = [dead_bins(bound, 10.0, delta, 10.0) for delta in (0.01, 0.05, 0.1, 0.5)]
        for before, after in zip(firsts, firsts[1:]):
            assert (after <= before).all()
        assert (firsts[-1] < 40).any()

    @pytest.mark.parametrize("eta,delta", [(10.0, 0.0), (0.0, 0.5), (0.0, 0.0)])
    def test_nothing_dead_at_free_probes(self, eta, delta):
        rng = np.random.default_rng(3)
        pmf, grid = self.random_pmf(rng, 4, 25), reward_grid(25)
        assert dead_bins(excess_bound(pmf, grid), eta, delta, 10.0).tolist() == [25] * 4

    def test_bound_holds_the_exact_excess(self):
        rng = np.random.default_rng(5)
        pmf, grid = self.random_pmf(rng, 4, 30), reward_grid(30)
        bound = excess_bound(pmf, grid)
        for t, row in enumerate(exact_excess(pmf, grid)):
            assert all(Fraction(bound[b, t]) >= e for b, e in enumerate(row))

"""The action codes: their dtype, their decoding, the one legality rule, the
one tie rule at exact ties, and the one batch rule."""
import numpy as np
import pytest

from relaymdp._kernels import (CONTINUE, NO_ACTION, PROBE, STOP, TIE_TOL, Action, Decision,
                               action_dtype, decision_of, illegal_action, legal_actions,
                               resolve_actions, row_batches)


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

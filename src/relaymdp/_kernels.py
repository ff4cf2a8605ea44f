"""Actions, the tie rule and the numeric kernels shared by both policy classes."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

# Tie resolution between actions uses the pure-arithmetic 1e-12.
TIE_TOL = 1e-12
# Inequalities that accumulate expectation round-off are checked at 1e-9.
STRUCTURE_TOL = 1e-9

# Action codes, one per state in one table per level: STOP, CONTINUE, or
# PROBE + t to probe an unprobed relay of location type t; NO_ACTION where
# nothing is legal.
NO_ACTION, STOP, CONTINUE, PROBE = -1, 0, 1, 2


class Action(str, Enum):
    STOP = "stop"
    PROBE = "probe"
    CONTINUE = "continue"


@dataclass(frozen=True)
class Decision:
    """A policy's answer in one state: the action and, for a probe, the
    location type of the relay to probe."""

    kind: Action
    probe_target: Optional[int] = None


def action_dtype(n_types: int) -> np.dtype:
    """The smallest signed dtype that holds PROBE + n_types - 1, the largest
    code over ``n_types`` types: int8 up to 126 types, int16 up to 32,766."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                if PROBE + n_types - 1 <= np.iinfo(t).max)


def decision_of(code: int) -> Optional[Decision]:
    """The decision of an action code; None for NO_ACTION and every other
    negative code."""
    code = int(code)
    if code >= PROBE:
        return Decision(Action.PROBE, code - PROBE)
    return {STOP: Decision(Action.STOP), CONTINUE: Decision(Action.CONTINUE)}.get(code)


class IllegalActionError(RuntimeError):
    """An action was requested (or forced) in a state that forbids it."""


def legal_actions(code: np.ndarray, held: np.ndarray, probed: np.ndarray,
                  last: bool) -> np.ndarray:
    """The one legality rule: a stop only at a real bin (``probed``), a probe
    only if the state holds an awake relay of the type code - PROBE
    (``held``), a continue only before the last stage; no negative code."""
    legal = ((code == STOP) & probed) | ((code >= PROBE) & held)
    # not ``& (not last)``: an array & a Python bool takes numpy's slow path
    return legal if last else legal | (code == CONTINUE)


def illegal_action(code: int, state: str) -> IllegalActionError:
    """The error for action ``code`` taken in a state that forbids it,
    ``state`` naming that state in words."""
    if code == STOP:
        return IllegalActionError(f"stop with nothing probed {state}")
    if code >= PROBE:
        return IllegalActionError(f"probe target type {code - PROBE} not awake {state}")
    if code == CONTINUE:
        return IllegalActionError(f"continue at the last stage {state}")
    return IllegalActionError(f"no legal action (code {code}) {state}")


def resolve_actions(stop, probe, probe_code, cont) -> np.ndarray:
    """The optimal action code for every state, from its three action costs
    and the code of its best probe (NO_ACTION where none is available).

    The single tie rule of both policy classes, following the set definitions
    of the stopping and probing sets: stop iff ``stop <= min(probe, cont) +
    TIE_TOL``; otherwise probe iff ``probe <= cont + TIE_TOL``; otherwise
    continue.  An action that is unavailable costs +inf, and a state where all
    three are +inf gets NO_ACTION.  Arguments broadcast against each other;
    the table takes the dtype of ``probe_code``.
    """
    shape = np.broadcast_shapes(*map(np.shape, (stop, probe, probe_code, cont)))
    act = np.full(shape, CONTINUE, dtype=probe_code.dtype)
    np.copyto(act, probe_code, where=probe <= cont + TIE_TOL)
    np.copyto(act, STOP, where=stop <= np.minimum(probe, cont) + TIE_TOL)
    np.copyto(act, NO_ACTION, where=np.isposinf(stop) & np.isposinf(probe) & np.isposinf(cont))
    return act


def row_batches(n_rows: int, row_entries: int, budget: int):
    """Slices of ``n_rows`` rows of ``row_entries`` entries each, in order:
    each holds as many rows as fit ``budget`` entries, and at least one."""
    step = max(1, budget // row_entries)
    return (slice(first, first + step) for first in range(0, n_rows, step))


def excess_bound(pmf: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """An upper bound, round-off included, on E[(X_t - r_b)^+] of every type
    t at every real bin b: (n_bins, n_types), bins leading.

    The expectation is S1[b+1] - r_b S0[b+1], where S0[b] and S1[b] are the
    sums of the pmf and of pmf * r over the bins from b up, each added from
    the top bin down by ``np.cumsum``.  Each sum of k nonnegative terms is off
    by at most about k u of itself (u the unit round-off), so adding (n_bins
    + 4) eps times S1[b+1] + r_b S0[b+1] bounds the exact value from above.
    """
    n_bins = pmf.shape[1]
    above = np.zeros((2, n_bins) + pmf.shape[:1])  # the sums over the bins above b
    terms = np.stack([pmf.T, pmf.T * grid[:, None]])
    np.cumsum(terms[:, :0:-1], axis=1, out=above[:, -2::-1])
    first, mass = above[1], above[0] * grid[:, None]
    return (first - mass) + (n_bins + 4) * np.finfo(float).eps * (first + mass)


def dead_bins(bound: np.ndarray, eta: float, delta: float, scale: float) -> np.ndarray:
    """The first real bin from which each type is dead, n_bins where none is,
    in the smallest unsigned dtype that holds n_bins; ``bound`` is
    ``excess_bound``.

    A probe costs eta * delta, so by Weitzman's rule an awake relay of type t
    is never worth probing at best reward r_b once E[(X_t - r_b)^+] <= delta.
    Type t is dead at bin b when eta * (delta - E[(X_t - r_b)^+]) exceeds the
    margin STRUCTURE_TOL * ``scale`` (the magnitude of the values, max(1,
    eta, N tau)), and dead from bin b when it is dead at every bin from b up.
    The test is bound < delta (1 - c) - (margin / eta) (1 + c), c the bound's
    relative slack, which holds only where the exact inequality does: no
    type is called dead where the exact margin fails.  Nothing is dead at
    eta 0, where probing is free.
    """
    n_bins, n_types = bound.shape
    dtype = np.min_scalar_type(n_bins)
    if not eta > 0:
        return np.full(n_types, n_bins, dtype=dtype)
    slack = (n_bins + 4) * np.finfo(float).eps
    threshold = delta * (1 - slack) - STRUCTURE_TOL * scale / eta * (1 + slack)
    # one past the last live bin of each type
    return ((bound >= threshold) * np.arange(1, n_bins + 1)[:, None]).max(axis=0).astype(dtype)


def expect_over_max(values: np.ndarray, pmf: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """E_R[ V(max{b, R}) ] for every best-reward state b, including "none".

    ``values`` holds V over the real reward bins along the last axis (length
    n_bins); leading axes are batch dimensions.  Returns an array with last
    axis n_bins + 1: entry b is cdf[b] * V[b] + sum_{r > b} pmf[r] * V[r], and
    the appended entry is the unconditional expectation sum_r pmf[r] * V[r]
    (the "no reward yet" state, where max{none, R} = R).

    One summation path (a single reversed cumsum) serves every entry, so
    callers that feed identical rows get bitwise-identical results.
    """
    pv = pmf * values
    n_bins = pv.shape[-1]
    # rev[..., j] = sum_{i >= j} pmf[i] * V[i]
    rev = np.flip(np.cumsum(np.flip(pv, axis=-1), axis=-1), axis=-1)
    del pv  # at most two value-sized arrays are alive at a time
    out = np.empty(rev.shape[:-1] + (n_bins + 1,))
    np.multiply(cdf, values, out=out[..., :n_bins])
    out[..., : n_bins - 1] += rev[..., 1:]
    out[..., n_bins] = rev[..., 0]
    return out

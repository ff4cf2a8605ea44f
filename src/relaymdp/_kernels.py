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

# Action codes of the int8 action tables both solvers emit.
STOP, PROBE, CONTINUE, NO_ACTION = 0, 1, 2, -1


class Action(str, Enum):
    STOP = "stop"
    PROBE = "probe"
    CONTINUE = "continue"


ACTION_OF_CODE = {STOP: Action.STOP, PROBE: Action.PROBE, CONTINUE: Action.CONTINUE}


@dataclass(frozen=True)
class Decision:
    """A policy's answer in one state: the action and, for a probe, the
    location type of the relay to probe."""

    kind: Action
    probe_target: Optional[int] = None


class IllegalActionError(RuntimeError):
    """An action was requested (or forced) in a state that forbids it."""


def resolve_actions(stop, probe, cont) -> np.ndarray:
    """The optimal action code for every state, from its three action costs.

    The single tie rule of both policy classes, following the set definitions
    of the stopping and probing sets: stop iff ``stop <= min(probe, cont) +
    TIE_TOL``; otherwise probe iff ``probe <= cont + TIE_TOL``; otherwise
    continue.  An action that is unavailable costs +inf, and a state where all
    three are +inf gets NO_ACTION.  Arguments broadcast against each other.
    """
    shape = np.broadcast_shapes(np.shape(stop), np.shape(probe), np.shape(cont))
    act = np.full(shape, CONTINUE, dtype=np.int8)
    np.copyto(act, PROBE, where=probe <= cont + TIE_TOL)
    np.copyto(act, STOP, where=stop <= np.minimum(probe, cont) + TIE_TOL)
    np.copyto(act, NO_ACTION, where=np.isposinf(stop) & np.isposinf(probe) & np.isposinf(cont))
    return act


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

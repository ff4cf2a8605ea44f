"""Span recorder that wraps relaymdp's public functions from outside the package.

Each function is wrapped where its caller looks it up, e.g.
``relaymdp.cli.solve_complete`` or ``relaymdp.simulate.sample_episode``, so the
package's source is untouched.  Spans (name, start, end, parent, op id) are
kept in flat arrays in memory and written out once at exit; self time is
derived from them afterwards.  Allocation peaks come from a separate
``tracemalloc`` pass, because tracemalloc slows the traced code several times
over and would distort the timed spans.
"""
from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np

# calling module -> names it binds; the span is named after the defining module
WRAPPED = {
    "cli": (
        "build_forwarding_region", "build_ordered_family", "backward_induction",
        "extract_thresholds", "verify_structure", "restricted_components",
        "solve_complete", "complete_components", "verify_complete_conjectures",
        "calibrate_eta", "monte_carlo",
    ),
    "experiments": (
        "build_forwarding_region", "build_ordered_family", "backward_induction",
        "restricted_components",
    ),
    "dp_complete": ("multiset_space",),
    "simulate": ("sample_episode", "run_policy", "act", "act_complete"),
}
# these two never nest, so each may reset tracemalloc's peak on entry
ALLOC_WRAPPED = {"cli": ("solve_complete", "verify_structure")}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@contextlib.contextmanager
def _patched(package, table: dict, make_wrapper):
    """Replace each bound name by a wrapper for the duration of the block."""
    undo = []
    try:
        for module_name, names in table.items():
            module = getattr(package, module_name)
            for name in names:
                original = getattr(module, name)
                undo.append((module, name, original))
                setattr(module, name, make_wrapper(original))
        yield
    finally:
        for module, name, original in reversed(undo):
            setattr(module, name, original)


class SpanRecorder:
    """In-memory spans; ``op`` is the id shared by every span of one CLI call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self._stack: list[int] = []
        self.op = -1

    def _begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._finish(idx)

    def _wrap(self, fn):
        name = span_name(fn)
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return traced

    def installed(self, package):
        """Wrap every function in WRAPPED for the duration of the block."""
        return _patched(package, WRAPPED, self._wrap)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name over ops >= 0: calls, total seconds, self seconds."""
        a = self.arrays()
        if a["start"].size == 0:
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        keep = a["op_id"] >= 0
        out = {}
        for nid, name in enumerate(self.names):
            sel = keep & (a["name_id"] == nid)
            out[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
            }
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


class AllocPeaks:
    """Peak traced allocation (MB above the level at entry) per wrapped call."""

    def __init__(self):
        self.peak_mb: dict[str, float] = {}

    def _wrap(self, fn):
        name = span_name(fn)

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)

        return measured

    @contextlib.contextmanager
    def installed(self, package):
        tracemalloc.start()
        try:
            with _patched(package, ALLOC_WRAPPED, self._wrap):
                yield
        finally:
            tracemalloc.stop()

"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files only: at the benchmark's
call sites, and by wrapping public functions of `reupsim` in the namespace
of the module that calls them (for example `reupsim.trainer` looks up
`layer_transfer_tensor` in its own globals, so the wrapper goes there).
Each span keeps its name, start, end and the index of its parent span.
"""

from __future__ import annotations

import contextlib
import functools
import json
from time import perf_counter_ns

import numpy as np


class Tracer:
    """Records nested spans; the process is single-threaded, so one stack."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self._patches = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        """Wrap fn in a span; name is a string or a function of the call's
        arguments returning one."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextlib.contextmanager
    def patched(self, table):
        """Install wrappers for (module, attribute, span name) rows, and put
        the original functions back on exit."""
        originals = []
        try:
            for module, attr, name in table:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
            yield
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def dump(self, path) -> None:
        """Write every span as [name, start_ns, end_ns, parent] rows."""
        rows = [
            [n, s, e, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as fh:
            json.dump({"clock": "perf_counter_ns", "spans": rows}, fh)

    def phases(self) -> dict:
        """Group spans by the name of their root span.

        Returns {root name: PhaseStats} with each root span counted as one
        repetition of its phase.
        """
        n = len(self.names)
        parents = np.array(self.parents, dtype=np.int64)
        dur = (np.array(self.ends, dtype=np.int64) - np.array(self.starts, dtype=np.int64)) / 1e9
        # a span's children run one after another inside it (one thread, one
        # stack), so the part of its interval they cover is their summed length
        self_s = dur.copy()
        has_parent = parents >= 0
        np.subtract.at(self_s, parents[has_parent], dur[has_parent])
        root = np.arange(n)
        for i in range(n):
            if parents[i] >= 0:
                root[i] = root[parents[i]]
        out = {}
        for phase in sorted({self.names[i] for i in range(n) if parents[i] < 0}):
            roots = [i for i in range(n) if parents[i] < 0 and self.names[i] == phase]
            members = np.isin(root, roots)
            out[phase] = PhaseStats(
                [self.names[i] for i in np.flatnonzero(members)],
                dur[members], self_s[members], root[members], roots,
            )
        return out


class PhaseStats:
    """Per-name totals over the spans of one phase, per repetition."""

    def __init__(self, names, dur, self_s, root, roots):
        self.repeats = len(roots)
        self._dur = {}
        self._self = {}
        self._per_root = {}
        for name, d, s, r in zip(names, dur, self_s, root):
            self._dur.setdefault(name, []).append(d)
            self._self[name] = self._self.get(name, 0.0) + s
            counts = self._per_root.setdefault(name, dict.fromkeys(roots, 0))
            counts[r] += 1

    def calls(self, name: str) -> float:
        return len(self._dur.get(name, ())) / self.repeats

    def seconds(self, name: str) -> float:
        return float(np.sum(self._dur.get(name, 0.0))) / self.repeats

    def self_seconds(self, name: str) -> float:
        return self._self.get(name, 0.0) / self.repeats

    def percentile_us(self, name: str, q: float) -> float:
        d = self._dur.get(name)
        return float(np.percentile(d, q)) * 1e6 if d else 0.0

    def calls_per_repeat(self) -> dict:
        """{name: [calls in each repetition]}, to show repetitions agree."""
        return {name: list(c.values()) for name, c in self._per_root.items()}

"""Speed probe: scales a round's wall time to a fixed machine speed.

The benchmark runs on a virtual machine that shares its cores with other
jobs, and the speed of the same code there drifts by more than any useful
bound: within minutes, and by up to 2.8x within an hour.  A probe in the
same process, run during the round, sees the same drift.  PERIOD_S after
each sample a timer signal runs a fixed numpy-and-Python kernel (the same
kind of calls the program makes: a Python loop, tiny numpy ufunc calls, a
batched einsum, and 4x4 eigendecompositions) and records its wall time.
A run then reports

    solve_s = (wall time of its rounds - probe time) / rounds
              * REFERENCE_S / mean probe sample

that is, the time a round would have taken at the speed at which one
probe sample takes REFERENCE_S.  The kernel never calls reupsim, so a change
to the program moves the numerator only.
"""

from __future__ import annotations

import contextlib
import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.01
# Sets only the scale of solve_s: picked so that quartic-fit, run in a slow
# spell of a 2-vCPU Intel Xeon VM, reads the 3.3 s of plain wall time its
# rounds took there in a calm one.
REFERENCE_S = 125e-6

_rng = np.random.default_rng(0)
_T = _rng.normal(size=(3, 3, 16))
_L = _rng.normal(size=(200, 16))
_R = _rng.normal(size=(200, 3))
_H = [h + h.conj().T for h in _rng.normal(size=(2, 4, 4)) + 1j * _rng.normal(size=(2, 4, 4))]
_V = _rng.normal(size=3)


def kernel() -> None:
    d, s = {}, 0
    for k in range(300):
        s += k * k
        d[k % 50] = s
    x = _V
    for _ in range(30):
        x = np.tanh(x * 0.5 + _V)
    m = np.einsum("ija,na->nij", _T, _L)
    np.einsum("nij,nj->ni", m, _R)
    for h in _H:
        w, v = np.linalg.eigh(h)
        (v * np.exp(1j * w)) @ v.conj().T


class Clock:
    """Times the calls that produce a round's result.

    Use `with clock():` around each such call.  With probe=True the kernel
    runs PERIOD_S after each sample inside those calls, its time is taken
    out of `wall`, and `solve_s` is scaled to the reference speed; without
    it `solve_s` is the plain wall time (traced runs, whose spans the probe
    would inflate).
    """

    def __init__(self, probe: bool):
        self.probe = probe
        self.wall = 0.0  # wall time of the timed calls, probe samples excluded
        self.probe_s = 0.0
        self.samples = 0
        self._on = False

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        self.probe_s += perf_counter() - t0
        self.samples += 1
        # One-shot timer, re-armed here: a sample slowed past PERIOD_S by a
        # stall cannot be interrupted by the next one.
        if self._on:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    @contextlib.contextmanager
    def __call__(self):
        if not self.probe:
            t0 = perf_counter()
            try:
                yield
            finally:
                self.wall += perf_counter() - t0
            return
        before = signal.signal(signal.SIGALRM, self._sample)
        spent = self.probe_s
        t0 = perf_counter()
        self._on = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        try:
            yield
        finally:
            self._on = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.wall += perf_counter() - t0 - (self.probe_s - spent)
            signal.signal(signal.SIGALRM, before)

    @property
    def solve_s(self) -> float:
        if not self.samples:  # probe off, or no timed call lasted a period
            return self.wall
        return self.wall * REFERENCE_S * self.samples / self.probe_s

"""Machine-speed probe that puts timings on a fixed reference speed.

On a shared virtual machine the same code runs up to 40 % faster or
slower from one second to the next, as neighbours load the host; run
medians drift with it.  While active, the probe interrupts the timed work
every ``INTERVAL_S`` (SIGALRM, handled in the main thread between
bytecodes) and times a fixed chunk of the same kinds of work the package
does: explicit march layers on a small array, order-2 jet products and a
float loop.  A chunk of plain interpreter work alone tracks the package's
speed less well (about twice the spread across runs).  ``at_reference`` turns a
measured window into its duration at the speed where that chunk takes
``REFERENCE_CHUNK_S``: the window's time less the probe's own time,
scaled by the reference over the mean chunk time around the window.  The
chunk is the benchmark's own code, so a change to the package moves the
scaled time exactly as it moves the raw one.
"""

from __future__ import annotations

import bisect
import signal
import time
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.02
MIN_WINDOW_S = 1.0  # shorter windows borrow neighbouring samples for a steadier mean
REFERENCE_CHUNK_S = 2.0e-4

_DATUM = np.cos(np.linspace(-3.0, 3.0, 201))


@dataclass(frozen=True)
class _Jet:
    v: float
    d1: float
    d2: float

    def __add__(self, other: "_Jet") -> "_Jet":
        return _Jet(self.v + other.v, self.d1 + other.d1, self.d2 + other.d2)

    def __mul__(self, other: "_Jet") -> "_Jet":
        return _Jet(
            self.v * other.v,
            self.d1 * other.v + self.v * other.d1,
            self.d2 * other.v + 2.0 * self.d1 * other.d1 + self.v * other.d2,
        )


def chunk() -> float:
    """A frozen miniature of the package's work: march layers, jets, a float loop."""
    u, dx, dt = _DATUM, 0.03, 4e-4
    for _ in range(4):
        d2 = np.zeros_like(u)
        d2[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
        a = 0.5 * d2
        u = u + dt * (2.0 * np.maximum(a, 0.0) - np.maximum(-a, 0.0))
    x = _Jet(0.3, 1.0, 0.0)
    jet = _Jet(1.0, 0.0, 0.0)
    for _ in range(40):
        jet = jet * x + x
    total = 0.0
    for i in range(200):
        total += i * 0.5
    return total + jet.v + float(u[0])


class SpeedProbe:
    """Samples of the chunk's duration, taken while the probe is active."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        chunk()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _between(self, start: float, end: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)

    def at_reference(self, start: float, end: float) -> float:
        """Duration of [start, end] less probe time, at the reference speed."""
        i, j = self._between(start, end)
        own = end - start - sum(self.durations[i:j])
        pad = max(0.0, MIN_WINDOW_S - (end - start)) / 2.0
        i, j = self._between(start - pad, end + pad)
        if j == i:
            return own
        return own * REFERENCE_CHUNK_S * (j - i) / sum(self.durations[i:j])

"""Machine-speed reference for the time-to-solution metric.

Wall time on a shared host moves with load from outside the process: on
the 2-core machine the baseline was measured on, identical solves took
6-10 s as the host switched between a fast and a slow state.  A fixed
kernel (small-array numpy stencils driven from Python, the same mix of
interpreter and numpy work as the solver's rhs) is timed every
``INTERVAL`` seconds of solver work, between steps.  ``solve_ref`` divides
a solve's wall time by the kernel's mean time over that solve, which
cancels most of the host's speed changes.  The kernel calls nothing in
lubrisim, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

from lubrisim import timestepper

INTERVAL = 0.1   # seconds of solver work between kernel samples
_X = np.linspace(1.0, 2.0, 97)


def kernel() -> float:
    """About 2 ms of fixed work on the reference machine."""
    x = _X
    acc = 0.0
    for _ in range(150):
        p = np.concatenate(((x[2], x[1]), x, (x[-2], x[-3])))
        d1 = (p[3:-1] - p[1:-3]) * 0.5
        d3 = (p[4:] - 2.0 * p[3:-1] + 2.0 * p[1:-3] - p[:-4]) * 0.25
        acc += float((x * d1 + d3).sum())
    return acc


class Sampler:
    """Times the kernel between solver steps while installed.

    Wraps ``lubrisim.timestepper.advance``; after a step, when ``INTERVAL``
    has passed since the last sample, runs the kernel once.  ``paused`` is
    the wall time the samples took, to be taken off the solve's time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0
        self._next = 0.0
        self._inner = timestepper.advance
        clock = time.perf_counter

        def sampled(*args, **kwargs):
            result = self._inner(*args, **kwargs)
            now = clock()
            if now >= self._next:
                started = clock()
                kernel()
                done = clock()
                self.samples.append(done - started)
                self.paused += done - now
                self._next = done + INTERVAL
            return result

        timestepper.advance = sampled

    def reset(self) -> None:
        self.samples = []
        self.paused = 0.0
        self._next = 0.0

    def close(self) -> None:
        timestepper.advance = self._inner

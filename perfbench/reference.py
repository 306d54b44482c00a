"""A fixed reference computation, timed next to the workload to measure machine speed.

On a shared machine other tenants slow everything in a process by a common
factor that drifts over minutes: up to 2x between quiet and busy periods on
the 2-core machine this benchmark was written on.  The kernel mixes the
three kinds of work bosonloop does (LAPACK, memory streaming, interpreter
loops), so the ratio of a workload's time to the kernel's time stays within
a few percent through such changes, where raw times do not.  Reported times
are scaled to a machine on which the kernel takes NOMINAL_S.
"""

import time

import numpy as np

NOMINAL_S = 0.15


class Reference:
    """The kernel's data; each call runs the kernel once and returns its time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
        self.stream = rng.standard_normal(1_000_000)
        self()   # the first call initializes LAPACK and touches the pages

    def __call__(self) -> float:
        t0 = time.perf_counter()
        np.linalg.eig(self.matrix)
        for _ in range(10):
            out = self.stream * 1.5
            out += self.stream
        total = 0
        for i in range(300_000):
            total += i
        return time.perf_counter() - t0


def scale(times) -> float:
    """Factor that takes times measured alongside these kernel times to nominal.

    Contention only ever slows the kernel, and it comes in bursts that hit a
    0.15 s kernel harder than a multi-second pass, so the fastest kernel run
    is the one that reflects the machine's speed over the pass.
    """
    return NOMINAL_S / min(times)

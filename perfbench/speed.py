"""Time a section of code at a fixed nominal machine speed.

On a shared host a vCPU's speed drifts: the same single-threaded code runs up
to 50% slower for seconds to minutes at a time, and the two vCPUs drift
independently.  That drift is larger than the bounds the timed metrics need.
So while a timed section runs, a timer signal interrupts it every
``INTERVAL_S`` of its own time, and the handler times a fixed *unit* of work
on the same vCPU, within a millisecond of the code it interrupts.  The
section's time, less the time spent in the handler, times its mean relative
speed ``nominal / measured unit time`` over those samples, is its time at the
nominal speed: the work done is the integral of speed over time.

There are two units.  ``lapack_unit()`` is small dense linear algebra, what
the ordnet solvers spend their time on; it tracks their speed best.
``INTERPRETER`` is plain Python and imports nothing, so that a child
interpreter can time its own ``import ordnet`` with it.
"""

from __future__ import annotations

import signal
import time
from typing import Callable, NamedTuple

INTERVAL_S = 0.05


class Unit(NamedTuple):
    """A fixed piece of work and its time at the nominal speed.

    The nominal times are roughly the fastest each unit runs on the machine
    of the README tables (2 vCPUs, Intel Xeon KVM guest, Python 3.11,
    OpenBLAS on one thread).  They only set the scale: a timed section
    reports seconds at that speed.
    """

    run: Callable[[], object]
    nominal_s: float


def _interpreter_work() -> int:
    acc, table = 0, {}
    for i in range(4000):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 255] = i
    return len(table)


INTERPRETER = Unit(_interpreter_work, 5e-4)


def lapack_unit() -> Unit:
    """Cholesky solves, a matrix-vector product and an outer product at side 60."""
    import numpy as np
    from scipy.linalg import cho_factor, cho_solve

    rng = np.random.default_rng(60)
    a = rng.standard_normal((60, 120))
    matrix, rhs = a @ a.T, rng.standard_normal(60)

    def work() -> float:
        total = 0.0
        for _ in range(6):
            x = cho_solve(cho_factor(matrix, lower=True, check_finite=False), rhs,
                          check_finite=False)
            y = matrix[5:50, 5:50] @ x[5:50]
            total += float(np.outer(y, y)[0, 0])
        return total

    return Unit(work, 3.5e-4)


class Timed:
    """Context manager: wall time of its body, raw and at the nominal speed.

    After the body, ``raw_s`` is its wall time, ``sampler_s`` the part of it
    spent in the sampling handler, ``speed`` the mean nominal / measured unit
    time, and ``seconds`` = (``raw_s`` - ``sampler_s``) * ``speed``.
    Sections shorter than ``INTERVAL_S`` take one sample when they end.
    """

    def __init__(self, unit: Unit = INTERPRETER) -> None:
        self.unit = unit
        self.samples: list[float] = []
        self.raw_s = self.sampler_s = self.speed = self.seconds = 0.0

    def _sample(self) -> float:
        enter = time.perf_counter()
        self.unit.run()
        self.samples.append(time.perf_counter() - enter)
        return self.samples[-1]

    def _on_alarm(self, *_args) -> None:
        self.sampler_s += self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "Timed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.raw_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample()
        self.speed = sum(self.unit.nominal_s / s for s in self.samples) / len(self.samples)
        self.seconds = (self.raw_s - self.sampler_s) * self.speed

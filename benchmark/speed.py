"""Machine-speed probe: wall times rescaled to a reference speed.

The small shared hosts this benchmark runs on change their speed for
single-threaded Python by up to 2x: in phases of 10 to 30 seconds, which a
30-second run can sit inside, and in swings well under a second.  Medians
taken inside a run cannot remove that, so the benchmark times a fixed
pure-Python kernel around and during every operation and rescales the
operation's wall time by how much slower or faster than nominal the kernel
ran meanwhile:

    seconds = wall * NOMINAL_KERNEL_S / (mean kernel time: probe before,
                                         ticks during, probe after)

The probes before and after track an operation well when it is short.
During a long one, a timer signal runs the kernel once every ``TICK_S``
seconds, in this thread between two bytecodes of the program, and its time
is taken out of the operation's wall time.

A rescaled time is the operation's time on a machine that runs the kernel in
``NOMINAL_KERNEL_S``.  It moves with the program's speed and not with the
host's.  The kernel does what the library does (float arithmetic, ``math``
calls, small function calls and tuple-keyed dicts) and imports nothing from
``wand_gibbs``, so no change to the program moves it.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time
from dataclasses import dataclass

#: about the mean kernel time on the reference machine (2-vCPU Intel Xeon,
#: Python 3.11.7); it only sets the unit of a rescaled time
NOMINAL_KERNEL_S = 0.00075

#: kernel time each probe before and after an operation fills
PROBE_S = 0.012

#: interval of the timer that runs the kernel during an operation
TICK_S = 0.05

KERNEL_STEPS = 1000


def _blend(x: float, acc: float) -> float:
    return x * x / (1.0 + abs(acc))


def kernel() -> float:
    """A fixed amount of interpreter work, under a millisecond long."""
    table = {}
    acc = 0.0
    for i in range(1, KERNEL_STEPS):
        x = i * 1e-3
        value = math.exp(-x) * math.log1p(x) + _blend(x, acc)
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0.0) + value
        acc = 0.5 * acc + value
    return math.fsum(table.values()) + acc


def probe(budget: float = PROBE_S) -> tuple:
    """(kernel seconds, kernel calls) of calls that fill ``budget`` seconds."""
    calls, spent = 0, 0.0
    while spent < budget:
        start = time.perf_counter()
        kernel()
        spent += time.perf_counter() - start
        calls += 1
    return spent, calls


@dataclass
class Timing:
    """One operation: its wall time without the ticks, and that rescaled."""

    wall: float = 0.0
    seconds: float = 0.0


class SpeedProbe:
    """Times operations and rescales their wall times to nominal speed.

    The probe after one operation is the probe before the next.  Work timed
    between operations, whose aftermath may skew a probe (starting and
    reaping a child interpreter), is rescaled with ``scale_since_last``."""

    def __init__(self):
        probe()  # warm-up: the first calls run cold code paths
        self.last = probe()
        #: mean kernel time of every probe, in order
        self.probes = [self.last[0] / self.last[1]]

    @contextlib.contextmanager
    def measure(self):
        """Times the block; the yielded Timing is filled when it exits.

        The mean is taken over kernel calls, not over probes, so a long
        operation's many ticks weigh more than its two probes."""
        ticks = [0.0, 0]

        def tick(signum, frame):
            start = time.perf_counter()
            kernel()
            ticks[0] += time.perf_counter() - start
            ticks[1] += 1

        timing = Timing()
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            after = probe()
            self.probes.append(after[0] / after[1])
            spent = self.last[0] + ticks[0] + after[0]
            calls = self.last[1] + ticks[1] + after[1]
            self.last = after
            timing.wall = wall - ticks[0]
            timing.seconds = timing.wall * NOMINAL_KERNEL_S * calls / spent

    def scale_since_last(self, wall: float) -> float:
        """Rescales ``wall``, spent since the last probe, by that probe and a
        new one, which does not become the next operation's probe before."""
        now = probe()
        spent, calls = self.last[0] + now[0], self.last[1] + now[1]
        return wall * NOMINAL_KERNEL_S * calls / spent

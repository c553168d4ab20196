"""Host-speed calibration: scale measured times to one nominal host speed.

The benchmark's host is a shared VM whose speed drifts by up to 1.5x over
tens of seconds under the same program work (a fixed pure-Python loop took
from 21 to 34 ms within one 40 s window), on every CPU at once and in CPU
time as much as in wall time.  No length of run averages that out, so the
benchmark times a fixed calibration loop right before and right after every
block of program work it measures, and scales the block's time by
``NOMINAL_LOOP_S / loop time``: a time reads as it would on a host that runs
the loop in exactly :data:`NOMINAL_LOOP_S`.  Units stay absolute (s, ms,
ops/s); the raw times are printed beside them.

The loop is dictionary and integer work in the interpreter, like most of the
program's time.  Measured next to ``serve-scale`` and ``serve-dense`` chunks
over 60 s, it cut the variation of the per-chunk cost per op across 6 s
windows from 9.2% to 1.8% and from 12% to 4.5% (coefficients of
variation); a numpy loop tracked the program less well (4.4% and 6.4%).
"""

from __future__ import annotations

import statistics
import time
from array import array

clock = time.perf_counter

#: Iterations of one calibration loop: about a millisecond on a 2-CPU VM.
LOOP_ITERATIONS = 6000

#: The loop time the scaled times are stated for.
NOMINAL_LOOP_S = 1.0e-3

#: Loops in each of the two calibrations around a set-up.  A set-up is one
#: block of seconds, so its scale rests on two calibrations alone, and one
#: loop time swings by half from one run to the next.
SETUP_LOOPS = 15


def _loop() -> int:
    table = {}
    total = 0
    for i in range(LOOP_ITERATIONS):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    return total


def loop_seconds(runs: int = 3) -> float:
    """Seconds one calibration loop takes now: the median of ``runs`` runs.

    The median drops a run that an interrupt or a context switch stretched.
    """
    times = []
    for _ in range(runs):
        started = clock()
        _loop()
        times.append(clock() - started)
    return statistics.median(times)


class HostSpeed:
    """Calibrates around blocks of program work and gives each its scale.

    Call :meth:`begin` right before a timed block and :meth:`scale` right
    after it; multiply the block's measured seconds by the scale.
    """

    def __init__(self) -> None:
        #: Every calibration loop time of the run, in order.
        self.loops = array("d")
        self._before = 0.0

    def begin(self) -> None:
        self._before = loop_seconds()

    def scale(self) -> float:
        """Nominal over current host speed, for the block since :meth:`begin`."""
        after = loop_seconds()
        self.loops.extend((self._before, after))
        return NOMINAL_LOOP_S / ((self._before + after) / 2)

    def median_loop_ms(self) -> float:
        return statistics.median(self.loops) * 1e3


class SetupSpeed:
    """Calibrations before and after one cold set-up, of :data:`SETUP_LOOPS` loops each.

    Make it at the start of the process, before the program is imported;
    :attr:`spent` is the time the first calibration took, which the set-up
    time must leave out.  Measured around twelve cold set-ups of
    ``materialize`` and of ``serve-churn`` each, scaling cut the
    interquartile spread of their times from 0.28 to 0.06 and from 0.30 to
    0.16 of the median.
    """

    def __init__(self) -> None:
        started = clock()
        self.before = loop_seconds(SETUP_LOOPS)
        self.spent = clock() - started

    def scaled(self, setup_s: float) -> float:
        """``setup_s`` of the set-up that just ended, scaled to the nominal host speed."""
        after = loop_seconds(SETUP_LOOPS)
        return setup_s * NOMINAL_LOOP_S / ((self.before + after) / 2)

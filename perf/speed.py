"""Host times corrected for how fast the shared machine runs right now.

On a shared host the neighbours slow the CPU by 10–80% for spells of a
minute or more, so a raw host time measures the neighbours as much as
the code.  While a repetition runs, :class:`SpeedProbe` interrupts it
every ``INTERVAL_S`` (``SIGALRM``) and times one :func:`tick`: a fixed
piece of interpreter work — calls, attribute and dict lookups, integer
arithmetic — that allocates no object the garbage collector tracks.  A
tick runs on the same core as the workload and in the same interval,
so it slows down with it, and no change to the simulator moves it.

A phase's corrected time is its host time without the ticks inside it,
divided by the mean of those ticks (of all the repetition's ticks when
fewer than ``MIN_TICKS`` fell inside) and multiplied by
``NOMINAL_TICK_S``: the seconds the phase would take on a machine whose
tick takes exactly ``NOMINAL_TICK_S``.  The ticks cost about 2% of the
host time; they never change what the simulation computes.
"""

from __future__ import annotations

import array
import signal
import time

#: Time between two ticks, host seconds.
INTERVAL_S = 0.025

#: The tick duration corrected times are expressed against.
NOMINAL_TICK_S = 0.0005

#: Loop steps in one tick: about 0.5 ms on a 2-core Xeon VM.
TICK_STEPS = 2800

#: Fewest ticks a speed is taken from.  A repetition shorter than a
#: few intervals is topped up with ticks run after it.
MIN_TICKS = 3


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, step: int) -> int:
        self.value = (self.value * 31 + step) & 0xFFFF
        return self.value


_CELLS = [_Cell() for _ in range(64)]
_SLOT = {key: key * 37 % 64 for key in range(256)}


def tick() -> None:
    """The fixed piece of work the machine's speed is measured with."""
    cells, slot = _CELLS, _SLOT
    acc = 0
    for step in range(TICK_STEPS):
        cell = cells[slot[step & 255]]
        acc ^= cell.bump(step)
        if acc > cell.value:
            acc -= 1


class SpeedProbe:
    """Times a :func:`tick` every ``INTERVAL_S`` while in a ``with``."""

    def __init__(self) -> None:
        self.starts = array.array("d")
        self.durations = array.array("d")
        self._previous = None

    def _tick(self, *_signal) -> None:
        start = time.perf_counter()
        tick()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.durations) < MIN_TICKS:
            self._tick()

    def mean_tick(self) -> float:
        """Mean host seconds of one tick over the whole repetition."""
        return sum(self.durations) / len(self.durations)

    def corrected(self, begin: float, end: float) -> float:
        """Corrected seconds of the interval from ``begin`` to ``end``
        (``perf_counter`` readings taken while the probe was active)."""
        inside = [duration for start, duration
                  in zip(self.starts, self.durations)
                  if begin <= start < end]
        busy = sum(inside)
        tick = (busy / len(inside) if len(inside) >= MIN_TICKS
                else self.mean_tick())
        return (end - begin - busy) * NOMINAL_TICK_S / tick

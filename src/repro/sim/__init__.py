"""Discrete-event simulation kernel.

This package provides the substrate on which the PeerHood middleware runs.
The thesis' implementation used POSIX threads on real devices; here every
"thread" (inquiry loop, advertise loop, monitor loop, bridge main loop) is a
:class:`~repro.sim.process.Process` driven by a deterministic event heap, so
experiments are reproducible and can be run thousands of times per second.

The kernel is an event heap, timeouts, the :class:`AnyOf` composite,
generator processes and one FIFO :class:`Store`.  It runs each event
callback to completion, so shared state needs no lock (the §3.5 single
update phase).

Public surface::

    from repro.sim import Simulator

    sim = Simulator(seed=7)

    def worker(sim):
        yield sim.timeout(5.0)
        return "done"

    proc = sim.spawn(worker(sim), name="worker")
    sim.run()
    assert proc.value == "done"
"""

from repro.sim.events import (
    AnyOf,
    Event,
    EventAlreadyTriggered,
    SimulationError,
    Timeout,
)
from repro.sim.kernel import ScheduledCall, Simulator
from repro.sim.process import Process
from repro.sim.resources import Store
from repro.sim.rng import RandomStream

__all__ = [
    "AnyOf",
    "Event",
    "EventAlreadyTriggered",
    "Process",
    "RandomStream",
    "ScheduledCall",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
]

"""Generator-based simulation processes.

A process wraps a Python generator.  The generator yields events; the
process resumes when the yielded event triggers, receiving the event's value
(or its exception raised at the yield point).  A process is itself an event,
so processes can wait on each other and composite conditions can include
them.

The thesis' daemon threads (inquiry, advertise, monitor, bridge main loop,
HandoverThread) all map one-to-one onto processes.
"""

from __future__ import annotations

import typing

from repro.sim.events import Event, SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Process(Event):
    """A running generator inside the simulator.

    Parameters
    ----------
    sim:
        Owning simulator.
    generator:
        The generator to drive.  It may ``return`` a value, which becomes
        the process' event value.
    name:
        Label used in traces and reprs.
    """

    def __init__(self, sim: "Simulator", generator: typing.Generator,
                 name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
                " (did you forget to call the function?)")
        super().__init__(sim, name or getattr(generator, "__name__", "process"))
        self._generator = generator
        # Kick-start on the next kernel step so creation order does not
        # matter within a single simulated instant.
        bootstrap = Event(sim, f"bootstrap:{self.name}")
        bootstrap._add_callback(self._resume)
        bootstrap.succeed()

    def _resume(self, event: Event) -> None:
        if event.exception is not None:
            self._step(event.exception, throw=True)
        else:
            self._step(event._value, throw=False)

    def _step(self, payload: object, throw: bool) -> None:
        try:
            if throw:
                assert isinstance(payload, BaseException)
                target = self._generator.throw(payload)
            else:
                target = self._generator.send(payload)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as error:
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(error)
            return
        self._wait_on(target)

    def _wait_on(self, target: object) -> None:
        if not isinstance(target, Event):
            self._step(
                SimulationError(
                    f"process {self.name!r} yielded a non-event: {target!r}"),
                throw=True)
            return
        if target.sim is not self.sim:
            self._step(
                SimulationError("yielded an event from another simulator"),
                throw=True)
            return
        target._add_callback(self._resume)

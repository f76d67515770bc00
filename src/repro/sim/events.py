"""Event primitives for the simulation kernel.

Events follow the classic discrete-event model: an event is *triggered* when
a value (or failure) has been assigned to it and it has been scheduled on the
simulator's heap, and *processed* once its callbacks have run.  Processes
wait on events by yielding them; the composite :class:`AnyOf` waits for
the first of several.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class EventAlreadyTriggered(SimulationError):
    """Raised when succeed()/fail() is called on a triggered event."""


class Event:
    """A one-shot occurrence that processes can wait for.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.kernel.Simulator`.
    name:
        Optional label used in tracebacks and traces.
    """

    #: Observer events belong to the telemetry plane: they ride the heap
    #: like any other event but are excluded from ``events_processed`` so
    #: attaching a recorder never changes the wakeup figures the benches
    #: compare.  Set per-instance by ``Simulator.call_at(observer=True)``.
    observer = False

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks: list[typing.Callable[["Event"], None]] | None = []
        self._value: object = None
        self._exception: BaseException | None = None
        self._triggered = False

    @property
    def triggered(self) -> bool:
        """True once a value or failure has been assigned."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event left the heap)."""
        return self.callbacks is None

    @property
    def value(self) -> object:
        """The success value.  Raises the failure exception if failed."""
        if not self._triggered:
            raise SimulationError(f"event {self!r} has not been triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The failure exception, or None."""
        return self._exception

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.sim._schedule(self)
        return self

    def _add_callback(self, callback: typing.Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run the callback immediately so late
            # waiters observe the result instead of hanging forever.
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        label = self.name or self.__class__.__name__
        state = "processed" if self.processed else (
            "triggered" if self._triggered else "pending")
        return f"<{label} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    def __init__(self, sim: "Simulator", delay: float, value: object = None,
                 name: str = ""):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim, name or f"timeout({delay})")
        self.delay = delay
        self._triggered = True
        self._value = value
        sim._schedule(self, delay=delay)


class AnyOf(Event):
    """Triggers when the first child event triggers.

    The value is a dict mapping the already-succeeded events to their
    values, mirroring :mod:`simpy`'s condition values.  A child failure
    fails the composite; no children at all succeed it at once.
    """

    def __init__(self, sim: "Simulator", events: typing.Sequence[Event],
                 name: str = ""):
        super().__init__(sim, name)
        self.events = tuple(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("cannot mix events of two simulators")
        if not self.events:
            self.succeed(self._collect())
            return
        for event in self.events:
            event._add_callback(self._on_child)

    def _collect(self) -> dict[Event, object]:
        # Timeouts are "triggered" the moment they are created (value already
        # assigned, sitting on the heap), so membership must be judged by
        # *processed* — the event actually left the heap and fired.
        return {
            event: event._value
            for event in self.events
            if event.processed and event._exception is None
        }

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self.succeed(self._collect())

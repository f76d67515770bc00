"""The simulator: an event heap and a virtual clock.

The kernel is deliberately small: it schedules :class:`~repro.sim.events.Event`
objects at absolute virtual times, pops them in (time, sequence) order and
runs their callbacks.  Everything else — processes, resources, the radio
world, the PeerHood daemons — is built from events.
"""

from __future__ import annotations

import heapq
import typing

from repro.sim.events import AnyOf, Event, SimulationError, Timeout
from repro.sim.process import Process
from repro.sim.rng import RandomStream


class ScheduledCall:
    """Cancellable handle returned by :meth:`Simulator.call_at`.

    The underlying heap entry cannot be removed (binary heaps have no
    efficient delete), so cancellation nulls the callback and the event
    fires as a no-op.  ``cancel()`` is idempotent.
    """

    __slots__ = ("when", "_callback")

    def __init__(self, when: float,
                 callback: typing.Callable[[], None]):
        self.when = when
        self._callback = callback

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        self._callback = None

    def _fire(self, _event: Event) -> None:
        callback = self._callback
        if callback is not None:
            self._callback = None
            callback()


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the simulator's random streams.  Every component
        should draw from :meth:`rng` with its own label so that adding a new
        consumer does not perturb others (stream splitting).
    start_time:
        Initial virtual clock value (seconds).
    """

    def __init__(self, seed: int = 0, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = 0
        self._seed = seed
        self._streams: dict[str, RandomStream] = {}
        #: Events popped and run by :meth:`step` — the kernel-wakeup
        #: figure the event-driven connectivity benchmarks compare.
        #: Observer events (telemetry sampling) are excluded.
        self.events_processed = 0
        #: Observer events still sitting on the heap; maintained so
        #: :meth:`pending_real_events` stays O(1).
        self._observer_pending = 0
        #: Optional :class:`repro.obs.profile.SubsystemProfiler`.  When
        #: attached, :meth:`step` counts each event it runs under a
        #: subsystem label derived from the event name.
        self.profiler = None

    # ------------------------------------------------------------------
    # clock & scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        """Put a triggered event on the heap ``delay`` seconds from now."""
        heapq.heappush(self._heap, (self._now + delay, self._sequence, event))
        self._sequence += 1

    # ------------------------------------------------------------------
    # event factories
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create an untriggered event."""
        return Event(self, name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        """Wait for the first of ``events``."""
        return AnyOf(self, events)

    def call_at(self, when: float, callback: typing.Callable[[], None],
                name: str = "call-at", observer: bool = False) -> ScheduledCall:
        """Schedule a bare callback at absolute virtual time ``when``.

        The connectivity bus uses this to turn predicted link/quality
        crossings into kernel events.  Returns a :class:`ScheduledCall`
        whose ``cancel()`` voids the callback (the heap entry stays and
        fires as a no-op — O(1) cancellation).  ``when`` may equal the
        current time; scheduling in the past raises.

        ``observer=True`` marks the event as belonging to the telemetry
        plane: it is excluded from :attr:`events_processed` and from
        :meth:`pending_real_events`, so recorders can sample on the heap
        without perturbing the wakeup counts the benchmarks gate on.
        """
        if when < self._now:
            raise SimulationError(
                f"call_at({when}) is in the past (now={self._now})")
        handle = ScheduledCall(when, callback)
        event = Event(self, name)
        event.callbacks.append(handle._fire)
        event._triggered = True
        if observer:
            event.observer = True
            self._observer_pending += 1
        self._schedule(event, delay=when - self._now)
        return handle

    def spawn(self, generator: typing.Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # random streams
    # ------------------------------------------------------------------
    def rng(self, label: str) -> RandomStream:
        """Return the named random stream, creating it on first use.

        Streams are derived from the master seed and the label, so two
        simulators with the same seed produce identical streams regardless
        of creation order.
        """
        stream = self._streams.get(label)
        if stream is None:
            stream = RandomStream(self._seed, label)
            self._streams[label] = stream
        return stream

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process the next event on the heap."""
        if not self._heap:
            raise SimulationError("step() on an empty event heap")
        when, _seq, event = heapq.heappop(self._heap)
        if when < self._now:
            raise SimulationError(
                f"time went backwards: {when} < {self._now}")
        self._now = when
        if event.observer:
            self._observer_pending -= 1
        else:
            self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        if self.profiler is not None:
            self.profiler.count(event.name, event.observer)
        for callback in callbacks:
            callback(event)

    def pending_real_events(self) -> int:
        """Heap entries that are *not* telemetry observer events.

        Periodic samplers use this to decide whether to re-arm: once only
        observer events remain, the simulated workload has drained and a
        self-rescheduling sampler must stop or ``run(until=None)`` would
        never terminate.
        """
        return len(self._heap) - self._observer_pending

    def run(self, until: float | Event | None = None) -> object:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the heap is empty,
        * a number — run until that virtual time (the clock is advanced to
          exactly that time),
        * an :class:`Event` — run until it is processed and return its value.
        """
        if until is None:
            self._run_all()
            return None
        if isinstance(until, Event):
            return self._run_until_event(until)
        return self._run_until_time(float(until))

    def _run_all(self) -> None:
        while self._heap:
            self.step()

    def _run_until_time(self, deadline: float) -> None:
        if deadline < self._now:
            raise SimulationError(
                f"cannot run until {deadline}: clock is at {self._now}")
        while self._heap and self._heap[0][0] <= deadline:
            self.step()
        self._now = max(self._now, deadline)

    def _run_until_event(self, event: Event) -> object:
        while not event.processed:
            if not self._heap:
                raise SimulationError(
                    f"event heap empty before {event!r} triggered")
            self.step()
        return event.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator t={self._now:.3f} pending={len(self._heap)} "
                f"seed={self._seed}>")

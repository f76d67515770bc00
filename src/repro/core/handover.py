"""The HandoverThread: routing handover + service reconnection (§5.2).

Implements the Fig. 5.5 state machine:

* **State 0** — route discovery: get the device list from the daemon and
  search the connected device's address in each direct neighbour's
  neighbourhood list; store the best-quality alternative route.
* **State 1** — monitoring: sample the link quality every
  ``MONITOR_INTERVAL_S`` (1 s); a reading below the threshold (230)
  increments the low counter, a good reading resets it.  Past
  ``low_count_limit`` (3) the thread proceeds to state 2.
* **State 2** — substitution: open a bridge connection over the stored
  route carrying PH_RECONNECT, swap the transport under the application
  connection (ChangeConnection callback) and return to monitoring.

State 1 comes in two implementations, selected by
``HandoverConfig.event_driven``:

* **polling** (the paper-faithful oracle): wake every
  ``MONITOR_INTERVAL_S`` and read the quality — ``N`` monitors cost
  ``N / interval`` kernel wakeups per second whether anything moves.
* **event-driven** (default): subscribe to the connectivity bus for the
  *predicted* instant quality next reads below the threshold and sleep
  until then; once low readings are possible, sample at the same aligned
  cadence the polling loop would use.  Every reading the polling oracle
  would have acted on (a low one, or a good one that resets a non-zero
  counter) happens at the same instant with the same value, so the
  decision sequence is identical — the readings skipped are exactly the
  no-ops (good quality, counter already zero).  ``monitor_wakeups``
  counts process wake-ups in both modes; ``bench_event_handover``
  gates the ratio.

When no routing handover is possible — no candidate bridge, or the
attempts limit is exceeded — the thread falls back to **service
reconnection** (§5.2.2): find another provider of the same service, ask
the application for permission (the paper prefers notifying the user) and
open a brand-new connection to it; the application must restart its task.

§5.3's ``sending`` flag suppresses all of this while the application is
idle waiting for a migrated task's result.
"""

from __future__ import annotations

import enum
import typing

from repro.core.config import (
    MONITOR_INTERVAL_S,
    ROUTE_REFRESH_INTERVAL_S,
    HandoverConfig,
)
from repro.core.connection import PeerHoodConnection
from repro.core.errors import (
    BridgeRefusedError,
    ConnectionClosedError,
    NoRouteError,
    PeerHoodError,
    TargetNotAvailableError,
)
from repro.radio.channel import ConnectFault, OutOfRange

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.device_storage import StoredDevice
    from repro.core.library import PeerHoodLibrary

#: Permission callback for service reconnection: receives the candidate
#: provider and returns True to proceed (the paper's user prompt, §5.2.2).
ReconnectPermission = typing.Callable[["StoredDevice"], bool]

#: Callback invoked with the fresh connection after service reconnection.
ServiceReconnected = typing.Callable[[PeerHoodConnection], object]


class HandoverState(enum.Enum):
    """The Fig. 5.5 states."""

    ROUTE_DISCOVERY = 0
    MONITORING = 1
    SUBSTITUTING = 2
    STOPPED = 3


class HandoverThread:
    """Link-quality monitor and connection substituter for one connection."""

    def __init__(self, library: "PeerHoodLibrary",
                 connection: PeerHoodConnection,
                 config: HandoverConfig | None = None,
                 permission: ReconnectPermission | None = None,
                 on_service_reconnected: ServiceReconnected | None = None):
        self.library = library
        self.sim = library.sim
        self.fabric = library.fabric
        self.connection = connection
        self.config = config or library.node.config.handover
        self.permission = permission or (lambda _candidate: True)
        self.on_service_reconnected = on_service_reconnected
        self.state = HandoverState.ROUTE_DISCOVERY
        self.low_count = 0
        self.handover_attempts = 0
        self.handovers_done = 0
        self.monitor_wakeups = 0
        self.best_route: "StoredDevice | None" = None
        self._active = False
        self._process = None
        self._sleep_watch = None

    @property
    def node_id(self) -> str:
        return self.library.node_id

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "HandoverThread":
        """Spawn the monitor process."""
        if self._active:
            return self
        self._active = True
        self._process = self.sim.spawn(
            self._run(),
            name=f"handover:{self.node_id}:"
                 f"conn{self.connection.connection_id}")
        return self

    def stop(self) -> None:
        """Stop monitoring (the connection itself is left alone).

        Wakes an event-driven monitor out of its predictive sleep so the
        process exits promptly instead of waiting for a crossing that no
        longer matters.
        """
        self._active = False
        self.state = HandoverState.STOPPED
        watch = self._sleep_watch
        if watch is not None and watch.active:
            watch.cancel()  # on_cancel wakes the sleeping monitor

    # ------------------------------------------------------------------
    # the Fig. 5.5 loop
    # ------------------------------------------------------------------
    def _run(self) -> typing.Generator:
        if self.config.event_driven:
            yield from self._run_event_driven()
        else:
            yield from self._run_polling()

    def _run_polling(self) -> typing.Generator:
        """The paper's loop: one quality reading every monitor interval."""
        last_refresh = -float("inf")
        while self._active and self.connection.is_open:
            # State 0: periodically re-derive the best alternative route.
            if self.sim.now - last_refresh >= ROUTE_REFRESH_INTERVAL_S:
                self.state = HandoverState.ROUTE_DISCOVERY
                self._refresh_best_route()
                last_refresh = self.sim.now
            # State 1: monitor the link quality.
            self.state = HandoverState.MONITORING
            yield self.sim.timeout(MONITOR_INTERVAL_S)
            self.monitor_wakeups += 1
            if not self._active or not self.connection.is_open:
                break
            yield from self._take_reading()
        self.state = HandoverState.STOPPED

    #: Slack when re-aligning the reading cadence to a predicted crossing
    #: (absorbs the solver's bisection tolerance and float root error).
    _ALIGN_TOL_S = 1e-6

    def _run_event_driven(self) -> typing.Generator:
        """State-1 monitoring driven by predicted threshold crossings.

        Reading instants follow the same accumulation the polling loop
        produces (``previous iteration end + interval``); intervals in
        which the polling oracle could only have read good quality onto a
        zero counter are slept through in one bus-predicted wait.
        """
        interval = MONITOR_INTERVAL_S
        self.state = HandoverState.ROUTE_DISCOVERY
        self._refresh_best_route()
        next_reading = self.sim.now + interval
        while self._active and self.connection.is_open:
            self.state = HandoverState.MONITORING
            if (self.low_count == 0 and self.connection.quality()
                    >= self.config.low_quality_threshold):
                yield from self._sleep_until_low_possible()
                if not self._active or not self.connection.is_open:
                    break
                # Drop the aligned readings the sleep skipped — polling
                # read good quality onto a zero counter at each (no-ops).
                while next_reading < self.sim.now - self._ALIGN_TOL_S:
                    next_reading += interval
            delay = next_reading - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            self.monitor_wakeups += 1
            if not self._active or not self.connection.is_open:
                break
            yield from self._take_reading()
            next_reading = self.sim.now + interval
        self.state = HandoverState.STOPPED

    def _sleep_until_low_possible(self) -> typing.Generator:
        """Park until quality *can* read below the threshold.

        Subscribes a one-shot QualityBelow watch on the connection's
        current first hop; the bus fires it at the predicted crossing
        (immediately if quality is already low).  Watch cancellation
        (link closed, thread stopped) also wakes us — the loop then
        re-examines the connection state.
        """
        link = self.connection.link
        waiter = self.sim.event(
            f"handover-low-wait:{self.node_id}:"
            f"conn{self.connection.connection_id}")

        def fired(_event) -> None:
            if not waiter.triggered:
                waiter.succeed(_event)

        def cancelled() -> None:
            if not waiter.triggered:
                waiter.succeed(None)

        watch = self.fabric.world.bus.watch_quality_below(
            link.node_a, link.node_b, link.tech,
            self.config.low_quality_threshold,
            callback=fired, on_cancel=cancelled)
        self._sleep_watch = watch
        try:
            yield waiter
        finally:
            self._sleep_watch = None
            if watch.active:
                watch.cancel()
        self.monitor_wakeups += 1

    def _take_reading(self) -> typing.Generator:
        """One state-1 reading; shared verbatim by both monitor modes."""
        if not self.connection.sending:
            # §5.3: the application finished sending; a broken link
            # needs no repair until the server routes the result back.
            self.low_count = 0
            return
        quality = self.connection.quality()
        if quality < self.config.low_quality_threshold:
            self.low_count += 1
            self.fabric.trace.record(
                self.sim.now, self.node_id, "signal-low",
                connection_id=self.connection.connection_id,
                quality=quality, low_count=self.low_count)
        else:
            self.low_count = 0
        if self.low_count > self.config.low_count_limit:
            self.state = HandoverState.SUBSTITUTING
            yield from self._do_handover()
            self.low_count = 0

    def _refresh_best_route(self) -> None:
        candidates = self.library.node.daemon.storage.find_handover_routes(
            self.connection.remote_address)
        self.best_route = candidates[0][0] if candidates else None

    # ------------------------------------------------------------------
    # state 2: routing handover, then service reconnection fallback
    # ------------------------------------------------------------------
    def _do_handover(self) -> typing.Generator:
        self._refresh_best_route()
        if self.best_route is not None:
            self.handover_attempts += 1
            started = self.sim.now
            try:
                yield from self.library.reconnect(
                    self.connection,
                    via_address=self.best_route.address,
                    retries=self.config.connect_retries)
            except (ConnectFault, OutOfRange, NoRouteError,
                    BridgeRefusedError, TargetNotAvailableError,
                    ConnectionClosedError) as error:
                self.fabric.trace.record(
                    self.sim.now, self.node_id, "handover-failed",
                    connection_id=self.connection.connection_id,
                    via=self.best_route.address,
                    duration=self.sim.now - started,
                    error=str(error))
            else:
                self.handovers_done += 1
                self.fabric.trace.record(
                    self.sim.now, self.node_id, "routing-handover",
                    connection_id=self.connection.connection_id,
                    via=self.best_route.address,
                    duration=self.sim.now - started)
                return
            if self.handover_attempts <= self.config.max_handover_attempts:
                return  # try again after more low readings
        # §5.2.2: no suitable bridge or attempts exhausted.
        yield from self._service_reconnection()

    def _service_reconnection(self) -> typing.Generator:
        storage = self.library.node.daemon.storage
        alternatives = [
            device for device in storage.find_service(
                self.connection.service_name)
            if device.address != self.connection.remote_address]
        if not alternatives:
            self.fabric.trace.record(
                self.sim.now, self.node_id, "reconnection-unavailable",
                connection_id=self.connection.connection_id,
                service=self.connection.service_name)
            return
        candidate = alternatives[0]
        if not self.permission(candidate):
            self.fabric.trace.record(
                self.sim.now, self.node_id, "reconnection-declined",
                connection_id=self.connection.connection_id,
                candidate=candidate.address)
            return
        try:
            new_connection = yield from self.library.connect(
                candidate.address, self.connection.service_name,
                retries=self.config.connect_retries)
        except (ConnectFault, OutOfRange, PeerHoodError) as error:
            self.fabric.trace.record(
                self.sim.now, self.node_id, "reconnection-failed",
                connection_id=self.connection.connection_id,
                candidate=candidate.address, error=str(error))
            return
        self.connection.close("service reconnection")
        self.fabric.trace.record(
            self.sim.now, self.node_id, "service-reconnection",
            old_connection_id=self.connection.connection_id,
            new_connection_id=new_connection.connection_id,
            provider=candidate.address)
        self._active = False
        if self.on_service_reconnected is not None:
            result = self.on_service_reconnected(new_connection)
            if hasattr(result, "send"):
                self.sim.spawn(result,
                               name=f"service-reconnected:{self.node_id}")

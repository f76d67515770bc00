"""The bridge service: PeerHood's interconnection relay (Ch. 4).

"One hidden bridge service will be included in each PeerHood package and
executed in the initialization of Daemon.  Bridge service listens
continuously for connection requests in order to establish a new
connection with the next bridge or final destination."

The implementation follows Fig. 4.4:

* the BridgeConnection handler (here :meth:`BridgeService.handle_request`)
  finds the next node from the device list, creates the onward connection,
  and only then acks back — end-to-end chain acknowledgement (§4.1);
* relayed connections are stored as *pairs* (the paper's even/odd indexing)
  and two pump processes forward frames in both directions without
  interpreting them, "with the exception of disconnection";
* the owner-adjustable maximum connection count (§4.0) rejects new relays
  at capacity, and the occupancy is exposed for the link-quality
  bottleneck hint.
"""

from __future__ import annotations

import typing

from repro.core.errors import TargetNotAvailableError
from repro.core.protocol import (
    Ack,
    BridgeRequest,
    ConnectRequest,
    DataFrame,
    DisconnectFrame,
    Frame,
    ReconnectRequest,
)
from repro.radio.channel import ChannelClosed, ConnectFault, Link, OutOfRange
from repro.radio.technologies import get_technology

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.device_storage import StoredDevice
    from repro.core.node import PeerHoodNode


class _RelayPair:
    """One even/odd pair of links being relayed (§4.2)."""

    def __init__(self, even: Link, odd: Link):
        self.even = even
        self.odd = odd
        self.closed = False


class BridgeService:
    """Per-daemon hidden relay service."""

    def __init__(self, node: "PeerHoodNode"):
        self.node = node
        self.sim = node.sim
        self.fabric = node.fabric
        self._pairs: list[_RelayPair] = []
        self.relayed_frames = 0
        self.refused = 0

    @property
    def node_id(self) -> str:
        return self.node.node_id

    @property
    def active_connections(self) -> int:
        """Currently relayed pairs."""
        return len(self._pairs)

    # ------------------------------------------------------------------
    # request handling (BridgeConnection in Fig. 4.4)
    # ------------------------------------------------------------------
    def handle_request(self, incoming: Link,
                       request: BridgeRequest) -> typing.Generator:
        """Process generator: establish the onward hop and start relaying."""
        refusal = self._refusal_reason(request)
        if refusal is not None:
            self._refuse(incoming, refusal)
            return
        entry = self.node.daemon.storage.get(request.destination)
        assert entry is not None  # _refusal_reason checked
        next_hop_entry = self._next_hop(entry)
        if next_hop_entry is None:
            self._refuse(incoming,
                         f"no route to {request.destination} from bridge")
            return
        terminal = next_hop_entry.address == request.destination
        tech = get_technology(next_hop_entry.prototype)
        try:
            onward = yield from self.fabric.connect(
                self.node_id, next_hop_entry.name, tech,
                retries=self.node.config.connect_retries)
        except (ConnectFault, OutOfRange, TargetNotAvailableError) as error:
            self._refuse(incoming, f"next hop unreachable: {error}")
            return
        opening = self._onward_opening(request, terminal)
        self.fabric.transmit(onward, self.node_id, opening, "control")
        try:
            ack = yield onward.receive(self.node_id)
        except ChannelClosed:
            self._refuse(incoming, "next hop dropped during handshake")
            return
        if not isinstance(ack, Ack) or not ack.ok:
            reason = ack.reason if isinstance(ack, Ack) else "bad ack"
            onward.close()
            self._refuse(incoming, f"chain failed downstream: {reason}")
            return
        # Chain is up: acknowledge upstream and start pumping (Fig. 4.4).
        self.fabric.transmit(incoming, self.node_id,
                             Ack(ok=True, port=ack.port), "control")
        pair = _RelayPair(even=incoming, odd=onward)
        self._pairs.append(pair)
        self.fabric.trace.record(
            self.sim.now, self.node_id, "bridge-relay-started",
            destination=request.destination,
            service=request.service_name,
            terminal=terminal,
            active=self.active_connections)
        self.sim.spawn(self._pump(pair, pair.even, pair.odd),
                       name=f"bridge:{self.node_id}:even->odd")
        self.sim.spawn(self._pump(pair, pair.odd, pair.even),
                       name=f"bridge:{self.node_id}:odd->even")
        self.sim.spawn(self._watchdog(pair),
                       name=f"bridge:{self.node_id}:watchdog")

    def _refusal_reason(self, request: BridgeRequest) -> str | None:
        if not self.node.config.bridge_enabled:
            return "bridge service disabled on this device"
        maximum = self.node.config.bridge_max_connections
        if maximum > 0 and self.active_connections >= maximum:
            return f"bridge at capacity ({maximum})"
        if request.hop_budget <= 0:
            return "hop budget exhausted"
        if self.node.daemon.storage.get(request.destination) is None:
            return f"destination unknown: {request.destination}"
        return None

    def _next_hop(self, entry: "StoredDevice") -> "StoredDevice | None":
        """The device to connect next: the target itself or its bridge."""
        if entry.is_direct():
            return entry
        assert entry.bridge is not None
        bridge_entry = self.node.daemon.storage.get(entry.bridge)
        if bridge_entry is None or not bridge_entry.is_direct():
            return None
        return bridge_entry

    def _onward_opening(self, request: BridgeRequest,
                        terminal: bool) -> Frame:
        if not terminal:
            return BridgeRequest(
                destination=request.destination,
                service_name=request.service_name,
                connection_id=request.connection_id,
                client_params=request.client_params,
                hop_budget=request.hop_budget - 1,
                reconnect=request.reconnect,
            )
        if request.reconnect:
            return ReconnectRequest(
                connection_id=request.connection_id,
                client_params=request.client_params,
            )
        return ConnectRequest(
            service_name=request.service_name,
            connection_id=request.connection_id,
            client_params=request.client_params,
        )

    def _refuse(self, incoming: Link, reason: str) -> None:
        self.refused += 1
        self.fabric.transmit(incoming, self.node_id,
                             Ack(ok=False, reason=reason), "control")
        self.fabric.trace.record(self.sim.now, self.node_id,
                                 "bridge-refused", reason=reason)
        # The requester closes the link on reading the error ack; closing
        # here would destroy the ack in flight.

    # ------------------------------------------------------------------
    # relay loop (BridgeServer main loop in Fig. 4.4)
    # ------------------------------------------------------------------
    def _pump(self, pair: _RelayPair, source: Link,
              sink: Link) -> typing.Generator:
        """Forward frames one way until disconnection or a dead link."""
        while not pair.closed:
            try:
                frame = yield source.receive(self.node_id)
            except ChannelClosed:
                # Physical break: close both legs silently (EOF semantics).
                # No application-level disconnect is injected — the logical
                # connection survives transport death so a pending handover
                # can substitute it (§2.3's connection-ID mechanism).
                self._close_pair(pair)
                return
            if isinstance(frame, DisconnectFrame):
                if sink.is_open:
                    self.fabric.transmit(sink, self.node_id, frame, "control")
                self._close_pair(pair, spare=sink)
                return
            category = "data" if isinstance(frame, DataFrame) else "control"
            self.relayed_frames += 1
            self.fabric.transmit(sink, self.node_id, frame, category)

    #: Sampling period of the per-pair link watchdog, seconds.
    WATCHDOG_INTERVAL_S = 1.0

    def _watchdog(self, pair: _RelayPair) -> typing.Generator:
        """Per-pair connection monitoring (§2.2.2 applied at the bridge).

        The pumps only notice a dead leg when a frame is lost on it; this
        process samples both legs' physical state so an idle chain whose
        endpoint walked away is torn down too (and the *other* side learns
        about it through the forwarded disconnect).
        """
        while not pair.closed:
            yield self.sim.timeout(self.WATCHDOG_INTERVAL_S)
            if pair.closed:
                return
            even_dead = not pair.even.is_open or not pair.even.in_range()
            odd_dead = not pair.odd.is_open or not pair.odd.in_range()
            if even_dead or odd_dead:
                self.fabric.trace.record(
                    self.sim.now, self.node_id, "bridge-leg-lost",
                    even_dead=even_dead, odd_dead=odd_dead)
                # Physical loss: EOF both legs, no disconnect injection
                # (see _pump) — endpoints observe a dead transport, not an
                # application-level close.
                self._close_pair(pair)
                return

    def _close_pair(self, pair: _RelayPair,
                    spare: Link | None = None) -> None:
        """Tear a pair down.

        ``spare`` is left open — used when a disconnect was already
        forwarded over it, so the frame can still reach the peer (who
        closes the link on processing it).
        """
        if pair.closed:
            return
        pair.closed = True
        for link in (pair.even, pair.odd):
            if link is not spare:
                link.close()
        if pair in self._pairs:
            self._pairs.remove(pair)

    def close_all(self) -> None:
        """Tear down every relayed pair (daemon shutdown)."""
        for pair in list(self._pairs):
            self._close_pair(pair)

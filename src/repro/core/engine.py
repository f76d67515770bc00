"""The Engine: PeerHood's incoming-connection listener (§2.2.2, §4.1).

"Engine is the PeerHood class which is continuously listening for possible
connections ... Once connection is recognized and accepted, it will proceed
to identify the connection intention to discover if they are new
connection, bridge connection or connection re-establish."

One engine per node (the paper's singleton).  For each accepted physical
link it reads the opening command frame and dispatches:

* ``PH_CONNECT`` — service lookup, ack, server-side connection object,
  application callback;
* ``PH_BRIDGE`` — handed to the hidden bridge service (Ch. 4);
* ``PH_RECONNECT`` — transport substitution under an existing server-side
  connection, identified by (client address, connection id) (§2.3).
"""

from __future__ import annotations

import typing

from repro.core.connection import PeerHoodConnection
from repro.core.protocol import (
    Ack,
    BridgeRequest,
    ConnectRequest,
    ReconnectRequest,
)
from repro.radio.channel import ChannelClosed, Link

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import PeerHoodNode

#: Application callback invoked with the accepted server-side connection.
#: It may return a generator, which the engine spawns as a process.
ServiceCallback = typing.Callable[[PeerHoodConnection], object]


class Engine:
    """Per-node listener and connection dispatcher."""

    def __init__(self, node: "PeerHoodNode"):
        self.node = node
        self.sim = node.sim
        self.fabric = node.fabric
        self._service_callbacks: dict[str, ServiceCallback] = {}
        self._server_connections: dict[
            tuple[str, int], PeerHoodConnection] = {}
        self.accepted = 0
        self.rejected = 0

    @property
    def node_id(self) -> str:
        return self.node.node_id

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def set_service_callback(self, service_name: str,
                             callback: ServiceCallback) -> None:
        """Attach the application handler for an advertised service."""
        self._service_callbacks[service_name] = callback

    # ------------------------------------------------------------------
    # accept path
    # ------------------------------------------------------------------
    def accept(self, link: Link) -> None:
        """Called by the fabric when a peer established a link to us."""
        self.sim.spawn(self._handle_link(link),
                       name=f"engine:{self.node_id}:link{link.link_id}")

    def _handle_link(self, link: Link) -> typing.Generator:
        try:
            opening = yield link.receive(self.node_id)
        except ChannelClosed:
            return  # peer vanished before saying anything
        if isinstance(opening, ConnectRequest):
            yield from self._handle_connect(link, opening)
        elif isinstance(opening, BridgeRequest):
            yield from self.node.daemon.bridge_service.handle_request(
                link, opening)
        elif isinstance(opening, ReconnectRequest):
            self._handle_reconnect(link, opening)
        else:
            self.rejected += 1
            self.fabric.transmit(
                link, self.node_id,
                Ack(ok=False, reason=f"unexpected opening frame {opening!r}"),
                "control")
            # The requester closes the link on reading the error ack;
            # closing here would destroy the ack in flight.

    def _handle_connect(self, link: Link,
                        request: ConnectRequest) -> typing.Generator:
        record = self.node.daemon.registry.lookup(request.service_name)
        callback = self._service_callbacks.get(request.service_name)
        if record is None or callback is None:
            self.rejected += 1
            self.fabric.transmit(
                link, self.node_id,
                Ack(ok=False,
                    reason=f"service not found: {request.service_name!r}"),
                "control")
            return  # requester closes the link on reading the error ack
        connection = PeerHoodConnection(
            fabric=self.fabric,
            local_node_id=self.node_id,
            link=link,
            connection_id=request.connection_id,
            remote_address=request.client_params.address,
            service_name=request.service_name,
            remote_params=request.client_params,
            is_server_side=True,
        )
        key = (request.client_params.address, request.connection_id)
        self._server_connections[key] = connection
        self.accepted += 1
        self.fabric.transmit(link, self.node_id,
                             Ack(ok=True, port=record.port), "control")
        self.fabric.trace.record(
            self.sim.now, self.node_id, "connection-accepted",
            service=request.service_name,
            client=request.client_params.address,
            connection_id=request.connection_id)
        result = callback(connection)
        if hasattr(result, "send"):
            self.sim.spawn(
                result,
                name=f"service:{request.service_name}@{self.node_id}")
        # The handler process (if any) owns the connection from here on.

    def _handle_reconnect(self, link: Link,
                          request: ReconnectRequest) -> None:
        key = (request.client_params.address, request.connection_id)
        connection = self._server_connections.get(key)
        if connection is None or not connection.is_open:
            self.rejected += 1
            self.fabric.transmit(
                link, self.node_id,
                Ack(ok=False,
                    reason=f"no connection #{request.connection_id} "
                           f"from {request.client_params.address}"),
                "control")
            return  # requester closes the link on reading the error ack
        self.fabric.transmit(link, self.node_id, Ack(ok=True), "control")
        connection.replace_link(link)
        self.fabric.trace.record(
            self.sim.now, self.node_id, "connection-reestablished",
            connection_id=request.connection_id,
            client=request.client_params.address)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close_all(self) -> None:
        """Drop every server-side connection (daemon shutdown)."""
        for connection in list(self._server_connections.values()):
            connection.close("daemon stopping")
        self._server_connections.clear()

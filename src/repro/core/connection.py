"""PeerHoodConnection: the application-facing connection object.

Wraps whatever physical link (or bridge chain head) currently carries the
logical connection.  Handover swaps the transport underneath while the
application keeps the same object — the paper's ChangeConnection callback
(§5.2.1, state 2: "the connection will be substituted").

A background *demultiplexer* process plays the role of the OS socket
layer: it drains frames off the link as they arrive, queues application
payloads for ``read()`` and processes control frames (disconnects)
eagerly — a peer's teardown is observed even while the application is busy
processing, exactly like a FIN on a real socket (the thesis' Fig. 5.10
server notices "No connection" during data processing this way).

Write semantics follow §6.1: the Write function is *not* aware of
connection loss, so writes on a physically-broken link are silently
dropped.  Reads surface teardown as :class:`ConnectionClosedError`; a
*physically dead but not closed* transport leaves readers blocked until a
handover repairs it or the connection is closed — which is what real
blocked socket reads do.
"""

from __future__ import annotations

import typing

from repro.core.errors import ConnectionClosedError
from repro.core.protocol import ClientParams, DataFrame, DisconnectFrame
from repro.radio.channel import ChannelClosed, Link
from repro.sim.events import Event
from repro.sim.resources import Store

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.fabric import Fabric


class _ClosedSentinel:
    """Queued behind buffered payloads to wake blocked readers on close."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<connection-closed>"


_CLOSED = _ClosedSentinel()


class PeerHoodConnection:
    """One logical PeerHood connection endpoint.

    Parameters
    ----------
    fabric:
        The fabric (for metered transmission).
    local_node_id:
        The node this endpoint lives on.
    link:
        The physical link (or first hop of a bridge chain).
    connection_id:
        The client-assigned id used for handover substitution (§2.3).
    remote_address:
        Device address of the logical peer (the far end, not the bridge).
    service_name:
        The service this connection targets (or arrived on).
    remote_params:
        The peer's :class:`ClientParams` if it supplied them (§5.3).
    is_server_side:
        True for connections accepted by the engine.
    """

    def __init__(self, fabric: "Fabric", local_node_id: str, link: Link,
                 connection_id: int, remote_address: str, service_name: str,
                 remote_params: ClientParams | None = None,
                 is_server_side: bool = False):
        self.fabric = fabric
        self.sim = fabric.sim
        self.local_node_id = local_node_id
        self.connection_id = connection_id
        self.remote_address = remote_address
        self.service_name = service_name
        self.remote_params = remote_params
        self.is_server_side = is_server_side
        self._link = link
        self._closed = False
        self._sequence = 0
        #: §5.3's "sending" flag: True while the application still needs
        #: the connection; HandoverThread consults it via GetSending.
        self.sending = True
        self._change_callbacks: list[
            typing.Callable[["PeerHoodConnection"], None]] = []
        self.handovers = 0
        self._rx: Store = Store(self.sim, f"conn{connection_id}:rx")
        self._replacement_waiter: Event | None = None
        self.sim.spawn(
            self._demux_loop(),
            name=f"conn-demux:{local_node_id}:{connection_id}")

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def link(self) -> Link:
        """The physical link currently carrying the connection."""
        return self._link

    @property
    def is_open(self) -> bool:
        """True until close() locally or an observed remote teardown."""
        return not self._closed

    def transport_alive(self) -> bool:
        """True while the connection is open and its link is up and in
        radio range — the view of PeerHood's connection monitoring
        (§2.2.2), which reads the link quality continuously."""
        return (not self._closed and self._link.is_open
                and self._link.in_range())

    def quality(self) -> int:
        """Link quality of the current first hop, as the monitor reads it."""
        return self._link.quality()

    def set_sending(self, sending: bool) -> None:
        """§5.3: applications flag the end of data sending."""
        self.sending = sending

    def on_connection_changed(
            self, callback: typing.Callable[["PeerHoodConnection"], None],
    ) -> None:
        """Register the ChangeConnection application callback (§5.2.1)."""
        self._change_callbacks.append(callback)

    # ------------------------------------------------------------------
    # demultiplexer (the socket layer)
    # ------------------------------------------------------------------
    def _demux_loop(self) -> typing.Generator:
        while not self._closed:
            current_link = self._link
            try:
                frame = yield current_link.receive(self.local_node_id)
            except ChannelClosed:
                if self._closed:
                    return
                if self._link is not current_link:
                    continue  # handover already swapped the transport
                # Transport dead but connection not closed: park until a
                # handover installs a new link or the connection closes.
                self._replacement_waiter = Event(
                    self.sim, f"conn{self.connection_id}:await-transport")
                yield self._replacement_waiter
                self._replacement_waiter = None
                continue
            if self._link is not current_link:
                # The transport was swapped while this frame was in
                # flight.  Late data is still delivered; control frames of
                # the abandoned transport are void — a disconnect of the
                # old chain must not kill the handed-over connection.
                if isinstance(frame, DataFrame):
                    self._rx.put(frame.payload)
                continue
            if isinstance(frame, DataFrame):
                self._rx.put(frame.payload)
            elif isinstance(frame, DisconnectFrame):
                self._teardown(local=False)
                return
            # Other control frames are handshake-level and consumed before
            # a connection exists; ignore strays.

    def _teardown(self, local: bool) -> None:
        if self._closed:
            return
        self._closed = True
        if not local and self._link.is_open:
            self._link.close()
        # Wake blocked readers: one sentinel per pending getter plus one
        # left buffered for future read() calls.
        for _ in range(self._rx.pending_getters + 1):
            self._rx.put(_CLOSED)
        waiter = self._replacement_waiter
        if waiter is not None and not waiter.triggered:
            waiter.succeed(None)
        self.fabric.trace.record(self.sim.now, self.local_node_id,
                                 "connection-closed",
                                 connection_id=self.connection_id,
                                 local=local)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def write(self, payload: object, size_bytes: int) -> None:
        """Send application data.

        Raises :class:`ConnectionClosedError` only for a *locally visible*
        closed connection; physical breaks drop the frame silently (§6.1).
        """
        if self._closed:
            raise ConnectionClosedError(
                f"write on closed connection #{self.connection_id}")
        self._sequence += 1
        frame = DataFrame(payload=payload, declared_size=size_bytes,
                          sequence=self._sequence)
        self.fabric.transmit(self._link, self.local_node_id, frame, "data")

    def read(self) -> typing.Generator:
        """Process generator: next application payload.

        Buffered payloads are drained even after teardown; once empty, a
        closed connection raises :class:`ConnectionClosedError`.
        """
        item = yield self._rx.get()
        if item is _CLOSED:
            raise ConnectionClosedError(
                f"connection #{self.connection_id} is closed")
        return item

    def read_n(self, count: int) -> typing.Generator:
        """Process generator: read ``count`` payloads into a list."""
        payloads = []
        for _ in range(count):
            payload = yield from self.read()
            payloads.append(payload)
        return payloads

    # ------------------------------------------------------------------
    # handover support
    # ------------------------------------------------------------------
    def replace_link(self, new_link: Link) -> None:
        """Substitute the transport (state 2 of the HandoverThread).

        The old link is closed; the demultiplexer migrates to the new one.
        Application callbacks fire to mirror the paper's ChangeConnection
        notification.
        """
        if self._closed:
            raise ConnectionClosedError(
                f"handover on closed connection #{self.connection_id}")
        old_link = self._link
        self._link = new_link
        self.handovers += 1
        if old_link.is_open:
            old_link.close()
        waiter = self._replacement_waiter
        if waiter is not None and not waiter.triggered:
            waiter.succeed(None)
        for callback in list(self._change_callbacks):
            callback(self)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self, reason: str = "") -> None:
        """Orderly close: notify the peer, then tear down locally.

        The link object is left open so the in-flight disconnect frame can
        still reach the peer, who closes it on processing (§4.2's
        disconnection forwarding relies on the same behaviour).
        """
        if self._closed:
            return
        if self._link.is_open:
            self.fabric.transmit(self._link, self.local_node_id,
                                 DisconnectFrame(reason=reason), "control")
        self._teardown(local=True)

    def __repr__(self) -> str:
        state = "open" if self.is_open else "closed"
        side = "server" if self.is_server_side else "client"
        return (f"<PeerHoodConnection#{self.connection_id} {side} "
                f"{self.local_node_id}->{self.remote_address} "
                f"{self.service_name!r} {state}>")

"""Result routing: deliver a migrated task's result after a break (§5.3).

"We consider the optimal would be the server establishes the connection
with client after the data processing."

Client side: flag the end of sending (``connection.set_sending(False)``)
so the HandoverThread leaves the dying link alone, and wait on a
registered *reply service* for the server's call-back connection.

Server side: :func:`deliver_result` writes the result on the original
connection when it is still alive; otherwise it looks the client up in the
daemon's routing table (waiting for discovery to find it if necessary) and
opens a new connection — possibly bridged — to the client's reply service
(the §5.3 "method 2" parameters carried in :class:`~repro.core.protocol.
ClientParams` make this possible without the extra 'client' service of
method 1).
"""

from __future__ import annotations

import typing

from repro.core.connection import PeerHoodConnection
from repro.core.errors import NoRouteError, PeerHoodError
from repro.core.protocol import ClientParams
from repro.radio.channel import ConnectFault, OutOfRange

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.library import PeerHoodLibrary


#: Pause between attempts to reach the client again, sim-seconds.
RETRY_INTERVAL_S = 5.0


class ResultDeliveryFailed(PeerHoodError):
    """The server could not reach the client within the deadline."""


def deliver_result(library: "PeerHoodLibrary",
                   connection: PeerHoodConnection,
                   payload: object, size_bytes: int,
                   deadline_s: float = 120.0) -> typing.Generator:
    """Process generator: get ``payload`` back to the client.

    Returns ``"direct"`` if the original connection still carried it, or
    ``"reconnect"`` if a new connection (Fig. 5.10's "Reconnect to
    client" branch) was needed.  Raises :class:`ResultDeliveryFailed`
    after ``deadline_s`` of failed attempts, retried every
    :data:`RETRY_INTERVAL_S`.
    """
    if connection.transport_alive():
        connection.write(payload, size_bytes)
        library.fabric.trace.record(
            library.sim.now, library.node_id, "result-delivered",
            mode="direct", connection_id=connection.connection_id)
        return "direct"
    params = connection.remote_params
    if params is None or not params.reply_service:
        raise ResultDeliveryFailed(
            "connection broken and the client sent no reply-service "
            "parameters (§5.3 method 2 not in use)")
    reply_connection = yield from _connect_back(
        library, params, deadline_s)
    reply_connection.write(payload, size_bytes)
    library.fabric.trace.record(
        library.sim.now, library.node_id, "result-delivered",
        mode="reconnect", connection_id=reply_connection.connection_id,
        client=params.address)
    return "reconnect"


def _connect_back(library: "PeerHoodLibrary", params: ClientParams,
                  deadline_s: float) -> typing.Generator:
    """Find the client in the routing table and connect, with retries."""
    sim = library.sim
    give_up_at = sim.now + deadline_s
    last_error: Exception | None = None
    while sim.now < give_up_at:
        entry = library.node.daemon.storage.get(params.address)
        if entry is None:
            # "server looks for the device in its neighborhood routing
            # table" — not there yet; wait for discovery to catch up.
            yield sim.timeout(RETRY_INTERVAL_S)
            continue
        try:
            reply_connection = yield from library.connect(
                params.address, params.reply_service,
                retries=library.node.config.connect_retries)
            return reply_connection
        except (ConnectFault, OutOfRange, NoRouteError,
                PeerHoodError) as error:
            last_error = error
            yield sim.timeout(RETRY_INTERVAL_S)
    raise ResultDeliveryFailed(
        f"could not reach client {params.address!r} within "
        f"{deadline_s:.0f} s: {last_error}")


class ResultWaiter:
    """Client-side helper: a one-shot reply service.

    Registers ``service_name`` (hidden from discovery responses would
    defeat the server's connect, so it is visible — this *is* the paper's
    method-1 downside, which method 2 mitigates by telling only the server
    about it) and exposes an event that fires with the first payload
    received on it.
    """

    def __init__(self, library: "PeerHoodLibrary", service_name: str):
        self.library = library
        self.sim = library.sim
        self.service_name = service_name
        self.result_event = self.sim.event(f"result:{service_name}")
        library.register_service(service_name, self._on_connection)

    def _on_connection(self, connection: PeerHoodConnection):
        def receive(connection=connection):
            try:
                payload = yield from connection.read()
            except PeerHoodError:
                return
            if not self.result_event.triggered:
                self.result_event.succeed(payload)
        return receive()

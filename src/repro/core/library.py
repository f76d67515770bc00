"""PeerHoodLibrary: the application-facing API (§2.2.2, §2.3).

"Library is the main class and we can summarize it in 4 fields: connection
establishment, requesting neighbourhood information from the daemon,
connection quality monitoring and incoming connection listening."

The daemon⇄library local-socket hop of the real stack is a direct method
call here (both live in the same simulated device); the latency of that hop
is negligible next to radio times and does not affect any result shape.
"""

from __future__ import annotations

import typing

from repro.core.connection import PeerHoodConnection
from repro.core.device_storage import StoredDevice
from repro.core.engine import Engine, ServiceCallback
from repro.core.errors import (
    BridgeRefusedError,
    NoRouteError,
    ServiceNotFoundError,
    TargetNotAvailableError,
)
from repro.core.protocol import (
    Ack,
    BridgeRequest,
    ClientParams,
    ConnectRequest,
    Frame,
    ReconnectRequest,
)
from repro.core.service import ServiceRecord
from repro.radio.channel import ChannelClosed
from repro.radio.technologies import Technology, get_technology

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import PeerHoodNode


class PeerHoodLibrary:
    """Per-node library instance (the paper's singleton)."""

    def __init__(self, node: "PeerHoodNode"):
        self.node = node
        self.sim = node.sim
        self.fabric = node.fabric
        self.engine = Engine(node)
        self._next_connection_id = 1
        #: The paper's iThreadList: client-side connections by id.
        self.connections: dict[int, PeerHoodConnection] = {}

    @property
    def node_id(self) -> str:
        return self.node.node_id

    # ------------------------------------------------------------------
    # daemon queries (GetDeviceList / GetServiceList, §2.2.2)
    # ------------------------------------------------------------------
    def get_device_list(self) -> list[StoredDevice]:
        """Snapshot of every known device, direct and remote."""
        return self.node.daemon.storage.devices()

    def get_service_list(
            self, service_name: str | None = None,
    ) -> list[tuple[StoredDevice, ServiceRecord]]:
        """(device, service) pairs known in the environment."""
        pairs = []
        for device in self.node.daemon.storage.devices():
            for service in device.services:
                if service_name is None or service.name == service_name:
                    pairs.append((device, service))
        return pairs

    def register_service(self, name: str, callback: ServiceCallback,
                         attribute: str = "", port: int = 0,
                         hidden: bool = False) -> ServiceRecord:
        """Advertise a service and attach its connection handler."""
        record = self.node.daemon.registry.register(
            ServiceRecord(name=name, attribute=attribute, port=port,
                          hidden=hidden))
        self.engine.set_service_callback(name, callback)
        return record

    # ------------------------------------------------------------------
    # connection establishment (§2.3, §4.1)
    # ------------------------------------------------------------------
    def connect(self, destination_address: str, service_name: str,
                reply_service: str = "",
                retries: int | None = None) -> typing.Generator:
        """Process generator: open a connection, direct or bridged.

        Follows Fig. 2.5 / Fig. 4.3: route lookup in the DeviceStorage,
        physical link to the destination or its bridge, opening command,
        end-to-end acknowledgement.  Returns a
        :class:`~repro.core.connection.PeerHoodConnection`.
        """
        entry, target_node_id, tech = self._resolve_route(destination_address)
        connection_id = self._next_connection_id
        self._next_connection_id += 1
        params = self._client_params(tech, reply_service)
        if retries is None:
            retries = self.node.config.connect_retries
        link = yield from self.fabric.connect(
            self.node_id, target_node_id, tech, retries=retries)
        opening: Frame
        if entry.is_direct():
            opening = ConnectRequest(service_name=service_name,
                                     connection_id=connection_id,
                                     client_params=params)
        else:
            opening = BridgeRequest(destination=destination_address,
                                    service_name=service_name,
                                    connection_id=connection_id,
                                    client_params=params)
        self.fabric.transmit(link, self.node_id, opening, "control")
        ack = yield from self._await_ack(link, destination_address)
        if not ack.ok:
            link.close()
            raise self._ack_error(entry, ack)
        connection = PeerHoodConnection(
            fabric=self.fabric,
            local_node_id=self.node_id,
            link=link,
            connection_id=connection_id,
            remote_address=destination_address,
            service_name=service_name,
        )
        self.connections[connection_id] = connection
        self.fabric.trace.record(
            self.sim.now, self.node_id, "connection-opened",
            destination=destination_address, service=service_name,
            bridged=not entry.is_direct(), connection_id=connection_id)
        return connection

    def reconnect(self, connection: PeerHoodConnection,
                  via_address: str | None = None,
                  retries: int | None = None) -> typing.Generator:
        """Process generator: substitute the transport of ``connection``.

        ``via_address`` forces a specific first hop (the HandoverThread's
        stored route); None re-resolves from the DeviceStorage.  On success
        the connection's link is swapped in place (the server receives
        PH_RECONNECT and does the same, §2.3/§5.2.1).  Returns the
        connection.
        """
        destination = connection.remote_address
        if via_address is None:
            entry, target_node_id, tech = self._resolve_route(destination)
            direct = entry.is_direct()
        else:
            via_entry = self.node.daemon.storage.get(via_address)
            if via_entry is None or not via_entry.is_direct():
                raise NoRouteError(
                    f"handover bridge {via_address!r} is not a direct "
                    "neighbour")
            direct = via_address == destination
            target_node_id = via_entry.name
            tech = get_technology(via_entry.prototype)
        if retries is None:
            retries = self.node.config.handover.connect_retries
        params = self._client_params(tech, reply_service="")
        link = yield from self.fabric.connect(
            self.node_id, target_node_id, tech, retries=retries)
        opening: Frame
        if direct:
            opening = ReconnectRequest(
                connection_id=connection.connection_id,
                client_params=params)
        else:
            opening = BridgeRequest(
                destination=destination,
                service_name=connection.service_name,
                connection_id=connection.connection_id,
                client_params=params,
                reconnect=True)
        self.fabric.transmit(link, self.node_id, opening, "control")
        ack = yield from self._await_ack(link, destination)
        if not ack.ok:
            link.close()
            raise BridgeRefusedError(
                f"reconnect refused: {ack.reason}")
        connection.replace_link(link)
        self.fabric.trace.record(
            self.sim.now, self.node_id, "handover-complete",
            destination=destination,
            connection_id=connection.connection_id,
            via=via_address or "direct")
        return connection

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _resolve_route(
            self, destination_address: str,
    ) -> tuple[StoredDevice, str, Technology]:
        storage = self.node.daemon.storage
        entry = storage.get(destination_address)
        if entry is None:
            raise NoRouteError(
                f"{destination_address!r} not in DeviceStorage of "
                f"{self.node_id!r}")
        if entry.is_direct():
            return entry, entry.name, get_technology(entry.prototype)
        assert entry.bridge is not None
        bridge_entry = storage.get(entry.bridge)
        if bridge_entry is None or not bridge_entry.is_direct():
            raise NoRouteError(
                f"bridge {entry.bridge!r} for {destination_address!r} is "
                "not a direct neighbour any more")
        return entry, bridge_entry.name, get_technology(
            bridge_entry.prototype)

    def _client_params(self, tech: Technology,
                       reply_service: str) -> ClientParams:
        return ClientParams(
            address=self.node.address,
            name=self.node.identity.name,
            prototype=tech.name,
            reply_service=reply_service,
            mobility=self.node.identity.mobility,
            pid=self.node.identity.checksum,
        )

    def _await_ack(self, link, destination: str) -> typing.Generator:
        try:
            ack = yield link.receive(self.node_id)
        except ChannelClosed:
            raise TargetNotAvailableError(
                f"link to {destination!r} died during handshake") from None
        if not isinstance(ack, Ack):
            link.close()
            raise TargetNotAvailableError(
                f"expected PH_OK/PH_ERROR, got {ack!r}")
        return ack

    def _ack_error(self, entry: StoredDevice, ack: Ack) -> Exception:
        if entry.is_direct():
            return ServiceNotFoundError(ack.reason)
        return BridgeRefusedError(ack.reason)

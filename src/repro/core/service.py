"""PeerHood services: records and the per-daemon registry.

§2.3: "PeerHood service is described by the following parameters:
ServiceName, ServiceAttribute and Port Number."  Any registered service is
discoverable by other devices' inquiries and connectable over the mesh.
"""

from __future__ import annotations

import dataclasses
import typing

#: The well-known port of the hidden bridge service every daemon runs (§4.0).
BRIDGE_SERVICE_NAME = "peerhood.bridge"
BRIDGE_SERVICE_PORT = 1


@dataclasses.dataclass(frozen=True)
class ServiceRecord:
    """One advertised service.

    ``hidden`` marks services excluded from discovery responses — the
    bridge service is installed on every daemon but is addressed directly
    by the interconnection machinery, not browsed by applications.
    """

    name: str
    attribute: str = ""
    port: int = 0
    hidden: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("service name must be non-empty")
        if self.port < 0:
            raise ValueError(f"negative port: {self.port}")

    def wire_size(self) -> int:
        """Approximate serialised size in bytes."""
        return len(self.name) + len(self.attribute) + 4


class ServiceRegistry:
    """The daemon's table of locally registered services."""

    def __init__(self) -> None:
        self._services: dict[str, ServiceRecord] = {}
        self._next_port = 1024

    def register(self, record: ServiceRecord) -> ServiceRecord:
        """Add a service; a zero port is auto-assigned."""
        if record.name in self._services:
            raise ValueError(f"service already registered: {record.name!r}")
        if record.port == 0:
            record = dataclasses.replace(record, port=self._next_port)
            self._next_port += 1
        self._services[record.name] = record
        return record

    def lookup(self, name: str) -> typing.Optional[ServiceRecord]:
        """Find a service by name, hidden ones included."""
        return self._services.get(name)

    def visible_services(self) -> list[ServiceRecord]:
        """Services advertised to discovery inquiries (hidden excluded)."""
        return [record for record in self._services.values()
                if not record.hidden]

    def __len__(self) -> int:
        return len(self._services)

    def __contains__(self, name: str) -> bool:
        return name in self._services

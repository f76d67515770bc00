"""The PeerHood wire protocol.

Frames are modelled as dataclasses (the real stack writes length-prefixed
byte strings over RFCOMM/TCP).  Every frame reports an approximate
serialised size so the metrics layer can account for traffic — the paper's
Gnutella comparison (§3.2) is about exactly this byte volume.

Connection-opening commands follow §4.1: the engine inspects the first
frame on a new link "to discover if they are new connection, bridge
connection or connection re-establish".
"""

from __future__ import annotations

import dataclasses
import enum
import typing

from repro.core.device import DeviceIdentity, MobilityClass
from repro.core.routing import check_route_figures
from repro.core.service import ServiceRecord


class Command(enum.Enum):
    """Connection-intention commands exchanged on a fresh link (§4.1)."""

    PH_CONNECT = "PH_CONNECT"
    PH_BRIDGE = "PH_BRIDGE"
    PH_RECONNECT = "PH_RECONNECT"
    PH_OK = "PH_OK"
    PH_ERROR = "PH_ERROR"
    PH_DISCONNECT = "PH_DISCONNECT"


@dataclasses.dataclass(frozen=True)
class ClientParams:
    """Caller identity sent at connection start (§5.3 method 2).

    The thesis found that after a break "the server has not enough
    information to reconnect to the client" and proposed sending
    "prototype, Pid number, service name, checksum, device name and port
    number ... in the beginning of the connection".  Carrying these lets
    the picture-analysis server route the result back without the extra
    'client' service of method 1.
    """

    address: str
    name: str
    prototype: str
    reply_service: str
    mobility: MobilityClass
    pid: int = 0

    def wire_size(self) -> int:
        return (17 + len(self.name) + len(self.prototype)
                + len(self.reply_service) + 4 + 4)


class Frame:
    """Base class for everything sent over a link."""

    __slots__ = ()

    def wire_size(self) -> int:
        """Approximate serialised size in bytes."""
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class ConnectRequest(Frame):
    """PH_CONNECT: open a direct connection to a named service."""

    service_name: str
    connection_id: int
    client_params: ClientParams

    command: typing.ClassVar[Command] = Command.PH_CONNECT

    def wire_size(self) -> int:
        return 4 + len(self.service_name) + 4 + self.client_params.wire_size()


@dataclasses.dataclass(frozen=True)
class BridgeRequest(Frame):
    """PH_BRIDGE: ask the receiving node to relay to ``destination``.

    ``hop_budget`` bounds chain length so a routing loop cannot recurse
    forever when storages are momentarily inconsistent.  ``reconnect``
    makes the terminal hop issue :class:`ReconnectRequest` instead of
    :class:`ConnectRequest` — a routing handover arriving over a bridge
    must substitute the server's existing connection, not open a new one
    (§5.2.1).
    """

    destination: str
    service_name: str
    connection_id: int
    client_params: ClientParams
    hop_budget: int = 8
    reconnect: bool = False

    command: typing.ClassVar[Command] = Command.PH_BRIDGE

    def wire_size(self) -> int:
        return (4 + 17 + len(self.service_name) + 4 + 1
                + self.client_params.wire_size())


@dataclasses.dataclass(frozen=True)
class ReconnectRequest(Frame):
    """PH_RECONNECT: substitute the transport under an existing connection.

    §2.3: "Connection ID is used to identify the connection to substitute
    from the connection list."
    """

    connection_id: int
    client_params: ClientParams

    command: typing.ClassVar[Command] = Command.PH_RECONNECT

    def wire_size(self) -> int:
        return 4 + 4 + self.client_params.wire_size()


@dataclasses.dataclass(frozen=True)
class Ack(Frame):
    """PH_OK / PH_ERROR answer to a connection-opening command (§4.1).

    For bridged chains this is the end-to-end acknowledgement: "if one of
    them fails all the connection chain would fail and it should be
    notified to the connection request device".
    """

    ok: bool
    port: int = 0
    reason: str = ""

    @property
    def command(self) -> Command:
        return Command.PH_OK if self.ok else Command.PH_ERROR

    def wire_size(self) -> int:
        return 4 + 4 + len(self.reason)


@dataclasses.dataclass(frozen=True)
class DataFrame(Frame):
    """Application payload in flight.

    ``declared_size`` is what the transmit-time model charges; the actual
    ``payload`` object is carried opaquely (bridges re-transmit it without
    interpretation, §4.2).
    """

    payload: object
    declared_size: int
    sequence: int = 0

    def wire_size(self) -> int:
        if self.declared_size < 0:
            raise ValueError(f"negative size: {self.declared_size}")
        return 8 + self.declared_size


@dataclasses.dataclass(frozen=True)
class DisconnectFrame(Frame):
    """Orderly teardown marker, forwarded along bridge chains (§4.2)."""

    reason: str = ""

    command: typing.ClassVar[Command] = Command.PH_DISCONNECT

    def wire_size(self) -> int:
        return 4 + len(self.reason)


# ----------------------------------------------------------------------
# discovery payloads (Fig. 3.7: device / prototype / service /
# neighbourhood information fetched during the inquiry)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, slots=True)
class NeighbourEntry(Frame):
    """One row of a DeviceStorage snapshot sent as neighbourhood info.

    Carries everything the receiver's ``AnalyzeNeighbourhoodDevices``
    needs: identity, route cost (jump), route quality (sum and per-link
    minimum, §3.4.1), the device's own mobility class, and its services.
    A row checks its route figures (``ValueError`` for a negative one)
    and sums its wire size once, when it is built; a storage reuses an
    unchanged row across snapshots, so neither is paid again.
    """

    address: str
    name: str
    prototype: str
    mobility: MobilityClass
    jump: int
    route_quality_sum: int
    route_min_quality: int
    services: tuple[ServiceRecord, ...] = ()
    _wire_size: int = dataclasses.field(init=False, repr=False,
                                        compare=False)

    def __post_init__(self) -> None:
        # Comparing first spares valid rows, built at every storage
        # change, the call; check_route_figures raises the error.
        if (self.jump < 0 or self.route_quality_sum < 0
                or self.route_min_quality < 0):
            check_route_figures(self.jump, self.route_quality_sum,
                                self.route_min_quality)
        size = 17 + len(self.name) + len(self.prototype) + 4 + 1 + 4 + 4
        for service in self.services:
            size += service.wire_size()
        object.__setattr__(self, "_wire_size", size)

    def wire_size(self) -> int:
        return self._wire_size


class Neighbourhood(tuple):
    """An immutable, validated DeviceStorage snapshot that knows its
    wire size.

    A daemon builds one per storage change and shares it with every
    response until the next change, so the rows' bytes are summed once
    here, not once per response.  Each row checked its figures and
    knows its size from when it was built, so the sum only reads them.
    """

    def __new__(cls, entries: typing.Iterable[NeighbourEntry] = ()):
        self = super().__new__(cls, entries)
        self._wire_size = sum(entry._wire_size for entry in self)
        return self

    def wire_size(self) -> int:
        """``sum(entry.wire_size() for entry in self)``, summed once."""
        return self._wire_size


@dataclasses.dataclass(frozen=True)
class DiscoveryResponse(Frame):
    """The bundle a daemon returns to one discovery inquiry.

    The thesis fetches device, prototype, service and neighbourhood
    information over four short connections (Fig. 3.7) or optionally one
    unified connection; the bundle content is identical either way.
    """

    identity: DeviceIdentity
    prototype: str
    services: tuple[ServiceRecord, ...]
    #: Any sequence of entries; kept as a :class:`Neighbourhood`.
    neighbourhood: Neighbourhood
    #: §4.0's bottleneck hint: fraction of remaining bridge capacity; the
    #: inquirer scales the measured link quality by it when the responder
    #: has ``advertise_load_in_quality`` enabled.
    load_factor: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.neighbourhood, Neighbourhood):
            object.__setattr__(self, "neighbourhood",
                               Neighbourhood(self.neighbourhood))

    def wire_size(self) -> int:
        return (self.identity.wire_size() + len(self.prototype) + 4
                + sum(s.wire_size() for s in self.services)
                + self.neighbourhood.wire_size())

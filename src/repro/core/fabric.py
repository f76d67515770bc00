"""The fabric: simulation-wide rendezvous between PeerHood nodes.

The real stack relies on the OS for two things the simulator must provide
explicitly: *finding the peer's daemon* (Bluetooth SDP answers "is this a
PeerHood device?", §2.3) and *delivering an incoming RFCOMM/TCP connection
to the peer's listening engine*.  The fabric is that substrate: a registry
of running nodes plus the physical :class:`~repro.radio.channel.
LinkEstablisher`, with traffic metering on every frame.
"""

from __future__ import annotations

import typing

from repro.core.errors import TargetNotAvailableError
from repro.metrics.counters import TrafficMeter
from repro.metrics.trace import EventTrace
from repro.radio.channel import Link, LinkEstablisher
from repro.radio.technologies import Technology
from repro.radio.world import World

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import PeerHoodNode
    from repro.core.protocol import Frame


class Fabric:
    """Registry of PeerHood nodes + metered physical connectivity."""

    def __init__(self, world: World):
        self.world = world
        self.sim = world.sim
        self.establisher = LinkEstablisher(world)
        self.meter = TrafficMeter()
        self.trace = EventTrace()
        self._nodes: dict[str, "PeerHoodNode"] = {}
        self._by_address: dict[str, "PeerHoodNode"] = {}

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def register(self, node: "PeerHoodNode") -> None:
        """Add a node; one per world node id (and per device address)."""
        if node.node_id in self._nodes:
            raise ValueError(f"node already registered: {node.node_id!r}")
        if node.address in self._by_address:
            raise ValueError(
                f"address already registered: {node.address!r}")
        self._nodes[node.node_id] = node
        self._by_address[node.address] = node

    def node(self, node_id: str) -> "PeerHoodNode | None":
        """Look up a registered node."""
        return self._nodes.get(node_id)

    def node_by_address(self, address: str) -> "PeerHoodNode | None":
        """Resolve a device address back to the node, if registered.

        O(1) via the address index (the seed scanned all nodes; discovery
        resolves addresses for every fetched neighbourhood entry, so this
        is on the per-round hot path at large N).
        """
        return self._by_address.get(address)

    def is_peerhood(self, node_id: str) -> bool:
        """The SDP check: does the node run a PeerHood daemon? (§2.3)."""
        node = self._nodes.get(node_id)
        return node is not None and node.daemon.running

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def connect(self, initiator_id: str, target_id: str, tech: Technology,
                retries: int = 0) -> typing.Generator:
        """Process generator: physical link + engine accept, or raise.

        Raises the radio errors (:class:`ConnectFault`, :class:`OutOfRange`)
        on establishment failure and :class:`TargetNotAvailableError` when
        no listening engine answers at the target.
        """
        link = yield from self.establisher.connect(
            initiator_id, target_id, tech, retries=retries)
        target = self._nodes.get(target_id)
        if target is None or not target.daemon.running:
            link.close()
            raise TargetNotAvailableError(
                f"no PeerHood daemon listening on {target_id!r}")
        target.library.engine.accept(link)
        self.trace.record(self.sim.now, initiator_id, "link-established",
                          peer=target_id, tech=tech.name,
                          link_id=link.link_id)
        return link

    def transmit(self, link: Link, sender_id: str, frame: "Frame",
                 category: str) -> float:
        """Send one protocol frame on a link, metering the traffic."""
        size = frame.wire_size()
        self.meter.count(sender_id, category, size)
        return link.send(sender_id, frame, size)

"""The PeerHood daemon (§2.2.1).

"Daemon is the main class of PeerHood which consists of a group of network
plugins in charge of information exchanging with other devices, a device
storage where all the remote devices information ... are stored."

Per the §3.5 redesign recommendation, plugins gather all fetched
information first and apply it to the shared DeviceStorage in a single
update phase, so no lock is needed (one simulator event is atomic — the
moral equivalent of the short critical section the thesis asks for).

Scaling: the daemon itself holds only per-device state (storage, registry,
plugins).  The per-round cost of its discovery side is governed by the
plugins' neighbor enumeration, which queries the world's spatial-grid
index (O(neighbors), see :mod:`repro.radio.spatial`) rather than scanning
every registered device — the property that keeps large-N scenarios
(hundreds of devices, ``repro.scenarios.large_scale``) tractable.
"""

from __future__ import annotations

import itertools
import typing

from repro.core.bridge import BridgeService
from repro.core.device_storage import DeviceStorage
from repro.core.protocol import DiscoveryResponse
from repro.core.service import (
    BRIDGE_SERVICE_NAME,
    BRIDGE_SERVICE_PORT,
    ServiceRecord,
    ServiceRegistry,
)
from repro.radio.technologies import Technology

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import PeerHoodNode
    from repro.plugins.base import Plugin

#: Monotonic daemon "process id" source (the unused checksum, §2.3).
_pid_counter = itertools.count(1000)


class Daemon:
    """Per-device daemon: plugins + storage + registry + bridge service."""

    def __init__(self, node: "PeerHoodNode"):
        self.node = node
        self.sim = node.sim
        self.pid = next(_pid_counter)
        config = node.config
        self.storage = DeviceStorage(
            own_address=node.address,
            policy=config.routing,
            stale_after_loops=config.stale_after_loops,
        )
        self.registry = ServiceRegistry()
        self.bridge_service = BridgeService(node)
        self.plugins: list["Plugin"] = []
        self._running = False

    @property
    def running(self) -> bool:
        """True between start() and stop()."""
        return self._running

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bring the daemon up: bridge service, plugins, inquiry threads."""
        if self._running:
            return
        self._running = True
        if self.node.config.bridge_enabled and (
                BRIDGE_SERVICE_NAME not in self.registry):
            self.registry.register(ServiceRecord(
                name=BRIDGE_SERVICE_NAME, attribute="relay",
                port=BRIDGE_SERVICE_PORT, hidden=True))
        if not self.plugins:
            self.plugins = self._build_plugins()
        for plugin in self.plugins:
            plugin.start()
        self.node.fabric.trace.record(
            self.sim.now, self.node.node_id, "daemon-started",
            pid=self.pid,
            plugins=[p.tech.name for p in self.plugins])

    def stop(self) -> None:
        """Shut down: plugins stop at their next loop check."""
        if not self._running:
            return
        self._running = False
        self.bridge_service.close_all()
        self.node.library.engine.close_all()
        self.node.fabric.trace.record(
            self.sim.now, self.node.node_id, "daemon-stopped", pid=self.pid)

    def _build_plugins(self) -> list["Plugin"]:
        from repro.plugins import plugin_for  # late: avoid import cycle

        return [plugin_for(self.node, tech)
                for tech in self.node.technologies]

    # ------------------------------------------------------------------
    # discovery responder (the "listening to advertise" side, §2.2.1)
    # ------------------------------------------------------------------
    def handle_discovery_fetch(
            self, tech: Technology) -> DiscoveryResponse | None:
        """Answer one information fetch from an inquiring peer (Fig. 3.7).

        Returns None when the daemon is down (the inquirer sees a failed
        short connection).  The neighbourhood is the storage's shared
        snapshot, whose wire size is summed once per storage change.
        """
        if not self._running:
            return None
        return DiscoveryResponse(
            identity=self.node.identity,
            prototype=tech.name,
            services=tuple(self.registry.visible_services()),
            neighbourhood=self.storage.snapshot(),
        )

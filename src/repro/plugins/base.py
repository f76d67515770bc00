"""Plugin: the inquiry thread shared by every technology.

The loop implements Fig. 3.12 with the §3.5 redesign: all information
fetching happens first into a local list, and the shared DeviceStorage is
updated in one atomic phase afterwards.

One inquiry cycle:

1. mark ourselves inquiring (Bluetooth becomes undiscoverable, §3.4.2) and
   scan for ``inquiry_duration_s``, sampling the neighbourhood at several
   instants during the scan;
2. SDP-check each response for the PeerHood tag (§2.3);
3. for each PeerHood-capable response: fetch device / prototype / service /
   neighbourhood information (Fig. 3.7) over one unified connection
   (§3.4.1) if it is new or due a re-check (§3.5's service-checking
   interval), otherwise just refresh its timestamp and measured link
   quality;
4. update phase: fold fetches into the DeviceStorage and run
   AnalyzeNeighbourhoodDevices (Fig. 3.13) on each snapshot;
5. age the silent devices ("make older") and evict the stale;
6. idle for ``inquiry_interval_s`` and repeat.

A per-node random phase offset desynchronises the loops — without it every
Bluetooth device would scan in lockstep and, being mutually undiscoverable
while scanning, never find each other (the paper's random discovery misses,
§3.4.2, fall out of this naturally).
"""

from __future__ import annotations

import typing

from repro.core.config import SERVICE_CHECK_INTERVAL_LOOPS
from repro.core.protocol import DiscoveryResponse
from repro.radio.technologies import Technology

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import PeerHoodNode

#: Approximate size of one fetch request message, bytes.
_FETCH_REQUEST_BYTES = 24


class Plugin:
    """Discovery loop for one technology on one node."""

    def __init__(self, node: "PeerHoodNode", tech: Technology):
        self.node = node
        self.tech = tech
        self.sim = node.sim
        self.world = node.fabric.world
        self.fabric = node.fabric
        self.rng = node.sim.rng(f"plugin/{node.node_id}/{tech.name}")
        self._process = None

    @property
    def node_id(self) -> str:
        return self.node.node_id

    @property
    def storage(self):
        return self.node.daemon.storage

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the inquiry thread (idempotent while running)."""
        if self._process is not None and not self._process.triggered:
            return
        self._process = self.sim.spawn(
            self._run(), name=f"inquiry:{self.node_id}:{self.tech.name}")

    def _run(self) -> typing.Generator:
        # Random phase offset to desynchronise the fleet's scan windows.
        yield self.sim.timeout(
            self.rng.uniform(0.0, self.tech.search_cycle_s))
        while self.node.daemon.running:
            yield from self._one_loop()
            # Jittered idle: real inquiry timing is randomised, which keeps
            # two devices' scan windows from colliding forever (§3.4.2's
            # random misses stay random instead of becoming systematic).
            yield self.sim.timeout(
                self.tech.inquiry_interval_s * self.rng.uniform(0.7, 1.3))

    # ------------------------------------------------------------------
    # one Fig. 3.12 cycle
    # ------------------------------------------------------------------
    def _one_loop(self) -> typing.Generator:
        responses = yield from self._scan()
        fetched: list[tuple[str, DiscoveryResponse, int]] = []
        refreshed: list[tuple[str, int]] = []
        responded_addresses: list[str] = []
        for other_id in responses:
            if not self.fabric.is_peerhood(other_id):
                continue  # SDP query found no PeerHood tag (§2.3)
            other_node = self.fabric.node(other_id)
            assert other_node is not None
            address = other_node.address
            quality = self.world.link_quality(
                self.node_id, other_id, self.tech)
            if quality <= 0:
                continue  # drifted out of range since the scan sample
            responded_addresses.append(address)
            if self.storage.needs_refetch(address,
                                          SERVICE_CHECK_INTERVAL_LOOPS):
                response = yield from self._fetch_information(other_id)
                if response is not None:
                    measured = self.world.link_quality(
                        self.node_id, other_id, self.tech)
                    fetched.append((address, response, measured))
                # A failed fetch still counts as a response: the device is
                # there, we just could not talk to it this loop.
            else:
                refreshed.append((address, quality))
        self._update_storage(fetched, refreshed, responded_addresses)

    def _scan(self) -> typing.Generator:
        """Run one inquiry scan; returns the node ids that responded.

        A peer is heard when it is in range at the end of the scan and it
        had a long-enough discoverable gap during the scan window —
        Bluetooth's asymmetric discovery means a peer that spent our whole
        scan running its own inquiry is missed (§3.4.2).
        """
        scan_start = self.sim.now
        self.world.mark_inquiring(self.node_id, self.tech, True)
        try:
            yield self.sim.timeout(self.tech.inquiry_duration_s)
        finally:
            self.world.mark_inquiring(self.node_id, self.tech, False)
        scan_end = self.sim.now
        # Grid-backed neighbor enumeration: only the nodes in the 3x3
        # cells around us are examined, not the whole world (O(neighbors)
        # per scan instead of O(N); see radio/spatial.py).
        return [other_id
                for other_id in self.world.neighbors(self.node_id, self.tech)
                if self.world.heard_during_scan(other_id, self.tech,
                                                scan_start, scan_end)]

    def _fetch_information(
            self, other_id: str,
    ) -> typing.Generator:
        """Fetch the Fig. 3.7 information bundle over one connection.

        §3.4.1 unifies the figure's four short connections (device,
        prototype, service and neighbourhood information) into one.

        Returns the :class:`DiscoveryResponse` or None on failure (fault,
        peer out of range, or peer daemon down).
        """
        yield self.sim.timeout(self.tech.fetch_time_s)
        if not self.world.in_range(self.node_id, other_id, self.tech):
            return None
        if self.rng.bernoulli(self.tech.connect_fault_probability):
            return None
        other_node = self.fabric.node(other_id)
        if other_node is None:
            return None
        response = other_node.daemon.handle_discovery_fetch(self.tech)
        if response is None:
            return None
        self.fabric.meter.count(self.node_id, "discovery",
                                _FETCH_REQUEST_BYTES)
        self.fabric.meter.count(other_id, "discovery", response.wire_size())
        return response

    def _update_storage(
            self,
            fetched: list[tuple[str, DiscoveryResponse, int]],
            refreshed: list[tuple[str, int]],
            responded_addresses: list[str],
    ) -> None:
        """Atomic update phase (§3.5's recommended design)."""
        now = self.sim.now
        for address, response, quality in fetched:
            reporter = self.storage.update_direct(
                identity=response.identity,
                prototype=response.prototype,
                quality=quality,
                services=response.services,
                now=now,
                neighbourhood=response.neighbourhood,
            )
            self.storage.analyze_neighbourhood(
                reporter, response.neighbourhood, now)
        for address, quality in refreshed:
            self.storage.mark_responded(address, quality, now)
        evicted = self.storage.make_older(responded_addresses)
        self.fabric.trace.record(
            now, self.node_id, "discovery-loop",
            tech=self.tech.name,
            responses=len(responded_addresses),
            fetched=len(fetched),
            evicted=evicted,
            known=len(self.storage))

"""DeviceStorage: the per-daemon table of every known device.

This is "the class where all the remote devices information is stored"
(§2.2.1), extended by the thesis into "an Ad-hoc routing address table"
(§3.3): each entry carries the ``bridge`` next-hop and ``jump`` count in
addition to identity, services, quality and mobility.

The update rules implement the two activity diagrams:

* Fig. 3.12 (BTPlugin loop) — timestamps: responding devices reset to 0,
  silent ones "make older" and are erased past the staleness limit;
* Fig. 3.13 (AnalyzeNeighbourhoodDevices) — a neighbour's snapshot is
  folded in: own-device entries are filtered, new devices added with
  incremented jump and the reporter as bridge, and already-stored devices
  keep the *better* route under :func:`repro.core.routing.is_better_route`.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.config import RoutingPolicy
from repro.core.device import DeviceIdentity, MobilityClass
from repro.core.protocol import NeighbourEntry, Neighbourhood
from repro.core.routing import (
    RouteMetrics,
    check_route_figures,
    direct_route,
    is_better_route,
    upstream_route,
)
from repro.core.service import ServiceRecord


@dataclasses.dataclass
class StoredDevice:
    """One row of the DeviceStorage (Fig. 3.2 plus the Ch. 3 additions)."""

    address: str
    name: str
    prototype: str
    mobility: MobilityClass
    route: RouteMetrics
    bridge: str | None
    services: tuple[ServiceRecord, ...] = ()
    timestamp: int = 0
    loops_since_fetch: int = 0
    #: The device's own neighbourhood snapshot as fetched (Fig. 3.2 keeps
    #: per-device neighbour lists).  Populated for direct devices only;
    #: HandoverThread state 0 "searches for the actual connection address
    #: in each device's neighbourlist" here (§5.2.1).
    neighbourhood: tuple[NeighbourEntry, ...] = ()
    #: The §4.0 bottleneck hint received at the last fetch: subsequent
    #: quality refreshes keep scaling by it until the next fetch.
    load_factor: float = 1.0

    @property
    def jump(self) -> int:
        """Hop count; 0 for direct neighbours (§3.3)."""
        return self.route.jump

    @property
    def link_quality(self) -> int:
        """Quality figure shown in device lists (route sum, Fig. 3.8)."""
        return self.route.quality_sum

    def is_direct(self) -> bool:
        """True for devices inside our own coverage."""
        return self.route.jump == 0

    def to_neighbour_entry(self) -> NeighbourEntry:
        """Serialise for a neighbourhood-information response (§3.3)."""
        return NeighbourEntry(
            address=self.address,
            name=self.name,
            prototype=self.prototype,
            mobility=self.mobility,
            jump=self.route.jump,
            route_quality_sum=self.route.quality_sum,
            route_min_quality=self.route.min_link_quality,
            services=self.services,
        )


class DeviceStorage:
    """Address-keyed device table with the paper's route-selection rules.

    Parameters
    ----------
    own_address:
        This device's address — "Own device comparison filter is used to
        avoid duplicated route" (§3.5).
    policy:
        Routing policy (thresholds, preference order, jump cap).
    """

    def __init__(self, own_address: str, policy: RoutingPolicy | None = None,
                 stale_after_loops: int = 2):
        if stale_after_loops < 1:
            raise ValueError("stale-after must be >= 1 loop")
        self.own_address = own_address
        self.policy = policy or RoutingPolicy()
        self.stale_after_loops = stale_after_loops
        self._devices: dict[str, StoredDevice] = {}
        #: The last snapshot built; every mutator drops it.
        self._snapshot: Neighbourhood | None = None
        #: Work counter: ``NeighbourEntry`` rows built by :meth:`snapshot`.
        self.snapshot_rows = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._devices)

    def __contains__(self, address: str) -> bool:
        return address in self._devices

    def get(self, address: str) -> StoredDevice | None:
        """Look up one device by address."""
        return self._devices.get(address)

    def devices(self) -> list[StoredDevice]:
        """All known devices, sorted by address for determinism."""
        return [self._devices[a] for a in sorted(self._devices)]

    def direct_devices(self) -> list[StoredDevice]:
        """Devices inside our own coverage (jump 0)."""
        return [d for d in self.devices() if d.is_direct()]

    def remote_devices(self) -> list[StoredDevice]:
        """Devices reachable only through bridges (jump > 0)."""
        return [d for d in self.devices() if not d.is_direct()]

    def find_service(self, service_name: str) -> list[StoredDevice]:
        """Devices advertising the named service, best route first."""
        matches = [d for d in self.devices()
                   if any(s.name == service_name for s in d.services)]
        matches.sort(key=lambda d: (d.route.jump, -d.route.quality_sum,
                                    d.address))
        return matches

    def snapshot(self) -> Neighbourhood:
        """The neighbourhood info sent to an inquiring peer (§3.3).

        An immutable tuple of frozen rows, built once per storage change
        and shared by every response (and every peer's retained
        ``StoredDevice.neighbourhood``) until the next mutation; it is
        never copied per response.
        """
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = Neighbourhood(
                d.to_neighbour_entry() for d in self.devices())
            self.snapshot_rows += len(snapshot)
        return snapshot

    # ------------------------------------------------------------------
    # direct-device updates (Fig. 3.12)
    # ------------------------------------------------------------------
    def update_direct(self, identity: DeviceIdentity, prototype: str,
                      quality: int, services: typing.Sequence[ServiceRecord],
                      now: float,
                      neighbourhood: typing.Sequence[NeighbourEntry] = (),
                      load_factor: float = 1.0) -> StoredDevice:
        """Record a device answered our inquiry and we fetched its info.

        A direct observation always replaces any stored multi-hop route —
        physical presence inside our coverage beats any relayed path.
        A tuple ``neighbourhood`` (a peer's shared snapshot) is kept as
        is, not copied.
        """
        self._snapshot = None
        entry = StoredDevice(
            address=identity.address,
            name=identity.name,
            prototype=prototype,
            mobility=identity.mobility,
            route=direct_route(quality, identity.mobility),
            bridge=None,
            services=tuple(services),
            timestamp=0,
            loops_since_fetch=0,
            neighbourhood=(neighbourhood if isinstance(neighbourhood, tuple)
                           else tuple(neighbourhood)),
            load_factor=load_factor,
        )
        self._devices[identity.address] = entry
        return entry

    def mark_responded(self, address: str, quality: int, now: float) -> None:
        """A known direct device answered the inquiry (no re-fetch).

        Resets staleness and refreshes the measured link quality, keeping
        services from the previous fetch (§3.5's service-check interval).
        """
        self._snapshot = None
        entry = self._devices.get(address)
        if entry is None or not entry.is_direct():
            return
        entry.timestamp = 0
        entry.loops_since_fetch += 1
        scaled = round(quality * entry.load_factor)
        entry.route = direct_route(scaled, entry.mobility)

    def make_older(self, responded: typing.Iterable[str]) -> list[str]:
        """Age direct devices that stayed silent this loop (Fig. 3.12).

        Returns the addresses evicted.  Evicting a direct device also
        drops every remote route bridged through it — those entries were
        learnt from its neighbourhood snapshot and are now unreachable.
        """
        responded_set = set(responded)
        evicted: list[str] = []
        for address, entry in list(self._devices.items()):
            if not entry.is_direct() or address in responded_set:
                continue
            entry.timestamp += 1
            if entry.timestamp > self.stale_after_loops:
                evicted.append(address)
        for address in evicted:
            self._evict_with_routes(address)
        return evicted

    def _evict_with_routes(self, address: str) -> None:
        self._snapshot = None
        del self._devices[address]
        dependent = [a for a, d in self._devices.items()
                     if d.bridge == address]
        for route_address in dependent:
            del self._devices[route_address]

    def needs_refetch(self, address: str, interval_loops: int) -> bool:
        """§3.5: re-fetch a stored device only every N loops.

        A device currently stored behind a bridge that answered our
        inquiry *directly* is always fetched — it physically entered our
        coverage and its entry must be promoted to jump 0.
        """
        entry = self._devices.get(address)
        if entry is None or not entry.is_direct():
            return True
        return entry.loops_since_fetch >= interval_loops

    # ------------------------------------------------------------------
    # neighbourhood analysis (Fig. 3.13)
    # ------------------------------------------------------------------
    def analyze_neighbourhood(self, reporter: StoredDevice,
                              entries: typing.Sequence[NeighbourEntry],
                              now: float) -> list[str]:
        """Fold a neighbour's DeviceStorage snapshot into ours.

        ``reporter`` must be a direct device we just fetched from; the
        link quality to it extends every advertised route (Fig. 3.8).
        Returns the addresses added or improved.

        Routes previously learnt through this reporter that it no longer
        advertises are dropped — the reporter's snapshot is authoritative
        for its own subtree.

        Every entry past the own-device and reporter filters has its
        figures validated; one :class:`RouteMetrics` is built per entry
        that also survives the ``max_jump`` cut and the never-shadow-a-
        direct-device rule.
        """
        self._snapshot = None
        if not reporter.is_direct():
            raise ValueError("neighbourhood analysis requires a direct "
                             f"reporter, got jump {reporter.jump}")
        link_quality = reporter.route.quality_sum
        bridge_mobility = reporter.mobility
        max_jump = self.policy.max_jump
        advertised = {e.address for e in entries}
        stale_via_reporter = [
            address for address, device in self._devices.items()
            if device.bridge == reporter.address
            and address not in advertised]
        for address in stale_via_reporter:
            del self._devices[address]

        changed: list[str] = []
        for entry in entries:
            if entry.address == self.own_address:
                continue  # own-device filter (§3.5)
            if entry.address == reporter.address:
                continue  # the reporter is already stored directly
            check_route_figures(entry.jump, entry.route_quality_sum,
                                entry.route_min_quality)
            if entry.jump + 1 > max_jump:
                continue
            stored = self._devices.get(entry.address)
            if stored is not None and stored.is_direct():
                continue  # never shadow a direct observation
            candidate_route = upstream_route(
                entry.jump, entry.route_quality_sum, entry.route_min_quality,
                link_quality, bridge_mobility)
            if stored is None:
                self._devices[entry.address] = StoredDevice(
                    address=entry.address,
                    name=entry.name,
                    prototype=entry.prototype,
                    mobility=entry.mobility,
                    route=candidate_route,
                    bridge=reporter.address,
                    services=entry.services,
                )
                changed.append(entry.address)
                continue
            if stored.bridge == reporter.address or is_better_route(
                    candidate_route, stored.route, self.policy):
                stored.route = candidate_route
                stored.bridge = reporter.address
                stored.services = entry.services
                stored.name = entry.name
                stored.prototype = entry.prototype
                stored.mobility = entry.mobility
                changed.append(entry.address)
        return changed

    # ------------------------------------------------------------------
    # handover route search (§5.2.1 state 0)
    # ------------------------------------------------------------------
    def find_handover_routes(
            self, target_address: str,
    ) -> list[tuple[StoredDevice, int, int]]:
        """Candidate bridges to reach ``target_address``, best first.

        Scans every *direct* neighbour's retained neighbourhood snapshot
        for the target (the paper's state 0) and returns
        ``(bridge_device, route_quality_sum, route_min_quality)`` tuples
        sorted best-first: threshold-satisfying routes (Fig. 3.9) ahead,
        then by summed quality descending, then static bridges first.
        """
        candidates: list[tuple[StoredDevice, int, int]] = []
        for device in self.direct_devices():
            if device.address == target_address:
                continue
            for entry in device.neighbourhood:
                if entry.address != target_address:
                    continue
                if entry.jump != 0:
                    continue  # only bridges adjacent to the target help
                quality_sum = (device.route.quality_sum
                               + entry.route_quality_sum)
                min_quality = min(device.route.min_link_quality,
                                  entry.route_min_quality)
                candidates.append((device, quality_sum, min_quality))
                break

        def sort_key(item: tuple[StoredDevice, int, int]):
            device, quality_sum, min_quality = item
            if self.policy.use_quality_threshold:
                threshold_key = (0 if min_quality
                                 >= self.policy.quality_threshold else 1)
            else:
                threshold_key = 0
            if self.policy.prefer_static_bridges and self.policy.use_mobility:
                mobility_key = int(device.mobility)
            else:
                mobility_key = 0
            return (threshold_key, -quality_sum, mobility_key,
                    device.address)

        candidates.sort(key=sort_key)
        return candidates

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def erase(self, address: str) -> None:
        """Remove a device and every route bridged through it."""
        if address in self._devices:
            self._evict_with_routes(address)

    def clear(self) -> None:
        """Drop everything (daemon restart)."""
        self._snapshot = None
        self._devices.clear()

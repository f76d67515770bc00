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

Two memos keep a fold's cost per *changed* row: each stored device keeps
its route's rank (so a candidate is ranked from its raw figures and
compared without building its route first) and its last snapshot row
(so :meth:`DeviceStorage.snapshot` rebuilds only the rows that changed).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.config import RoutingPolicy
from repro.core.device import DeviceIdentity, MobilityClass
from repro.core.protocol import NeighbourEntry, Neighbourhood
from repro.core.routing import (
    RouteMetrics,
    direct_route,
    rank_figures,
    route_rank,
)
from repro.core.service import ServiceRecord


@dataclasses.dataclass(slots=True)
class StoredDevice:
    """One row of the DeviceStorage (Fig. 3.2 plus the Ch. 3 additions)."""

    address: str
    name: str
    prototype: str
    mobility: MobilityClass
    route: RouteMetrics
    #: ``route_rank(route, policy)`` under the storage's policy, set with
    #: every new route so a fold compares a candidate's rank against it.
    rank: tuple
    bridge: str | None
    services: tuple[ServiceRecord, ...] = ()
    timestamp: int = 0
    loops_since_fetch: int = 0
    #: The device's own neighbourhood snapshot as fetched (Fig. 3.2 keeps
    #: per-device neighbour lists).  Populated for direct devices only;
    #: HandoverThread state 0 "searches for the actual connection address
    #: in each device's neighbourlist" here (§5.2.1).
    neighbourhood: tuple[NeighbourEntry, ...] = ()
    #: This device's row in the last snapshot built, reused by the next
    #: one; None until built and whenever a field the row shows changes.
    row: NeighbourEntry | None = dataclasses.field(
        default=None, repr=False, compare=False)

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
        #: Work counters (not settings; they enter no record):
        #: rows in the snapshots :meth:`snapshot` built, the rows it had
        #: to rebuild for them, and the ``RouteMetrics`` folds built.
        self.snapshot_rows = 0
        self.rows_built = 0
        self.routes_built = 0

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
        never copied per response.  A device whose row fields did not
        change since the last snapshot contributes its previous row.
        """
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = Neighbourhood(self._rows())
            self.snapshot_rows += len(snapshot)
        return snapshot

    def _rows(self) -> typing.Iterator[NeighbourEntry]:
        for device in self.devices():
            row = device.row
            if row is None:
                row = device.row = device.to_neighbour_entry()
                self.rows_built += 1
            yield row

    # ------------------------------------------------------------------
    # direct-device updates (Fig. 3.12)
    # ------------------------------------------------------------------
    def update_direct(self, identity: DeviceIdentity, prototype: str,
                      quality: int, services: typing.Sequence[ServiceRecord],
                      now: float,
                      neighbourhood: typing.Sequence[NeighbourEntry] = ()
                      ) -> StoredDevice:
        """Record a device answered our inquiry and we fetched its info.

        A direct observation always replaces any stored multi-hop route —
        physical presence inside our coverage beats any relayed path.
        A tuple ``neighbourhood`` (a peer's shared snapshot) is kept as
        is, not copied.
        """
        self._snapshot = None
        route = direct_route(quality, identity.mobility)
        entry = StoredDevice(
            address=identity.address,
            name=identity.name,
            prototype=prototype,
            mobility=identity.mobility,
            route=route,
            rank=route_rank(route, self.policy),
            bridge=None,
            services=tuple(services),
            timestamp=0,
            loops_since_fetch=0,
            neighbourhood=(neighbourhood if isinstance(neighbourhood, tuple)
                           else tuple(neighbourhood)),
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
        # A direct route's only free figure is its quality.
        if quality != entry.route.quality_sum:
            entry.route = direct_route(quality, entry.mobility)
            entry.rank = route_rank(entry.route, self.policy)
            entry.row = None

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

        Every entry checked its route figures when it was built
        (:class:`~repro.core.protocol.NeighbourEntry`).  Each candidate is
        ranked from its raw figures, and a :class:`RouteMetrics` is built
        only for a new device, a winning route or a changed route through
        the same bridge; a same-bridge entry with unchanged figures keeps
        the stored route, and one with unchanged services and identity
        also keeps the device's snapshot row.
        """
        self._snapshot = None
        if not reporter.is_direct():
            raise ValueError("neighbourhood analysis requires a direct "
                             f"reporter, got jump {reporter.jump}")
        reporter_address = reporter.address
        own_address = self.own_address
        link_quality = reporter.route.quality_sum
        bridge_mobility = reporter.mobility
        policy = self.policy
        max_jump = policy.max_jump
        devices = self._devices
        advertised = {e.address for e in entries}
        stale_via_reporter = [
            address for address, device in devices.items()
            if device.bridge == reporter_address
            and address not in advertised]
        for address in stale_via_reporter:
            del devices[address]

        changed: list[str] = []
        for entry in entries:
            address = entry.address
            if address == own_address:
                continue  # own-device filter (§3.5)
            if address == reporter_address:
                continue  # the reporter is already stored directly
            jump = entry.jump + 1
            if jump > max_jump:
                continue
            stored = devices.get(address)
            if stored is not None and stored.is_direct():
                continue  # never shadow a direct observation
            quality_sum = entry.route_quality_sum + link_quality
            min_quality = min(entry.route_min_quality, link_quality)
            if stored is None:
                route, rank = self._fold_route(jump, bridge_mobility,
                                               quality_sum, min_quality)
                devices[address] = StoredDevice(
                    address=address,
                    name=entry.name,
                    prototype=entry.prototype,
                    mobility=entry.mobility,
                    route=route,
                    rank=rank,
                    bridge=reporter_address,
                    services=entry.services,
                )
                changed.append(address)
                continue
            if stored.bridge == reporter_address:
                old = stored.route
                if (old.jump != jump or old.quality_sum != quality_sum
                        or old.min_link_quality != min_quality
                        or old.first_hop_mobility != bridge_mobility):
                    stored.route, stored.rank = self._fold_route(
                        jump, bridge_mobility, quality_sum, min_quality)
                    stored.row = None
                changed.append(address)
            else:
                rank = rank_figures(jump, bridge_mobility, quality_sum,
                                    min_quality, policy)
                if not rank < stored.rank:
                    continue
                stored.route, stored.rank = self._fold_route(
                    jump, bridge_mobility, quality_sum, min_quality)
                stored.bridge = reporter_address
                stored.row = None
                changed.append(address)
            if (stored.services != entry.services
                    or stored.name != entry.name
                    or stored.prototype != entry.prototype
                    or stored.mobility != entry.mobility):
                stored.services = entry.services
                stored.name = entry.name
                stored.prototype = entry.prototype
                stored.mobility = entry.mobility
                stored.row = None
        return changed

    def _fold_route(self, jump: int, first_hop_mobility: MobilityClass,
                    quality_sum: int, min_link_quality: int,
                    ) -> tuple[RouteMetrics, tuple]:
        """A route a fold stores, with its rank."""
        self.routes_built += 1
        return (RouteMetrics(jump, first_hop_mobility, quality_sum,
                             min_link_quality),
                rank_figures(jump, first_hop_mobility, quality_sum,
                             min_link_quality, self.policy))

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
            # §3.4.3: static bridges win ties.
            mobility_key = (int(device.mobility) if self.policy.use_mobility
                            else 0)
            return (threshold_key, -quality_sum, mobility_key,
                    device.address)

        candidates.sort(key=sort_key)
        return candidates

"""Differential oracle for PeerHood discovery's storage memos.

``DeviceStorage`` ranks a fold's candidates from their raw figures,
keeps each stored route's rank, skips re-validating a shared
``Neighbourhood`` and reuses every unchanged snapshot row.  The
reference below is the fold without any of that: it validates every
entry, builds and ranks a ``RouteMetrics`` per candidate, rebuilds a
direct route on every refresh and builds every snapshot row afresh.  A
plaza runs once with each, and the full storage dumps (and snapshots)
taken after every discovery loop must be identical.
"""

import math

import pytest

from repro.core.config import DaemonConfig, RoutingPolicy
from repro.core.device_storage import DeviceStorage, StoredDevice
from repro.core.protocol import Neighbourhood
from repro.core.routing import (
    RouteMetrics,
    check_route_figures,
    direct_route,
    is_better_route,
    route_rank,
)
from repro.plugins.base import Plugin
from repro.scenarios import dense_plaza
from repro.scenarios.large_scale import CITY_DENSITY_PER_M2

COUNT = 30
SECONDS = 60.0


def reference_analyze_neighbourhood(self, reporter, entries, now):
    """The fold with no memo: every candidate validated, built, ranked."""
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

    changed = []
    for entry in entries:
        if entry.address == self.own_address:
            continue
        if entry.address == reporter.address:
            continue
        check_route_figures(entry.jump, entry.route_quality_sum,
                            entry.route_min_quality)
        if entry.jump + 1 > max_jump:
            continue
        stored = self._devices.get(entry.address)
        if stored is not None and stored.is_direct():
            continue
        candidate_route = RouteMetrics(
            jump=entry.jump + 1,
            first_hop_mobility=bridge_mobility,
            quality_sum=entry.route_quality_sum + link_quality,
            min_link_quality=min(entry.route_min_quality, link_quality))
        if stored is None:
            self._devices[entry.address] = StoredDevice(
                address=entry.address,
                name=entry.name,
                prototype=entry.prototype,
                mobility=entry.mobility,
                route=candidate_route,
                rank=route_rank(candidate_route, self.policy),
                bridge=reporter.address,
                services=entry.services,
            )
            changed.append(entry.address)
            continue
        if stored.bridge == reporter.address or is_better_route(
                candidate_route, stored.route, self.policy):
            stored.route = candidate_route
            stored.rank = route_rank(candidate_route, self.policy)
            stored.bridge = reporter.address
            stored.services = entry.services
            stored.name = entry.name
            stored.prototype = entry.prototype
            stored.mobility = entry.mobility
            changed.append(entry.address)
    return changed


def reference_mark_responded(self, address, quality, now):
    """A refresh that always rebuilds the direct route."""
    self._snapshot = None
    entry = self._devices.get(address)
    if entry is None or not entry.is_direct():
        return
    entry.timestamp = 0
    entry.loops_since_fetch += 1
    entry.route = direct_route(quality, entry.mobility)
    entry.rank = route_rank(entry.route, self.policy)


def reference_snapshot(self):
    """A snapshot whose every row is built afresh."""
    if self._snapshot is None:
        self._snapshot = Neighbourhood(
            d.to_neighbour_entry() for d in self.devices())
    return self._snapshot


def dump(storage: DeviceStorage) -> tuple:
    """Every row in order, with the snapshot the storage would send."""
    rows = tuple(
        (d.address, d.route.jump, d.route.first_hop_mobility,
         d.route.quality_sum, d.route.min_link_quality, d.bridge,
         d.services, d.name, d.prototype, d.mobility)
        for d in storage.devices())
    return rows, tuple(storage.snapshot())


def run_plaza(monkeypatch, policy: RoutingPolicy,
              reference: bool) -> list[tuple]:
    """Storage dumps after every discovery loop of one small plaza."""
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(DeviceStorage, "analyze_neighbourhood",
                          reference_analyze_neighbourhood)
            patch.setattr(DeviceStorage, "mark_responded",
                          reference_mark_responded)
            patch.setattr(DeviceStorage, "snapshot", reference_snapshot)
        dumps: list[tuple] = []
        update = Plugin._update_storage

        def dumped_update(plugin, *args, **kwargs):
            update(plugin, *args, **kwargs)
            dumps.append((plugin.sim.now, plugin.node_id,
                          dump(plugin.storage)))

        patch.setattr(Plugin, "_update_storage", dumped_update)
        scenario = dense_plaza(
            count=COUNT, area=math.sqrt(COUNT / CITY_DENSITY_PER_M2), seed=3,
            config=DaemonConfig(routing=policy))
        scenario.start_all()
        scenario.run(until=SECONDS)
    return dumps


@pytest.mark.parametrize("policy", [
    RoutingPolicy(),
    RoutingPolicy(quality_first=True, use_mobility=False),
], ids=["paper", "quality-first"])
def test_memoised_fold_matches_the_reference_after_every_loop(
        monkeypatch, policy):
    expected = run_plaza(monkeypatch, policy, reference=True)
    actual = run_plaza(monkeypatch, policy, reference=False)
    # The plaza exercises multi-hop routes, not just direct ones.
    assert max(row[1] for _, _, (rows, _) in expected
               for row in rows) >= 2
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"storage dumps diverge at loop {index}"


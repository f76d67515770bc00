"""Unit tests for DeviceStorage: Figs. 3.2, 3.12, 3.13 behaviour."""

import dataclasses

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.config import RoutingPolicy
from repro.core.device import DeviceIdentity, MobilityClass
from repro.core.device_storage import DeviceStorage
from repro.core.protocol import (
    DiscoveryResponse,
    NeighbourEntry,
    Neighbourhood,
)
from repro.core.routing import route_rank
from repro.core.service import ServiceRecord

S, H, D = MobilityClass.STATIC, MobilityClass.HYBRID, MobilityClass.DYNAMIC

OWN = DeviceIdentity.create("own-device")


def make_storage(**kwargs):
    return DeviceStorage(own_address=OWN.address, **kwargs)


def identity(name, mobility=D):
    return DeviceIdentity.create(name, mobility)


def entry_for(name, jump=0, quality=255, mobility=D, services=(),
              min_quality=None):
    ident = identity(name, mobility)
    return NeighbourEntry(
        address=ident.address, name=name, prototype="bluetooth",
        mobility=mobility, jump=jump, route_quality_sum=quality,
        route_min_quality=min_quality if min_quality is not None
        else quality, services=tuple(services))


def add_direct(storage, name, quality=255, mobility=D, services=(),
               neighbourhood=(), now=0.0):
    return storage.update_direct(
        identity(name, mobility), "bluetooth", quality, list(services),
        now=now, neighbourhood=neighbourhood)


def test_update_direct_stores_zero_jump_entry():
    storage = make_storage()
    entry = add_direct(storage, "pc", quality=240, mobility=S)
    assert entry.jump == 0
    assert entry.is_direct()
    assert entry.bridge is None
    assert entry.link_quality == 240
    assert storage.get(entry.address) is entry


def test_direct_devices_and_remote_devices_partition():
    storage = make_storage()
    reporter = add_direct(storage, "pc")
    storage.analyze_neighbourhood(reporter, [entry_for("far")], now=0.0)
    assert len(storage.direct_devices()) == 1
    assert len(storage.remote_devices()) == 1
    assert len(storage) == 2


def test_analyze_adds_neighbour_with_incremented_jump_and_bridge():
    """Fig. 3.6: E enters A's storage at jump 1 with B as bridge."""
    storage = make_storage()
    reporter = add_direct(storage, "B", quality=250, mobility=S)
    changed = storage.analyze_neighbourhood(
        reporter, [entry_for("E", jump=0, quality=240)], now=1.0)
    stored = storage.get(identity("E").address)
    assert changed == [stored.address]
    assert stored.jump == 1
    assert stored.bridge == reporter.address
    assert stored.route.quality_sum == 490  # 250 + 240 (Fig. 3.8 addition)
    assert stored.route.min_link_quality == 240


def test_analyze_filters_own_device():
    """§3.5: 'Own device comparison filter is used to avoid duplicated
    route.'"""
    storage = make_storage()
    reporter = add_direct(storage, "B")
    own_echo = NeighbourEntry(
        address=OWN.address, name="own-device", prototype="bluetooth",
        mobility=D, jump=0, route_quality_sum=255, route_min_quality=255)
    storage.analyze_neighbourhood(reporter, [own_echo], now=0.0)
    assert OWN.address not in storage


def test_analyze_does_not_duplicate_reporter():
    storage = make_storage()
    reporter = add_direct(storage, "B")
    storage.analyze_neighbourhood(
        reporter, [entry_for("B", jump=0)], now=0.0)
    assert storage.get(reporter.address).jump == 0
    assert len(storage) == 1


def test_analyze_never_shadows_direct_entry():
    storage = make_storage()
    add_direct(storage, "C", quality=200)
    reporter = add_direct(storage, "B", quality=255)
    storage.analyze_neighbourhood(
        reporter, [entry_for("C", jump=0, quality=255)], now=0.0)
    stored = storage.get(identity("C").address)
    assert stored.is_direct()
    assert stored.route.quality_sum == 200


def test_analyze_replaces_worse_route_fewer_jumps():
    storage = make_storage()
    far_reporter = add_direct(storage, "far-bridge", quality=255)
    storage.analyze_neighbourhood(
        far_reporter, [entry_for("target", jump=2, quality=700)], now=0.0)
    assert storage.get(identity("target").address).jump == 3
    near_reporter = add_direct(storage, "near-bridge", quality=255)
    storage.analyze_neighbourhood(
        near_reporter, [entry_for("target", jump=0, quality=255)], now=1.0)
    stored = storage.get(identity("target").address)
    assert stored.jump == 1
    assert stored.bridge == near_reporter.address


def test_analyze_keeps_better_incumbent():
    storage = make_storage()
    good = add_direct(storage, "good-bridge", quality=255, mobility=S)
    storage.analyze_neighbourhood(
        good, [entry_for("target", jump=0, quality=250)], now=0.0)
    worse = add_direct(storage, "bad-bridge", quality=200, mobility=D)
    storage.analyze_neighbourhood(
        worse, [entry_for("target", jump=0, quality=200)], now=1.0)
    stored = storage.get(identity("target").address)
    assert stored.bridge == good.address


def test_analyze_same_reporter_refreshes_route():
    """The reporter's snapshot is authoritative for routes through it."""
    storage = make_storage()
    reporter = add_direct(storage, "B", quality=255)
    storage.analyze_neighbourhood(
        reporter, [entry_for("target", jump=0, quality=250)], now=0.0)
    # Quality through B degraded; same bridge must still update.
    storage.analyze_neighbourhood(
        reporter, [entry_for("target", jump=0, quality=180)], now=1.0)
    stored = storage.get(identity("target").address)
    assert stored.route.quality_sum == 255 + 180


def test_analyze_drops_routes_reporter_stopped_advertising():
    storage = make_storage()
    reporter = add_direct(storage, "B")
    storage.analyze_neighbourhood(
        reporter, [entry_for("gone", jump=0)], now=0.0)
    assert identity("gone").address in storage
    storage.analyze_neighbourhood(reporter, [], now=1.0)
    assert identity("gone").address not in storage


def test_analyze_respects_max_jump():
    """§3.4.2: a jump limit bounds storage and notification delay."""
    storage = make_storage(policy=RoutingPolicy(max_jump=2))
    reporter = add_direct(storage, "B")
    storage.analyze_neighbourhood(
        reporter, [entry_for("near", jump=1), entry_for("far", jump=5)],
        now=0.0)
    assert identity("near").address in storage  # becomes jump 2
    assert identity("far").address not in storage  # would be jump 6


def test_analyze_requires_direct_reporter():
    storage = make_storage()
    reporter = add_direct(storage, "B")
    storage.analyze_neighbourhood(
        reporter, [entry_for("remote", jump=0)], now=0.0)
    remote = storage.get(identity("remote").address)
    with pytest.raises(ValueError):
        storage.analyze_neighbourhood(remote, [], now=1.0)


def test_mark_responded_resets_timestamp_and_updates_quality():
    storage = make_storage()
    entry = add_direct(storage, "pc", quality=255)
    entry.timestamp = 2
    storage.mark_responded(entry.address, quality=240, now=5.0)
    assert entry.timestamp == 0
    assert entry.route.quality_sum == 240
    assert entry.loops_since_fetch == 1


def test_make_older_evicts_after_stale_limit():
    """Fig. 3.12: silent devices age and are erased."""
    storage = make_storage(stale_after_loops=2)
    entry = add_direct(storage, "pc")
    for _ in range(2):
        evicted = storage.make_older(responded=[])
        assert evicted == []
    evicted = storage.make_older(responded=[])
    assert evicted == [entry.address]
    assert entry.address not in storage


def test_make_older_spares_responders():
    storage = make_storage(stale_after_loops=1)
    entry = add_direct(storage, "pc")
    for _ in range(5):
        storage.mark_responded(entry.address, 255, now=0.0)
        assert storage.make_older(responded=[entry.address]) == []
    assert entry.address in storage


def test_evicting_bridge_cascades_to_routed_devices():
    storage = make_storage(stale_after_loops=1)
    reporter = add_direct(storage, "bridge")
    storage.analyze_neighbourhood(
        reporter, [entry_for("behind", jump=0)], now=0.0)
    storage.make_older(responded=[])
    evicted = storage.make_older(responded=[])
    assert evicted == [reporter.address]
    assert identity("behind").address not in storage
    assert len(storage) == 0


def test_needs_refetch_interval():
    """§3.5: stored devices re-fetched only every N loops."""
    storage = make_storage()
    entry = add_direct(storage, "pc")
    assert not storage.needs_refetch(entry.address, interval_loops=3)
    for _ in range(3):
        storage.mark_responded(entry.address, 255, now=0.0)
    assert storage.needs_refetch(entry.address, interval_loops=3)
    assert storage.needs_refetch("unknown-address", interval_loops=3)


def test_find_service_sorted_by_route():
    storage = make_storage()
    echo = ServiceRecord(name="echo", port=7)
    near = add_direct(storage, "near", services=[echo])
    reporter = add_direct(storage, "bridge")
    storage.analyze_neighbourhood(
        reporter, [entry_for("far", jump=0, services=[echo])], now=0.0)
    matches = storage.find_service("echo")
    assert [m.address for m in matches] == [
        near.address, identity("far").address]
    assert storage.find_service("nothing") == []


def test_snapshot_round_trips_through_neighbour_entries():
    storage = make_storage()
    add_direct(storage, "pc", quality=240, mobility=S,
               services=[ServiceRecord(name="echo", port=7)])
    snapshot = storage.snapshot()
    assert len(snapshot) == 1
    entry = snapshot[0]
    assert entry.jump == 0
    assert entry.route_quality_sum == 240
    assert entry.mobility is S
    assert entry.services[0].name == "echo"


def test_find_handover_routes_scans_neighbourhoods():
    """§5.2.1 state 0: bridges adjacent to the target, best first."""
    storage = make_storage()
    target = identity("server", S)
    add_direct(storage, "weak-bridge", quality=200, mobility=S,
               neighbourhood=(entry_for("server", jump=0, quality=210,
                                        mobility=S),))
    add_direct(storage, "strong-bridge", quality=250, mobility=S,
               neighbourhood=(entry_for("server", jump=0, quality=240,
                                        mobility=S),))
    add_direct(storage, "unrelated", quality=255,
               neighbourhood=(entry_for("someone-else", jump=0),))
    routes = storage.find_handover_routes(target.address)
    assert [r[0].name for r in routes] == ["strong-bridge", "weak-bridge"]
    best_device, quality_sum, min_quality = routes[0]
    assert quality_sum == 250 + 240
    assert min_quality == 240


def test_find_handover_routes_excludes_target_itself():
    storage = make_storage()
    add_direct(storage, "server", quality=255, mobility=S,
               neighbourhood=(entry_for("server", jump=0),))
    assert storage.find_handover_routes(identity("server").address) == []


def test_find_handover_routes_ignores_multihop_adjacency():
    storage = make_storage()
    add_direct(storage, "bridge", quality=255,
               neighbourhood=(entry_for("server", jump=2),))
    assert storage.find_handover_routes(identity("server").address) == []


def test_erase_and_clear():
    storage = make_storage()
    reporter = add_direct(storage, "bridge")
    storage.analyze_neighbourhood(
        reporter, [entry_for("behind", jump=0)], now=0.0)
    storage.erase(reporter.address)
    assert len(storage) == 0
    add_direct(storage, "pc")
    storage.clear()
    assert len(storage) == 0


def test_stale_after_validation():
    with pytest.raises(ValueError):
        make_storage(stale_after_loops=0)


@pytest.mark.parametrize("bad", [
    {"jump": -1}, {"quality": -1}, {"min_quality": -1},
    {"jump": 9, "min_quality": -1}])     # also past the jump cap
@pytest.mark.parametrize("stored_directly", [False, True])
def test_analyze_rejects_negative_route_figures(bad, stored_directly):
    """Every entry past the own-device and reporter filters is validated,
    even one the jump cap or a direct observation would discard."""
    storage = make_storage()
    reporter = add_direct(storage, "B")
    if stored_directly:
        add_direct(storage, "bad")
    with pytest.raises(ValueError, match="negative"):
        storage.analyze_neighbourhood(
            reporter, [entry_for("ok", jump=0), entry_for("bad", **bad)],
            now=0.0)


@pytest.mark.parametrize("bad", [
    {"jump": -1}, {"quality": -1}, {"min_quality": -1}])
def test_hand_built_discovery_response_rejects_negative_figures(bad):
    """A row checks its figures once, when it is built, so neither a
    ``Neighbourhood`` nor a response can carry a bad one to a fold."""
    with pytest.raises(ValueError, match="negative"):
        DiscoveryResponse(identity=identity("B"), prototype="bluetooth",
                          services=(), neighbourhood=[
                              entry_for("ok", jump=0),
                              entry_for("bad", **bad)])
    with pytest.raises(ValueError, match="negative"):
        Neighbourhood([entry_for("bad", **bad)])


def test_unchanged_rows_are_reused_and_changed_ones_rebuilt():
    storage = make_storage()
    reporter = add_direct(storage, "B", quality=250)
    adverts = Neighbourhood([entry_for("far", jump=0, quality=240)])
    storage.analyze_neighbourhood(reporter, adverts, now=0.0)
    far = storage.get(identity("far").address)

    def rows():
        snapshot = storage.snapshot()
        return snapshot, {row.address: row for row in snapshot}

    first, before = rows()
    assert storage.rows_built == 2 and storage.routes_built == 1
    route = far.route
    # The same figures through the same bridge keep route and row.
    storage.analyze_neighbourhood(reporter, adverts, now=1.0)
    second, after = rows()
    assert second is not first and second == first
    assert far.route is route
    assert after[far.address] is before[far.address]
    assert storage.rows_built == 2 and storage.routes_built == 1
    # A refresh at the same quality keeps the direct row too.
    storage.mark_responded(reporter.address, 250, now=2.0)
    assert rows()[1][reporter.address] is before[reporter.address]
    # New figures rebuild only the rows that show them.
    storage.mark_responded(reporter.address, 200, now=3.0)
    after = rows()[1]
    assert after[reporter.address] is not before[reporter.address]
    assert after[far.address] is before[far.address]
    assert storage.rows_built == 3


def test_snapshot_is_shared_and_never_copied():
    storage = make_storage()
    add_direct(storage, "pc")
    snapshot = storage.snapshot()
    assert storage.snapshot() is snapshot
    assert storage.snapshot_rows == 1
    peer = make_storage()
    stored = add_direct(peer, "other", neighbourhood=snapshot)
    assert stored.neighbourhood is snapshot


# ----------------------------------------------------------------------
# the cached snapshot never goes stale
# ----------------------------------------------------------------------
NAMES = ("a", "b", "c", "d", "e")

_qualities = st.integers(0, 255)
_mobilities = st.sampled_from((S, H, D))
_services = st.sampled_from(((), (ServiceRecord(name="echo", port=7),)))
_adverts = st.lists(st.builds(
    lambda name, jump, quality, low, mobility, services: entry_for(
        name, jump=jump, quality=quality, min_quality=min(low, quality),
        mobility=mobility, services=services),
    name=st.sampled_from(NAMES + ("own-device",)),
    jump=st.integers(0, 3), quality=_qualities, low=_qualities,
    mobility=_mobilities, services=_services),
    max_size=6)


class SnapshotMachine(RuleBasedStateMachine):
    """Random mutator sequences; the cached snapshot must always equal a
    fresh one, and be the same object until the next mutation.  Every
    memo a stored device keeps (its route's rank, its last row) must
    equal its recomputation after every step."""

    def __init__(self):
        super().__init__()
        self.storage = make_storage(policy=RoutingPolicy(max_jump=2),
                                    stale_after_loops=1)
        #: The last entries each reporter advertised, for refolds.
        self.adverts = {}

    def _direct(self):
        return [d.name for d in self.storage.direct_devices()]

    @rule(name=st.sampled_from(NAMES), quality=_qualities,
          mobility=_mobilities,
          neighbourhood=st.one_of(st.just(()), _adverts))
    def update_direct(self, name, quality, mobility, neighbourhood):
        add_direct(self.storage, name, quality=quality, mobility=mobility,
                   neighbourhood=neighbourhood)

    @rule(name=st.sampled_from(NAMES),
          quality=st.one_of(st.none(), _qualities))
    def mark_responded(self, name, quality):
        stored = self.storage.get(identity(name).address)
        if quality is None:  # same quality as stored
            quality = stored.link_quality if stored else 0
        self.storage.mark_responded(identity(name).address, quality, 0.0)

    @precondition(lambda self: self._direct())
    @rule(data=st.data(), entries=_adverts, shared=st.booleans())
    def analyze_neighbourhood(self, data, entries, shared):
        name = data.draw(st.sampled_from(self._direct()))
        reporter = self.storage.get(identity(name).address)
        if shared:
            entries = Neighbourhood(entries)
        self.adverts[name] = entries
        self.storage.analyze_neighbourhood(reporter, entries, 0.0)

    @precondition(lambda self: set(self.adverts) & set(self._direct()))
    @rule(data=st.data(), services=st.one_of(st.none(), _services))
    def refold_same_figures(self, data, services):
        """The same route figures again, the same snapshot or one with
        other services: routes are kept, and rows when nothing changed."""
        name = data.draw(st.sampled_from(
            sorted(set(self.adverts) & set(self._direct()))))
        reporter = self.storage.get(identity(name).address)
        entries = self.adverts[name]
        if services is not None:
            entries = [dataclasses.replace(e, services=services)
                       for e in entries]
        self.storage.analyze_neighbourhood(reporter, entries, 0.0)

    @rule(responded=st.sets(st.sampled_from(NAMES)))
    def make_older(self, responded):
        self.storage.make_older(identity(n).address for n in responded)

    @rule(name=st.sampled_from(NAMES))
    def erase(self, name):
        self.storage.erase(identity(name).address)

    @rule()
    def clear(self):
        self.storage.clear()

    @invariant()
    def memos_equal_their_recomputation(self):
        policy = self.storage.policy
        for device in self.storage.devices():
            assert device.rank == route_rank(device.route, policy)
            if device.row is not None:
                assert device.row == device.to_neighbour_entry()

    @invariant()
    def snapshot_is_fresh_and_shared(self):
        snapshot = self.storage.snapshot()
        assert snapshot == tuple(d.to_neighbour_entry()
                                 for d in self.storage.devices())
        assert self.storage.snapshot() is snapshot


SnapshotMachine.TestCase.settings = settings(max_examples=150,
                                             stateful_step_count=30,
                                             deadline=None)
test_snapshot_never_goes_stale = SnapshotMachine.TestCase

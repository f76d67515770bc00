"""Tests for the change-driven DTN exchange (repro.dtn.forwarder).

An exchange costs O(1) when nothing changed: the shared buffer keeps a
lower bound on its next expiry instant, stores and routers carry
``version`` counters, and the plane memoises directed pairs whose last
offer pass was empty.  An exchange whose carrier has no news for the
peer skips the router, and a cascade from an empty store exchanges
with no one.  The properties here pin the building blocks against
brute-force models; the differential test runs whole fault and PHY
worlds on both DTN planes with the memos and both shortcuts defeated
and demands identical outcomes.  Faults act on bundles, not on offer
passes: the jammer counts only transfers of a real bundle, and a
byzantine lie counts once per contact-open advertisement.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.buffering import BoundedBuffer
from repro.dtn import (
    BandwidthDtnOverlay,
    Bundle,
    DtnOverlay,
    MessageStore,
    make_router,
)
from repro.dtn.capacity import ContactSession
from repro.dtn.forwarder import DtnPlane
from repro.dtn.traffic import generate_traffic, schedule_traffic
from repro.experiments.registry import build_scenario
from repro.faults import BYZANTINE, FaultEvent, FaultPlane
from repro.scenarios import Scenario

# ----------------------------------------------------------------------
# O(1) expiry checks: the bound never hides a due entry
# ----------------------------------------------------------------------
_keys = st.sampled_from("abcdef")
_ttls = st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.5]))
_buffer_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), _keys, _ttls,
              st.sampled_from([5, 10, 20])),
    st.tuples(st.just("remove"), _keys),
    st.tuples(st.just("drop_matching"), st.frozensets(_keys)),
    st.tuples(st.just("drop_expired")),
    st.tuples(st.just("tick"), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
), max_size=60)


@settings(max_examples=200, deadline=None)
@given(ops=_buffer_ops, capacity=st.sampled_from([None, 40]))
def test_drop_expired_matches_a_brute_force_scan(ops, capacity):
    """Every sweep drops exactly the entries an O(n) scan finds due, in
    insertion order — across replacements that shorten or lengthen a
    TTL, immortal entries, evictions and equal timestamps."""
    buffer = BoundedBuffer(capacity_bytes=capacity)
    model: dict[str, float | None] = {}   # key → expires_at, in order
    now = 0.0
    for op in ops:
        if op[0] == "add":
            _, key, ttl, size = op
            evicted = buffer.add(key, None, size, now=now, ttl_s=ttl)
            model[key] = None if ttl is None else now + ttl
            for entry in evicted:
                del model[entry.key]
        elif op[0] == "remove":
            buffer.remove(op[1])
            model.pop(op[1], None)
        elif op[0] == "drop_matching":
            victims = buffer.drop_matching(lambda e: e.key in op[1])
            expected = [k for k in model if k in op[1]]
            assert [e.key for e in victims] == expected
            for key in expected:
                del model[key]
        elif op[0] == "drop_expired":
            victims = buffer.drop_expired(now)
            expected = [k for k, at in model.items()
                        if at is not None and now >= at]
            assert [e.key for e in victims] == expected
            for key in expected:
                del model[key]
        else:
            now += op[1]
        assert [entry.key for entry in buffer.entries()] == list(model)
        live = [at for at in model.values() if at is not None]
        assert buffer.next_expiry <= min(live, default=float("inf"))


def test_drop_expired_skips_until_the_bound_and_then_tightens_it():
    buffer = BoundedBuffer()
    assert buffer.next_expiry == float("inf")
    buffer.add("a", 1, 10, now=0.0, ttl_s=5.0)
    buffer.add("b", 2, 10, now=0.0, ttl_s=9.0)
    assert buffer.next_expiry == 5.0
    buffer.remove("a")
    assert buffer.next_expiry == 5.0      # stale but conservative
    assert buffer.drop_expired(4.0) == []
    assert buffer.drop_expired(5.0) == []  # the sweep ran: nothing due
    assert buffer.next_expiry == 9.0
    assert [e.key for e in buffer.drop_expired(9.0)] == ["b"]
    assert buffer.next_expiry == float("inf")


# ----------------------------------------------------------------------
# store versions
# ----------------------------------------------------------------------
_ids = st.sampled_from(["x#1", "x#2", "x#3", "x#4"])
_store_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), _ids, st.sampled_from([1.0, 5.0, 20.0]),
              st.integers(1, 4)),
    st.tuples(st.just("replace"), _ids, st.integers(1, 4)),
    st.tuples(st.just("remove"), _ids),
    st.tuples(st.just("mark_seen"), _ids),
    st.tuples(st.just("partial"), _ids),
    st.tuples(st.just("expire")),
    st.tuples(st.just("drop_all")),
    st.tuples(st.just("wipe")),
    st.tuples(st.just("tick"), st.sampled_from([0.0, 1.0, 4.0])),
), max_size=40)


@settings(max_examples=200, deadline=None)
@given(ops=_store_ops, capacity=st.sampled_from([None, 1200]))
def test_store_version_changes_whenever_its_view_does(ops, capacity):
    store = MessageStore("x", capacity_bytes=capacity)
    now = 0.0
    for op in ops:
        before = (store.bundles(), store.summary_vector())
        version = store.version
        if op[0] == "add":
            _, bundle_id, ttl, copies = op
            store.add(Bundle(bundle_id, "x", "y", created_at=now,
                             ttl_s=ttl, copies=copies), now)
        elif op[0] == "replace":
            current = store.get(op[1])
            if current is not None and not current.expired(now):
                store.replace(current.with_copies(op[2]), now)
        elif op[0] == "remove":
            store.remove(op[1])
        elif op[0] == "mark_seen":
            store.mark_seen(op[1])
        elif op[0] == "partial":
            store.record_partial(op[1], 100)
        elif op[0] == "expire":
            store.expire(now)
        elif op[0] == "drop_all":
            store.drop_all()
        elif op[0] == "wipe":
            store.wipe()
        else:
            now += op[1]
        assert store.version >= version
        if (store.bundles(), store.summary_vector()) != before:
            assert store.version != version, op


def test_prophet_version_tracks_its_tables():
    prophet = make_router("prophet")
    assert make_router("epidemic").version == 0
    start = prophet.version
    prophet.on_contact("a", "b", 1.0)
    assert prophet.version > start
    after_contact = prophet.version
    prophet.on_crash("a")
    assert prophet.version > after_contact


# ----------------------------------------------------------------------
# the settled-pair memo
# ----------------------------------------------------------------------
def _chain(count=4):
    scenario = Scenario(seed=1)
    for index in range(count):
        scenario.add_node(f"s{index}", position=(index * 6.0, 0.0),
                          mobility_class="static")
    return scenario


def test_a_settled_pair_skips_its_offer_pass():
    scenario = _chain()
    plane = DtnOverlay(scenario.world, make_router("epidemic"))
    plane.send("s0", "s3", ttl_s=100.0)
    assert plane.delivered
    plane.contact_up("s1", "s2")          # settles every s1, s2 pair
    passes = plane.offer_passes
    plane.contact_up("s1", "s2")          # nothing changed since
    assert plane.offer_passes == passes
    plane.send("s3", "s0", ttl_s=100.0)   # s3's store changed
    assert plane.offer_passes > passes
    plane.contact_down("s1", "s2")
    assert not any("s1" in pair and "s2" in pair
                   for pair in plane._settled)


def test_a_blinded_pair_is_not_served_from_the_memo():
    """Losing the peer's summary vector changes what the carrier would
    offer, so a pair settled while sighted must run its pass again."""
    scenario = _chain(3)
    plane = DtnOverlay(scenario.world, make_router("epidemic"))
    plane.send("s0", "s2", ttl_s=100.0)
    plane.contact_up("s0", "s1")
    assert plane.counters.duplicates == 0
    plane._blind.add(("s0", "s1"))        # s0 never heard s1's vector
    plane.contact_up("s0", "s1")
    assert plane.counters.duplicates > 0


class _NeverSettled(dict):
    """A memo that forgets every write."""

    def __setitem__(self, key, value):
        pass


class _NeverQueued(list):
    """A session's queue slots, forgetting every write."""

    def __setitem__(self, key, value):
        pass


def _ask_the_router_always(monkeypatch):
    """Defeat the settled memo, the session queue memo and both news
    shortcuts: every exchange and every queue read asks the router, and
    every cascade exchanges with every contact."""
    original = DtnPlane.__init__
    original_session = ContactSession.__init__

    def defeated(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self._settled = _NeverSettled()

    def unqueued(self, *args, **kwargs):
        original_session(self, *args, **kwargs)
        self.queues = _NeverQueued([None, None])

    monkeypatch.setattr(DtnPlane, "__init__", defeated)
    monkeypatch.setattr(ContactSession, "__init__", unqueued)
    monkeypatch.setattr(MessageStore, "has_news_for",
                        lambda self, peer: True)


_FAULTS = {"count": 18, "crash_rate": 0.3, "crash_downtime_s": 60.0,
           "radio_fault_rate": 0.2, "byzantine_rate": 0.3,
           "jammer_count": 1}
_PHY = {"count": 18, "shadowing_sigma_db": 6.0, "phy_collisions": 1}


#: How long each plane runs.  The bandwidth plane schedules every leg
#: as a kernel event and, with its memos defeated, rebuilds a queue at
#: every read, so it stops once every router has met the jammer.
_HORIZON_S = {DtnOverlay: 480.0, BandwidthDtnOverlay: 360.0}


def _observe(overlay, router, params, seed=7):
    scenario = build_scenario("island_hopping_ferry", seed, params)
    plane = overlay(scenario.world, make_router(router),
                    meter=scenario.meter)
    schedule_traffic(plane, generate_traffic(
        scenario.sim.rng("dtn/traffic"), plane.live_nodes(), "uniform",
        30, window=(5.0, 300.0), ttl_s=200.0))
    scenario.run(until=_HORIZON_S[overlay])
    world = scenario.world
    faults = getattr(world, "faults", None)
    phy = getattr(world, "phy", None)
    observed = {
        "counters": plane.counters.as_dict(),
        "delivered": list(plane.delivered.values()),
        "faults": None if faults is None else faults.counters.as_dict(),
        "phy": None if phy is None else phy.counters.as_dict(),
        "bytes": {category: scenario.meter.bytes(category=category)
                  for category in ("dtn-data", "dtn-control")},
    }
    return observed, plane.offer_passes


@pytest.mark.parametrize("router, params", [
    ("epidemic", _FAULTS), ("spray", _FAULTS), ("prophet", _FAULTS),
    ("direct", _FAULTS), ("epidemic", _PHY)])
def test_the_memo_changes_no_outcome(router, params, monkeypatch):
    """On both DTN planes, runs with the memos and the news shortcuts on
    and defeated agree on every counter and delivery record, including
    the fault and PHY planes' counters: a fault counts what it did to a
    bundle, not how often the plane asked.  (The bandwidth plane's
    queue memo under a lossy PHY is pinned read by read in
    ``test_dtn_capacity.py::test_memoised_queue_is_never_stale``.)"""
    overlays = ((DtnOverlay, BandwidthDtnOverlay) if params is _FAULTS
                else (DtnOverlay,))
    memoised = {overlay: _observe(overlay, router, params)
                for overlay in overlays}
    _ask_the_router_always(monkeypatch)
    for overlay in overlays:
        observed, passes = memoised[overlay]
        reference, reference_passes = _observe(overlay, router, params)
        assert observed == reference, overlay.__name__
        assert observed["counters"]["delivered"] > 0
        assert passes < reference_passes  # the shortcuts did skip passes
        if params is _FAULTS:
            assert observed["faults"]["crashes"] > 0
            assert observed["faults"]["byzantine_beacons"] > 0
            assert observed["faults"]["jammed_deliveries"] > 0
        else:
            assert observed["phy"]["offered"] > observed["phy"]["delivered"]


def test_a_cascade_from_an_empty_origin_sweeps_its_due_contacts():
    """s1 holds a bundle past its TTL; s0, empty, sits between s1 and
    s2.  Reopening s0–s2 exchanges only s0 and s2, so s1's bundle can
    expire at that instant only through the cascade from empty s0."""
    scenario = Scenario(seed=1)
    for name, x in (("s0", 0.0), ("s1", 6.0), ("s2", -6.0)):
        scenario.add_node(name, position=(x, 0.0), mobility_class="static")
    plane = DtnOverlay(scenario.world, make_router("direct"))
    plane.send("s1", "s2", ttl_s=5.0)     # s2 is out of s1's range
    scenario.run(until=10.0)
    assert len(plane.stores["s1"]) == 1
    assert plane.counters.expired == 0
    plane.contact_up("s0", "s2")
    assert len(plane.stores["s1"]) == 0
    assert plane.counters.expired == 1


def test_attach_over_empty_stores_counts_no_jammed_delivery():
    """Attach opens every contact in range, some of them inside the
    jammer's disk, but with every store empty no pass has a bundle to
    send: the gate is never asked and nothing counts as jammed."""
    scenario = build_scenario("island_hopping_ferry", 6, _FAULTS)
    faults = scenario.world.faults
    plane = DtnOverlay(scenario.world, make_router("epidemic"))
    assert any(faults.jammed(node) and plane._adjacent[node]
               for node in plane.stores)
    assert faults.counters.jammed_deliveries == 0


def test_a_byzantine_peer_counts_one_beacon_per_contact_open():
    """s1 lies once per contact it opens: its listener offers blind for
    the rest of the contact, and the passes that offer to s1 against
    the lie count no further beacon."""
    scenario = _chain(3)
    faults = FaultPlane(scenario.world)
    faults.arm([FaultEvent(0.0, BYZANTINE, "s1")])
    plane = DtnOverlay(scenario.world, make_router("epidemic"))
    assert faults.counters.byzantine_beacons == 0  # s1 had seen nothing
    plane.send("s1", "s0", ttl_s=100.0)
    assert plane.delivered                         # now s1 has seen one
    plane.contact_down("s0", "s1")
    plane.contact_up("s0", "s1")
    assert faults.counters.byzantine_beacons == 1
    passes = plane.offer_passes
    for _ in range(3):
        plane.send("s0", "s2", ttl_s=100.0)        # relayed through s1
    assert plane.offer_passes >= passes + 3
    assert len(plane.delivered) == 4
    assert faults.counters.byzantine_beacons == 1
    plane.contact_down("s0", "s1")
    plane.contact_up("s0", "s1")
    assert faults.counters.byzantine_beacons == 2


def test_is_byzantine_reports_the_lying_beaconers():
    scenario = build_scenario("hostile_corridor", 5, {
        "crash_rate": 0.0, "radio_fault_rate": 0.0,
        "byzantine_rate": 1.0})
    plane = scenario.world.faults
    liars = {event.node for event in plane.schedule
             if event.kind == "byzantine"}
    assert liars
    assert all(plane.is_byzantine(node) for node in liars)
    assert not plane.is_byzantine("home")


# ----------------------------------------------------------------------
# self-addressed bundles
# ----------------------------------------------------------------------
def test_self_addressed_send_is_refused_without_side_effects():
    scenario = _chain(2)
    plane = DtnOverlay(scenario.world, make_router("epidemic"))
    with pytest.raises(ValueError, match="itself"):
        plane.send("s0", "s0")
    assert plane.counters.created == 0
    assert plane.send("s0", "s1").bundle_id == "s0#1"   # no id burnt

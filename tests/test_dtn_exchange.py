"""Tests for the change-driven DTN exchange (repro.dtn.forwarder).

An exchange skips work when nothing changed: each store keeps a
lower bound on its next expiry instant, and an exchange whose carrier
has no news for the peer skips the router.  A cascade from an empty
store exchanges with no one, and the bandwidth plane's session queues
re-rank only after a store or router ``version`` changed.  The
properties here pin the building blocks against brute-force models;
the differential test runs whole fault and PHY worlds on both DTN
planes with the queue memo and both shortcuts defeated and demands
identical outcomes.  Faults act on bundles, not on offer
passes: the jammer counts only transfers of a real bundle, and a
byzantine lie counts once per contact-open advertisement.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dtn import (
    BandwidthDtnOverlay,
    Bundle,
    DtnOverlay,
    MessageStore,
    make_router,
)
from repro.dtn.capacity import ContactSession
from repro.dtn.traffic import generate_traffic, schedule_traffic
from repro.experiments.registry import build_scenario
from repro.faults import BYZANTINE, FaultEvent, FaultPlane
from repro.scenarios import Scenario

# ----------------------------------------------------------------------
# the message store against a brute-force model; O(1) expiry checks
# ----------------------------------------------------------------------
_ids = st.sampled_from(["x#1", "x#2", "x#3", "x#4"])
_model_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), _ids, st.sampled_from([0.0, 1.0, 3.0]),
              st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.5]),
              st.integers(1, 4)),
    st.tuples(st.just("replace"), _ids, st.integers(1, 4)),
    st.tuples(st.just("remove"), _ids),
    st.tuples(st.just("expire")),
    st.tuples(st.just("drop_all")),
    st.tuples(st.just("wipe")),
    st.tuples(st.just("tick"), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
), max_size=60)


@settings(max_examples=200, deadline=None)
@given(ops=_model_ops)
def test_drop_expired_matches_a_brute_force_scan(ops):
    """Custody order, the summary vector and the counters follow a dict
    model, and every sweep drops exactly the bundles an O(n) scan finds
    due, in custody order — across replacements, bundles refused as
    already expired and equal timestamps.  The expiry bound never hides
    a due bundle.  Every example starts from four carried bundles with
    staggered expiries, so custody order is always at stake."""
    ops = [("add", f"x#{index}", 0.0, ttl, 2)
           for index, ttl in enumerate((7.5, 1.0, 3.0, 2.0), 1)] + ops
    store = MessageStore("x")
    model: dict[str, Bundle] = {}   # id → carried bundle, in order
    seen: set[str] = set()
    expired = dropped_dead = 0
    now = 0.0
    for op in ops:
        if op[0] == "add":
            _, bundle_id, age, ttl, copies = op
            bundle = Bundle(bundle_id, "x", "y", created_at=now - age,
                            ttl_s=ttl, copies=copies)
            carried = not bundle.expired(now)
            assert store.add(bundle, now) is carried
            if carried:
                model[bundle_id] = bundle
                seen.add(bundle_id)
            else:
                expired += 1
        elif op[0] == "replace":
            current = model.get(op[1])
            if current is None:
                with pytest.raises(KeyError):
                    store.replace(Bundle(op[1], "x", "y", created_at=now,
                                         copies=op[2]))
            else:
                model[op[1]] = current.with_copies(op[2])
                store.replace(model[op[1]])
        elif op[0] == "remove":
            assert store.remove(op[1]) == model.pop(op[1], None)
        elif op[0] == "expire":
            due = [b for b in model.values() if b.expired(now)]
            assert store.expire(now) == due
            for bundle in due:
                del model[bundle.bundle_id]
            expired += len(due)
        elif op[0] in ("drop_all", "wipe"):
            assert getattr(store, op[0])() == list(model.values())
            dropped_dead += len(model)
            model.clear()
            if op[0] == "wipe":
                seen.clear()
        else:
            now += op[1]
        assert store.bundles() == list(model.values())
        assert len(store) == len(model)
        assert store.summary_vector() == seen
        assert store.has_news_for(None) is bool(model)
        assert (store.counters.expired, store.counters.dropped_dead,
                store.counters.evicted) == (expired, dropped_dead, 0)
        assert store.next_expiry <= min(
            (b.expires_at for b in model.values()), default=float("inf"))


def test_drop_expired_skips_until_the_bound_and_then_tightens_it():
    store = MessageStore("x")
    assert store.next_expiry == float("inf")
    store.add(Bundle("a", "x", "y", created_at=0.0, ttl_s=5.0), 0.0)
    store.add(Bundle("b", "x", "y", created_at=0.0, ttl_s=9.0), 0.0)
    assert store.next_expiry == 5.0
    store.remove("a")
    assert store.next_expiry == 5.0      # stale but conservative
    assert store.expire(4.0) == []
    assert store.expire(5.0) == []       # the sweep ran: nothing due
    assert store.next_expiry == 9.0
    assert [b.bundle_id for b in store.expire(9.0)] == ["b"]
    assert store.next_expiry == float("inf")


def test_replace_keeps_a_bundles_place():
    """A spray-token update must not rejuvenate a bundle: the replaced
    copy keeps its place in custody order."""
    store = MessageStore("x")
    for bundle_id in ("a", "b", "c"):
        store.add(Bundle(bundle_id, "x", "y", created_at=0.0, copies=4),
                  0.0)
    store.replace(store.get("a").with_copies(2))
    assert [(b.bundle_id, b.copies) for b in store.bundles()] == [
        ("a", 2), ("b", 4), ("c", 4)]


# ----------------------------------------------------------------------
# store versions
# ----------------------------------------------------------------------
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
@given(ops=_store_ops)
def test_store_version_changes_whenever_its_view_does(ops):
    store = MessageStore("x")
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
                store.replace(current.with_copies(op[2]))
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
# the news check
# ----------------------------------------------------------------------
def _chain(count=4):
    scenario = Scenario(seed=1)
    for index in range(count):
        scenario.add_node(f"s{index}", position=(index * 6.0, 0.0),
                          mobility_class="static")
    return scenario


def test_a_carrier_without_news_runs_no_offer_pass():
    """s1 still carries the bundle it relayed, but s2 has seen it: s1
    has no news for s2, so neither the exchange nor the cascades of a
    reopened s1–s2 contact ask the router."""
    scenario = _chain()
    plane = DtnOverlay(scenario.world, make_router("epidemic"))
    plane.send("s0", "s3", ttl_s=100.0)
    assert plane.delivered
    assert len(plane.stores["s1"]) == 1
    assert plane.stores["s2"].has_seen("s0#1")
    passes = plane.offer_passes
    assert not plane._exchange("s1", "s2")
    plane.contact_up("s1", "s2")
    assert plane.offer_passes == passes
    plane.send("s3", "s0", ttl_s=100.0)   # s3 has news for s2
    assert plane.offer_passes > passes


def test_a_blinded_pair_is_not_served_from_the_memo():
    """Losing the peer's summary vector changes what the carrier would
    offer, so no shortcut may skip the pass of a blinded pair: a carrier
    without news for its sighted peer has news for the blind one, so its
    pass runs again and re-sends what the peer has."""
    scenario = _chain(3)
    plane = DtnOverlay(scenario.world, make_router("epidemic"))
    plane.send("s0", "s2", ttl_s=100.0)
    plane.contact_up("s0", "s1")
    assert plane.counters.duplicates == 0
    plane._blind.add(("s0", "s1"))        # s0 never heard s1's vector
    plane.contact_up("s0", "s1")
    assert plane.counters.duplicates > 0


class _NeverQueued(list):
    """A session's queue slots, forgetting every write."""

    def __setitem__(self, key, value):
        pass


def _ask_the_router_always(monkeypatch):
    """Defeat the session queue memo and both news shortcuts: every
    exchange and every queue read asks the router, and every cascade
    exchanges with every contact."""
    original_session = ContactSession.__init__

    def unqueued(self, *args, **kwargs):
        original_session(self, *args, **kwargs)
        self.queues = _NeverQueued([None, None])

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


def test_lies_reports_the_lying_beaconers():
    scenario = build_scenario("hostile_corridor", 5, {
        "crash_rate": 0.0, "radio_fault_rate": 0.0,
        "byzantine_rate": 1.0})
    plane = scenario.world.faults
    liars = {event.node for event in plane.schedule
             if event.kind == BYZANTINE}
    assert liars
    assert all(plane.lies(node, 0) for node in liars)
    assert not plane.lies("home", 1)
    assert plane.counters.byzantine_beacons == 0   # no vector was hidden


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

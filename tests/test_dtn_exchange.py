"""Tests for the change-driven DTN exchange (repro.dtn.forwarder).

An exchange costs O(1) when nothing changed: the shared buffer keeps a
lower bound on its next expiry instant, stores and routers carry
``version`` counters, and the plane memoises directed pairs whose last
offer pass was empty.  The properties here pin the building blocks
against brute-force models; the differential test runs whole fault and
PHY worlds with the memo defeated and demands identical outcomes.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.buffering import BoundedBuffer
from repro.dtn import Bundle, DtnOverlay, MessageStore, make_router
from repro.dtn.forwarder import DtnPlane
from repro.dtn.traffic import generate_traffic, schedule_traffic
from repro.experiments.registry import build_scenario
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
    """A memo that forgets every write: each exchange asks the router."""

    def __setitem__(self, key, value):
        pass


_FAULTS = {"count": 18, "crash_rate": 0.3, "crash_downtime_s": 60.0,
           "radio_fault_rate": 0.2, "byzantine_rate": 0.3,
           "jammer_count": 1}
_PHY = {"count": 18, "shadowing_sigma_db": 6.0, "phy_collisions": 1}


def _observe(router, params, seed=7):
    scenario = build_scenario("island_hopping_ferry", seed, params)
    plane = DtnOverlay(scenario.world, make_router(router),
                       meter=scenario.meter)
    schedule_traffic(plane, generate_traffic(
        scenario.sim.rng("dtn/traffic"), plane.live_nodes(), "uniform",
        30, window=(5.0, 300.0), ttl_s=200.0))
    scenario.run(until=480.0)
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
    """Runs with the memo on and defeated agree on every counter and
    delivery record, including the fault and PHY planes' counters."""
    memoised, passes = _observe(router, params)
    original = DtnPlane.__init__

    def defeated(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self._settled = _NeverSettled()

    monkeypatch.setattr(DtnPlane, "__init__", defeated)
    reference, reference_passes = _observe(router, params)
    assert memoised == reference
    assert memoised["counters"]["delivered"] > 0
    assert passes < reference_passes      # the memo did skip passes
    if params is _FAULTS:
        assert memoised["faults"]["crashes"] > 0
        assert memoised["faults"]["byzantine_beacons"] > 0
        assert memoised["faults"]["jammed_deliveries"] > 0
    else:
        assert memoised["phy"]["offered"] > memoised["phy"]["delivered"]


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

"""Tests for the store-carry-forward data plane (repro.dtn).

Covers bundles and stores (TTL, capacity, summary vectors), the three
routing baselines (direct-delivery, epidemic dedup, spray-and-wait
token conservation), the event-driven forwarder's wakeup invariant (no
wakeup without a scheduled contact event), equivalence against the 1 s
polling oracle, and the ``dtn`` workload's determinism through the
experiment runner.
"""

import pytest

from repro.dtn import (
    Bundle,
    DtnOverlay,
    MessageStore,
    PollingDtnOverlay,
    SprayAndWait,
    make_router,
    transmission_order,
)
from repro.dtn.traffic import generate_traffic, schedule_traffic
from repro.experiments import ExperimentSpec, run_campaign
from repro.mobility.linear import LinearMovement
from repro.scenarios import Scenario, island_hopping_ferry


# ----------------------------------------------------------------------
# bundles
# ----------------------------------------------------------------------
def test_bundle_validation_and_expiry():
    with pytest.raises(ValueError, match="ttl"):
        Bundle("x", "a", "b", created_at=0.0, ttl_s=0.0)
    with pytest.raises(ValueError, match="copies"):
        Bundle("x", "a", "b", created_at=0.0, copies=0)
    with pytest.raises(ValueError, match="own source"):
        Bundle("x", "a", "a", created_at=0.0)
    bundle = Bundle("x", "a", "b", created_at=10.0, ttl_s=5.0)
    assert bundle.expires_at == 15.0
    assert not bundle.expired(14.9)
    assert bundle.expired(15.0)
    assert bundle.with_copies(4).copies == 4
    assert bundle.age(12.0) == 2.0


# ----------------------------------------------------------------------
# the message store
# ----------------------------------------------------------------------
def test_store_refuses_expired_and_sweeps_lazily():
    store = MessageStore("n")
    live = Bundle("live", "a", "b", created_at=0.0, ttl_s=100.0)
    dead = Bundle("dead", "a", "b", created_at=0.0, ttl_s=10.0)
    assert store.add(live, now=5.0)
    assert not store.add(dead, now=10.0)     # already expired on arrival
    assert store.counters.expired == 1
    assert [b.bundle_id for b in store.bundles()] == ["live"]
    assert store.expire(99.9) == []
    assert [b.bundle_id for b in store.expire(100.0)] == ["live"]
    assert store.counters.expired == 2
    assert len(store) == 0


def test_store_capacity_eviction_counts():
    store = MessageStore("n", capacity_bytes=1024)
    first = Bundle("one", "a", "b", created_at=0.0, size_bytes=600)
    second = Bundle("two", "a", "b", created_at=1.0, size_bytes=600)
    assert store.add(first, now=0.0)
    assert store.add(second, now=1.0)        # evicts "one" (oldest)
    assert store.counters.evicted == 1
    assert [b.bundle_id for b in store.bundles()] == ["two"]


def test_summary_vector_remembers_released_custody():
    store = MessageStore("n")
    bundle = Bundle("x", "a", "b", created_at=0.0)
    store.add(bundle, now=0.0)
    store.remove("x")
    assert "x" not in store
    assert store.has_seen("x")               # dedup survives custody
    store.mark_seen("y")
    assert store.summary_vector() == frozenset({"x", "y"})


# ----------------------------------------------------------------------
# routers
# ----------------------------------------------------------------------
def test_transmission_order_is_destined_first_then_oldest():
    young = Bundle("young", "s", "peer", created_at=9.0)
    old_relay = Bundle("old", "s", "other", created_at=1.0)
    older_relay = Bundle("older", "s", "other2", created_at=0.5)
    ordered = transmission_order([old_relay, young, older_relay], "peer")
    assert [b.bundle_id for b in ordered] == ["young", "older", "old"]


def test_make_router_names():
    assert make_router("direct").name == "direct"
    assert make_router("epidemic").name == "epidemic"
    assert make_router("spray", spray_copies=4).initial_copies == 4
    with pytest.raises(KeyError, match="unknown DTN router"):
        make_router("flooding")
    with pytest.raises(ValueError, match="copies"):
        SprayAndWait(copies=0)


def _relay_world(seed=4):
    """Static src and dst 60 m apart; a mule drives past both."""
    scenario = Scenario(seed=seed)
    scenario.add_node("src", position=(0, 0), mobility_class="static")
    scenario.add_node("dst", position=(60, 0), mobility_class="static")
    scenario.add_node("mule",
                      mobility=LinearMovement((0.0, 5.0), (1.0, 0.0)))
    return scenario


def test_direct_delivery_never_relays():
    scenario = _relay_world()
    plane = DtnOverlay(scenario.world, make_router("direct"))
    plane.send("src", "dst", ttl_s=500.0)
    scenario.run(until=200.0)
    # src and dst never meet; direct-delivery cannot use the mule.
    assert plane.delivered == {}
    assert plane.counters.transmissions == 0
    assert len(plane.stores["src"]) == 1     # still under custody


def test_epidemic_relays_across_the_partition():
    scenario = _relay_world()
    plane = DtnOverlay(scenario.world, make_router("epidemic"),
                       meter=scenario.meter)
    bundle = plane.send("src", "dst", ttl_s=500.0)
    scenario.run(until=200.0)
    record = plane.delivered[bundle.bundle_id]
    assert record.custodian == "mule"
    assert record.latency_s > 0.0
    assert plane.counters.transmissions == 2     # src→mule, mule→dst
    assert plane.counters.duplicates == 0        # summary-vector dedup
    assert scenario.meter.messages(category="dtn-data") == 2
    assert scenario.meter.messages(category="dtn-control") > 0


def test_spray_and_wait_conserves_tokens_and_waits():
    scenario = Scenario(seed=8)
    scenario.add_node("src", position=(0, 0))
    scenario.add_node("n1", position=(5, 0))
    scenario.add_node("n2", position=(0, 5))
    scenario.add_node("far", position=(500, 0))
    plane = DtnOverlay(scenario.world, make_router("spray",
                                                   spray_copies=4))
    bundle = plane.send("src", "far", ttl_s=500.0)
    scenario.run(until=50.0)
    copies = [store.get(bundle.bundle_id).copies
              for store in plane.stores.values()
              if store.get(bundle.bundle_id) is not None]
    assert sum(copies) == 4                  # token conservation
    # Everyone reachable holds >= 1 token; one-token custodians wait,
    # so no further spraying can occur between the three.
    assert sorted(copies, reverse=True)[0] >= 2
    assert plane.delivered == {}             # "far" is unreachable


def test_spray_single_copy_behaves_like_direct():
    scenario = _relay_world()
    plane = DtnOverlay(scenario.world, make_router("spray",
                                                   spray_copies=1))
    plane.send("src", "dst", ttl_s=500.0)
    scenario.run(until=200.0)
    assert plane.delivered == {}             # wait phase from birth


# ----------------------------------------------------------------------
# the wakeup invariant and the polling oracle
# ----------------------------------------------------------------------
def test_no_wakeups_in_a_settled_world():
    """No forwarder wakeup without a scheduled contact event."""
    scenario = Scenario(seed=1)
    for index in range(4):
        scenario.add_node(f"s{index}", position=(index * 6.0, 0.0),
                          mobility_class="static")
    plane = DtnOverlay(scenario.world, make_router("epidemic"))
    plane.send("s0", "s3", ttl_s=100.0)
    scenario.run(until=300.0)
    # Delivery happened over the seeded adjacency cascade (s0..s3 form
    # a connected chain), yet the settled world scheduled no contact
    # events — and the forwarder therefore never woke.
    assert plane.delivered
    assert plane.wakeups == 0
    assert scenario.world.stats.bus.fired == 0


def test_wakeups_bounded_by_bus_events():
    scenario = _relay_world()
    plane = DtnOverlay(scenario.world, make_router("epidemic"))
    plane.send("src", "dst", ttl_s=500.0)
    scenario.run(until=200.0)
    assert 0 < plane.wakeups <= scenario.world.stats.bus.fired


def test_event_driven_matches_polling_oracle_on_long_contacts():
    """Contacts dwarf the 1 s poll period: both modes deliver the same
    bundles; the event-driven forwarder spends far fewer wakeups."""
    results = {}
    for mode in ("event", "polling"):
        scenario = island_hopping_ferry(count=6, seed=11)
        router = make_router("epidemic")
        if mode == "event":
            plane = DtnOverlay(scenario.world, router)
        else:
            plane = PollingDtnOverlay(scenario.world, router,
                                      poll_interval_s=1.0)
        injections = generate_traffic(
            scenario.sim.rng("dtn/traffic"), plane.live_nodes(),
            "uniform", 8, window=(5.0, 120.0), ttl_s=300.0)
        schedule_traffic(plane, injections)
        scenario.run(until=400.0)
        results[mode] = plane
    event, polling = results["event"], results["polling"]
    assert sorted(event.delivered) == sorted(polling.delivered)
    assert event.delivered                   # the run exercised delivery
    assert event.wakeups * 5 < polling.wakeups


def test_overlay_detach_stops_future_exchanges():
    scenario = _relay_world()
    plane = DtnOverlay(scenario.world, make_router("epidemic"))
    plane.send("src", "dst", ttl_s=500.0)
    plane.detach()
    scenario.run(until=200.0)
    assert plane.delivered == {}             # no watches, no contacts
    assert plane.wakeups == 0


# ----------------------------------------------------------------------
# traffic generation
# ----------------------------------------------------------------------
def test_generate_traffic_is_deterministic_and_validated():
    scenario = Scenario(seed=3)
    rng_a = scenario.sim.rng("traffic/a")
    scenario_b = Scenario(seed=3)
    rng_b = scenario_b.sim.rng("traffic/a")
    nodes = ["n1", "n2", "n3"]
    first = generate_traffic(rng_a, nodes, "uniform", 10, (0.0, 50.0))
    second = generate_traffic(rng_b, nodes, "uniform", 10, (0.0, 50.0))
    assert first == second
    assert all(row.source != row.destination for row in first)
    with pytest.raises(ValueError, match="pattern"):
        generate_traffic(rng_a, nodes, "storm", 1, (0.0, 1.0))
    with pytest.raises(ValueError, match="two nodes"):
        generate_traffic(rng_a, ["solo"], "uniform", 1, (0.0, 1.0))
    with pytest.raises(ValueError, match="endpoints"):
        generate_traffic(rng_a, nodes, "endpoints", 1, (0.0, 1.0))
    with pytest.raises(ValueError, match="differ"):
        generate_traffic(rng_a, nodes, "endpoints", 1, (0.0, 1.0),
                         endpoints=("n1", "n1"))
    with pytest.raises(KeyError, match="not a plane node"):
        generate_traffic(rng_a, nodes, "broadcast", 1, (0.0, 1.0),
                         source="ghost")


def test_broadcast_pattern_fans_out_per_round():
    scenario = Scenario(seed=3)
    rows = generate_traffic(scenario.sim.rng("t"), ["a", "b", "c"],
                            "broadcast", 2, (0.0, 10.0), source="a")
    assert len(rows) == 4                    # 2 rounds × 2 receivers
    assert {row.destination for row in rows} == {"b", "c"}
    assert all(row.source == "a" for row in rows)


def test_endpoints_pattern_alternates_directions():
    scenario = Scenario(seed=3)
    rows = generate_traffic(scenario.sim.rng("t"), ["home", "work", "m"],
                            "endpoints", 4, (0.0, 10.0),
                            endpoints=("home", "work"))
    assert sorted((row.source, row.destination) for row in rows) == [
        ("home", "work"), ("home", "work"),
        ("work", "home"), ("work", "home")]


def test_schedule_traffic_skips_dead_endpoints_but_fails_loudly_on_bad_rows():
    """Only churn is forgiven; malformed injections must raise."""
    scenario = Scenario(seed=2)
    scenario.add_node("a", position=(0, 0))
    scenario.add_node("b", position=(5, 0))
    plane = DtnOverlay(scenario.world, make_router("epidemic"))
    from repro.dtn import Injection
    schedule_traffic(plane, [Injection(10.0, "a", "b", ttl_s=0.0)])
    with pytest.raises(ValueError, match="ttl"):
        scenario.run(until=20.0)             # bad TTL surfaces, loudly
    scenario.remove_node("b")
    schedule_traffic(plane, [Injection(30.0, "a", "b")])
    scenario.run(until=40.0)                 # dead endpoint: skipped
    assert plane.counters.created == 0


# ----------------------------------------------------------------------
# the dtn workload through the experiment runner
# ----------------------------------------------------------------------
def _dtn_tiny_spec():
    return ExperimentSpec(
        name="dtn_tiny", workload="dtn",
        scenarios=("island_hopping_ferry",),
        axes={"count": (6,)}, repeats=2, master_seed=9,
        settings={"duration_s": 240.0, "messages": 6,
                  "routers": ("direct", "epidemic")})


def test_dtn_workload_deterministic_across_workers(tmp_path):
    spec = _dtn_tiny_spec()
    outputs = {}
    for workers in (1, 2):
        result = run_campaign(spec, tmp_path / f"w{workers}",
                              workers=workers)
        outputs[workers] = (result.jsonl_path.read_bytes(),
                            result.csv_path.read_bytes())
    assert outputs[1] == outputs[2]


def test_dtn_workload_emits_paired_router_metrics():
    point = _dtn_tiny_spec().expand()[0]
    from repro.experiments.workloads import get_workload
    metrics = get_workload("dtn")(point)
    for router in ("direct", "epidemic"):
        assert 0.0 <= metrics[f"{router}_delivery_ratio"] <= 1.0
        assert metrics[f"{router}_duplicates"] == 0
    assert metrics["epidemic_delivery_ratio"] \
        >= metrics["direct_delivery_ratio"]
    assert metrics["created"] == 6

"""Tests for the bandwidth-limited contact plane and PRoPHET routing.

The central invariant — **no contact ever moves more bytes than its
window × data rate** — is property-tested across every technology with
hypothesis-drawn crossing speeds, bundle sizes and rate overrides.
Around it: partial-transfer resume across repeated passes, churn
(in-flight transfers to the dead are cancelled and counted), the
settled-world wakeup discipline inherited from the event-driven
forwarder, PRoPHET's predictability algebra, and determinism of the
``dtn_bandwidth`` workload through the experiment runner.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dtn import (
    BandwidthDtnOverlay,
    Bundle,
    DtnOverlay,
    MessageStore,
    Prophet,
    make_router,
)
from repro.dtn.traffic import generate_traffic, schedule_traffic
from repro.experiments import ExperimentSpec, build_scenario, run_campaign
from repro.mobility.linear import LinearMovement, PathMovement
from repro.radio.technologies import TECHNOLOGIES, get_technology
from repro.scenarios import Scenario, island_hopping_ferry, rural_bus_dtn


# ----------------------------------------------------------------------
# the byte-budget property
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    tech_name=st.sampled_from(sorted(TECHNOLOGIES)),
    speed=st.floats(min_value=0.5, max_value=40.0),
    size_bytes=st.integers(min_value=200, max_value=300_000),
    bundles=st.integers(min_value=1, max_value=6),
    rate_scale=st.floats(min_value=1e-4, max_value=1.0),
)
def test_contact_bytes_never_exceed_window_times_rate(
        tech_name, speed, size_bytes, bundles, rate_scale):
    """One straight-line pass: total data bytes ≤ window × rate."""
    tech = get_technology(tech_name)
    rate = tech.data_rate_Bps * rate_scale
    window_s = 2.0 * tech.range_m / speed
    scenario = Scenario(seed=3)
    scenario.add_node("a", position=(0.0, 0.0),
                      technologies=(tech_name,), mobility_class="static")
    scenario.add_node("b",
                      mobility=LinearMovement(
                          (-(tech.range_m + 20.0), 0.0), (speed, 0.0)),
                      technologies=(tech_name,))
    plane = BandwidthDtnOverlay(scenario.world, make_router("epidemic"),
                                tech=tech_name, data_rate_Bps=rate)
    for _ in range(bundles):
        plane.send("a", "b", size_bytes=size_bytes, ttl_s=1e6)
    # Run well past the contact (plus slack for slow crossings).
    scenario.run(until=window_s + 2.0 * (tech.range_m + 40.0) / speed)
    plane.detach()
    budget = int(window_s * rate)
    assert plane.counters.bytes_transferred <= budget + 1, (
        f"moved {plane.counters.bytes_transferred} bytes over a "
        f"{window_s:.3f}s window at {rate:.1f} B/s (budget {budget})")


def test_technology_capacity_math():
    tech = get_technology("bluetooth")
    assert tech.data_rate_Bps == tech.bitrate_bps / 8.0
    assert tech.contact_capacity_bytes(10.0) == int(
        10.0 * tech.data_rate_Bps)
    assert tech.contact_capacity_bytes(0.0) == 0
    assert tech.contact_capacity_bytes(-5.0) == 0


def test_plane_rejects_nonpositive_rate():
    scenario = Scenario(seed=1)
    scenario.add_node("a", position=(0, 0))
    scenario.add_node("b", position=(5, 0))
    with pytest.raises(ValueError, match="rate"):
        BandwidthDtnOverlay(scenario.world, make_router("epidemic"),
                            data_rate_Bps=0.0)


# ----------------------------------------------------------------------
# transfer scheduling: wakeups, resume, truncation
# ----------------------------------------------------------------------
def test_settled_world_delivers_with_zero_wakeups():
    """Transfer completions are self-scheduled, not contact wakeups."""
    scenario = Scenario(seed=1)
    for index in range(4):
        scenario.add_node(f"s{index}", position=(index * 6.0, 0.0),
                          mobility_class="static")
    plane = BandwidthDtnOverlay(scenario.world, make_router("epidemic"))
    plane.send("s0", "s3", ttl_s=100.0, size_bytes=5000)
    scenario.run(until=300.0)
    assert plane.delivered            # hop-by-hop over seeded adjacency
    assert plane.wakeups == 0
    assert scenario.world.stats.bus.fired == 0


def test_wakeups_bounded_by_bus_events():
    scenario = Scenario(seed=4)
    scenario.add_node("src", position=(0, 0), mobility_class="static")
    scenario.add_node("dst", position=(60, 0), mobility_class="static")
    scenario.add_node("mule",
                      mobility=LinearMovement((0.0, 5.0), (1.0, 0.0)))
    plane = BandwidthDtnOverlay(scenario.world, make_router("epidemic"))
    plane.send("src", "dst", ttl_s=500.0, size_bytes=2000)
    scenario.run(until=200.0)
    assert 0 < plane.wakeups <= scenario.world.stats.bus.fired
    assert plane.delivered


def _shuttle_world(seed=4):
    """src/dst 60 m apart; a mule shuttling between them twice."""
    scenario = Scenario(seed=seed)
    scenario.add_node("src", position=(0, 0), mobility_class="static")
    scenario.add_node("dst", position=(60, 0), mobility_class="static")
    path = PathMovement([(0.0, (0.0, 5.0)), (60.0, (60.0, 5.0)),
                         (120.0, (0.0, 5.0)), (180.0, (60.0, 5.0)),
                         (240.0, (0.0, 5.0))])
    scenario.add_node("mule", mobility=path)
    return scenario


def test_partial_transfer_resumes_across_passes():
    """A bundle bigger than one window crosses over several contacts."""
    scenario = _shuttle_world()
    plane = BandwidthDtnOverlay(scenario.world, make_router("epidemic"),
                                data_rate_Bps=500.0)
    bundle = plane.send("src", "dst", ttl_s=1000.0, size_bytes=30000)
    scenario.run(until=400.0)
    counters = plane.counters
    # Each src pass is worth far less than 30 kB, so the transfer was
    # truncated at least once and resumed from the fragment ledger.
    assert counters.transfers_truncated >= 1
    assert counters.transmissions == 1          # custody settled once
    assert counters.bytes_transferred == 30000  # no re-sent prefix
    assert plane.stores["mule"].get(bundle.bundle_id) is not None
    assert plane.stores["mule"].partial_received(bundle.bundle_id) == 0


def test_store_partial_ledger():
    store = MessageStore("n")
    assert store.partial_received("x") == 0
    assert store.record_partial("x", 100) == 100
    assert store.record_partial("x", 50) == 150
    with pytest.raises(ValueError, match="negative"):
        store.record_partial("x", -1)
    store.clear_partial("x")
    assert store.partial_received("x") == 0
    store.record_partial("y", 10)
    store.drop_all()
    assert store.partial_received("y") == 0     # fragments die with it


def test_control_traffic_consumes_budget():
    """A budget smaller than the control exchange moves zero data."""
    scenario = Scenario(seed=2)
    scenario.add_node("a", position=(0, 0), mobility_class="static")
    scenario.add_node("b",
                      mobility=LinearMovement((-30.0, 0.0), (10.0, 0.0)))
    plane = BandwidthDtnOverlay(scenario.world, make_router("epidemic"),
                                meter=scenario.meter, data_rate_Bps=4.0)
    # Window = 2 s → budget 8 bytes; one 8-byte summary-vector id on
    # each side already saturates it.
    plane.send("a", "b", size_bytes=4000, ttl_s=1e6)
    scenario.run(until=30.0)
    assert plane.counters.bytes_transferred == 0
    assert plane.delivered == {}


# ----------------------------------------------------------------------
# churn: in-flight transfers to the dead
# ----------------------------------------------------------------------
def test_inflight_transfer_to_removed_node_is_cancelled_and_counted():
    scenario = Scenario(seed=5)
    scenario.add_node("src", position=(0, 0), mobility_class="static")
    scenario.add_node("rcv", position=(5, 0), mobility_class="static")
    plane = BandwidthDtnOverlay(scenario.world, make_router("epidemic"),
                                data_rate_Bps=100.0)
    bundle = plane.send("src", "rcv", size_bytes=10000, ttl_s=1e6)
    scenario.run(until=10.0)                    # leg needs ~100 s
    assert plane.counters.transfers_cancelled == 0
    scenario.remove_node("rcv")                 # battery-out mid-flight
    assert plane.counters.transfers_cancelled == 1
    scenario.run(until=300.0)
    assert plane.delivered == {}
    assert plane.counters.bytes_transferred == 0
    # The sender never lost custody: after_transmit never ran.
    assert plane.stores["src"].get(bundle.bundle_id) is not None


def test_inflight_transfer_from_removed_sender_is_cancelled():
    scenario = Scenario(seed=6)
    scenario.add_node("src", position=(0, 0), mobility_class="static")
    scenario.add_node("rcv", position=(5, 0), mobility_class="static")
    plane = BandwidthDtnOverlay(scenario.world, make_router("epidemic"),
                                data_rate_Bps=100.0)
    plane.send("src", "rcv", size_bytes=10000, ttl_s=1e6)
    scenario.run(until=10.0)
    scenario.remove_node("src")                 # the custodian dies
    assert plane.counters.transfers_cancelled == 1
    assert plane.counters.dropped_dead == 1
    scenario.run(until=300.0)
    assert plane.delivered == {}


def test_detach_cancels_sessions_silently():
    scenario = Scenario(seed=7)
    scenario.add_node("a", position=(0, 0), mobility_class="static")
    scenario.add_node("b", position=(5, 0), mobility_class="static")
    plane = BandwidthDtnOverlay(scenario.world, make_router("epidemic"),
                                data_rate_Bps=10.0)
    plane.send("a", "b", size_bytes=50000, ttl_s=1e6)
    plane.detach()
    scenario.run(until=100.0)
    assert plane.delivered == {}
    assert plane.counters.transfers_cancelled == 0
    assert plane.counters.transfers_truncated == 0


def _assert_session_index_fresh(plane, retired=()):
    """The per-node session index equals a scan of the open sessions,
    and neither it nor the inbound ledger keeps an empty or retired
    node's entry."""
    nodes = set(plane.stores) | set(plane._node_sessions)
    for node in nodes:
        expected = {pair for pair in plane._sessions if node in pair}
        assert plane._node_sessions.get(node, set()) == expected, node
    assert all(plane._node_sessions.values())
    assert all(plane._inbound.values())
    for node in retired:
        assert node not in plane._node_sessions, node
        assert node not in plane._inbound, node


def test_session_index_never_goes_stale():
    """Crash faults, a mid-run removal of the busiest node and detach:
    after every kernel step the index matches the sessions."""
    scenario = build_scenario("crowded_festival", seed=4, params={
        "count": 12, "crash_rate": 0.5, "crash_downtime_s": 30.0,
        "fault_window_s": 200.0})
    plane = BandwidthDtnOverlay(scenario.world, make_router("epidemic"),
                                data_rate_Bps=5_000.0)
    injections = generate_traffic(
        scenario.sim.rng("dtn/traffic"), plane.live_nodes(), "uniform",
        16, window=(5.0, 120.0), size_bytes=40_000, ttl_s=400.0)
    schedule_traffic(plane, injections)
    retired: list[str] = []

    def retire_busiest():
        busiest = max(sorted(plane._node_sessions),
                      key=lambda node: len(plane._node_sessions[node]))
        scenario.remove_node(busiest)
        retired.append(busiest)

    sim = scenario.sim
    sim.call_at(90.0, retire_busiest)
    deadline = sim.timeout(240.0)
    while not deadline.processed:
        sim.step()
        _assert_session_index_fresh(plane, retired)
    assert retired and retired[0] not in plane.live_nodes()
    assert scenario.world.faults.counters.crashes > 0
    assert plane.counters.transfers_cancelled > 0
    assert plane.pump_passes > 0
    plane.detach()
    _assert_session_index_fresh(plane, retired)
    assert plane._sessions == {} and plane._node_sessions == {}
    assert plane._inbound == {}


def test_spray_tokens_conserved_across_concurrent_sessions():
    """Custody settles from the sender's *current* copy, not the leg's
    start-time snapshot — two overlapping legs of one bundle to
    different receivers must not mint spray tokens."""
    scenario = Scenario(seed=9)
    scenario.add_node("s", position=(0, 0), mobility_class="static")
    scenario.add_node("r1", position=(5, 0), mobility_class="static")
    scenario.add_node("r2", position=(0, 5), mobility_class="static")
    scenario.add_node("far", position=(1000, 0), mobility_class="static")
    plane = BandwidthDtnOverlay(scenario.world,
                                make_router("spray", spray_copies=6),
                                data_rate_Bps=1000.0)
    bundle = plane.send("s", "far", size_bytes=8000, ttl_s=1e6)
    scenario.run(until=200.0)
    copies = [store.get(bundle.bundle_id).copies
              for store in plane.stores.values()
              if store.get(bundle.bundle_id) is not None]
    assert sum(copies) == 6, f"token conservation violated: {copies}"


def test_complete_fragment_settles_at_zero_cost_instead_of_stalling():
    """A fully received fragment whose custody could not settle is
    handed over at the next contact without consuming budget — it must
    not wedge the session's transfer queue."""
    scenario = Scenario(seed=10)
    scenario.add_node("a", position=(0.0, 0.0), mobility_class="static")
    scenario.add_node("b",
                      mobility=LinearMovement((30.0, 0.0), (-1.0, 0.0)))
    # Rate so low the 10 kB bundle could never cross this window.
    plane = BandwidthDtnOverlay(scenario.world, make_router("epidemic"),
                                data_rate_Bps=4.0)
    bundle = Bundle("b#1", "b", "a", created_at=0.0, ttl_s=1e6,
                    size_bytes=10_000)
    plane.stores["b"].add(bundle, now=0.0)
    # ...but a already holds the full fragment from an earlier, settled
    # nowhere contact (custodian died before the handoff).
    plane.stores["a"].record_partial("b#1", 10_000)
    scenario.run(until=30.0)
    assert bundle.bundle_id in plane.delivered
    assert plane.counters.transmissions == 1
    assert plane.counters.bytes_transferred == 0   # zero-cost handoff
    assert plane.stores["a"].partial_received("b#1") == 0


# ----------------------------------------------------------------------
# equivalence with the instantaneous plane at effectively infinite rate
# ----------------------------------------------------------------------
def test_matches_instantaneous_plane_at_huge_rate():
    results = {}
    for mode in ("instant", "capacity"):
        scenario = island_hopping_ferry(count=6, seed=11)
        router = make_router("epidemic")
        if mode == "instant":
            plane = DtnOverlay(scenario.world, router)
        else:
            plane = BandwidthDtnOverlay(scenario.world, router,
                                        data_rate_Bps=1e12)
        injections = generate_traffic(
            scenario.sim.rng("dtn/traffic"), plane.live_nodes(),
            "uniform", 8, window=(5.0, 120.0), ttl_s=300.0)
        schedule_traffic(plane, injections)
        scenario.run(until=400.0)
        plane.detach()
        results[mode] = plane
    assert sorted(results["instant"].delivered) == \
        sorted(results["capacity"].delivered)
    assert results["capacity"].delivered


# ----------------------------------------------------------------------
# PRoPHET predictability algebra
# ----------------------------------------------------------------------
def test_prophet_encounter_and_aging():
    router = Prophet(p_encounter=0.75, gamma=0.98)
    router.on_contact("a", "b", 0.0)
    assert router.predictability("a", "b") == pytest.approx(0.75)
    assert router.predictability("b", "a") == pytest.approx(0.75)
    router.on_contact("a", "b", 10.0)
    aged = 0.75 * 0.98 ** 10
    assert router.predictability("a", "b") == pytest.approx(
        aged + (1 - aged) * 0.75)
    # An untouched pair only ever decays.
    router.on_contact("a", "c", 50.0)
    assert router.predictability("a", "b") < 0.95
    assert router.predictability("c", "a") == pytest.approx(0.75)


def test_prophet_transitivity():
    router = Prophet(beta=0.25)
    router.on_contact("b", "c", 0.0)
    router.on_contact("a", "b", 0.0)
    # a learned of c through b: P(a,c) = P(a,b)·P(b,c)·β > 0.
    expected = 0.75 * 0.75 * 0.25
    assert router.predictability("a", "c") == pytest.approx(expected)
    assert router.predictability("c", "a") == 0.0   # c never met a side


def test_prophet_control_bytes_scale_with_tables():
    router = Prophet()
    assert router.control_bytes("a", "b") == 0
    router.on_contact("a", "b", 0.0)
    router.on_contact("a", "c", 0.0)
    # a knows b and c (2 entries), b knows a and (transitively) c.
    assert router.control_bytes("a", "x") == 2 * Prophet.CONTROL_ENTRY_BYTES
    assert router.control_bytes("b", "x") == \
        router.table_size("b") * Prophet.CONTROL_ENTRY_BYTES


def test_prophet_offers_rank_by_peer_predictability():
    router = Prophet()
    # peer has met d1 often and d2 once, long ago.
    router.on_contact("peer", "d1", 0.0)
    router.on_contact("peer", "d1", 10.0)
    router.on_contact("peer", "d2", 10.0)
    store = MessageStore("carrier")
    to_d1 = Bundle("x1", "s", "d1", created_at=0.0, ttl_s=1e6)
    to_d2 = Bundle("x2", "s", "d2", created_at=0.0, ttl_s=1e6)
    to_peer = Bundle("x3", "s", "peer", created_at=5.0, ttl_s=1e6)
    unknown = Bundle("x4", "s", "ghost", created_at=0.0, ttl_s=1e6)
    for bundle in (to_d1, to_d2, to_peer, unknown):
        store.add(bundle, now=20.0)
    offers = router.offers(store, "peer", frozenset())
    # Destined first; relays by descending P(peer, dest); the bundle
    # whose destination the peer cannot beat the carrier on (both 0)
    # is not offered at all.
    assert [b.bundle_id for b in offers] == ["x3", "x1", "x2"]


def test_prophet_validation_and_registry():
    with pytest.raises(ValueError, match="p_encounter"):
        Prophet(p_encounter=1.0)
    with pytest.raises(ValueError, match="gamma"):
        Prophet(gamma=0.0)
    with pytest.raises(NotImplementedError):
        Prophet().eligible(Bundle("x", "a", "b", created_at=0.0), "b")
    assert make_router("prophet").name == "prophet"
    with pytest.raises(KeyError, match="prophet"):
        make_router("flooding")


def test_prophet_beats_epidemic_under_tight_bandwidth():
    """The bench gate's structural core, at test scale: on the rural
    bus world with constrained contacts, PRoPHET's delivery ratio is
    at least epidemic's (it skips the relays that waste window bytes).
    """
    ratios = {}
    for name in ("epidemic", "prophet"):
        scenario = rural_bus_dtn(count=9, seed=29)
        plane = BandwidthDtnOverlay(scenario.world, make_router(name),
                                    data_rate_Bps=24_000.0)
        injections = generate_traffic(
            scenario.sim.rng("dtn/traffic"), plane.live_nodes(),
            "uniform", 20, window=(120.0, 300.0), size_bytes=200_000,
            ttl_s=480.0)
        schedule_traffic(plane, injections)
        scenario.run(until=600.0)
        plane.detach()
        ratios[name] = plane.delivery_ratio()
    assert ratios["prophet"] >= ratios["epidemic"]
    assert ratios["prophet"] > 0.0


# ----------------------------------------------------------------------
# the dtn_bandwidth workload through the experiment runner
# ----------------------------------------------------------------------
def _bandwidth_tiny_spec():
    return ExperimentSpec(
        name="bw_tiny", workload="dtn_bandwidth",
        scenarios=("rural_bus_dtn",),
        axes={"count": (6,)}, repeats=2, master_seed=19,
        settings={"duration_s": 480.0, "messages": 8,
                  "size_bytes": 120_000, "rate_Bps": 24_000.0,
                  "routers": ("epidemic", "prophet")})


def test_bandwidth_workload_deterministic_across_workers(tmp_path):
    spec = _bandwidth_tiny_spec()
    outputs = {}
    for workers in (1, 2):
        result = run_campaign(spec, tmp_path / f"w{workers}",
                              workers=workers)
        outputs[workers] = (result.jsonl_path.read_bytes(),
                            result.csv_path.read_bytes())
    assert outputs[1] == outputs[2]


def test_bandwidth_workload_emits_byte_metrics():
    point = _bandwidth_tiny_spec().expand()[0]
    from repro.experiments.workloads import get_workload
    metrics = get_workload("dtn_bandwidth")(point)
    assert metrics["rate_Bps"] == 24_000.0
    for router in ("epidemic", "prophet"):
        assert 0.0 <= metrics[f"{router}_delivery_ratio"] <= 1.0
        assert metrics[f"{router}_bytes_transferred"] > 0
        assert metrics[f"{router}_bytes_offered"] > 0
        assert metrics[f"{router}_transfers_truncated"] >= 0
    assert metrics["prophet_control_bytes"] > 0

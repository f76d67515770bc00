"""The lossy PHY plane: profiles, fading, collision/capture, and its
wiring into the DTN planes, links, faults and the experiment registry.

The point semantics live here; the statistical/differential contract
(analytic-curve convergence, sigma monotonicity, campaign identity at
any worker count) is pinned by ``tests/test_phy_property.py`` and
``benchmarks/bench_phy.py``.
"""

import json

import pytest

from repro.core.buffering import ReliableChannel
from repro.core.errors import ConnectionClosedError
from repro.dtn import BandwidthDtnOverlay, DtnOverlay, make_router
from repro.experiments.cache import cache_key
from repro.experiments.registry import build_scenario, get_scenario
from repro.experiments.spec import RunPoint
from repro.experiments.workloads import get_workload
from repro.faults import FaultPlane
from repro.mobility import StaticPosition
from repro.radio import BLUETOOTH, World
from repro.radio.channel import ChannelClosed, Link
from repro.radio.phy import (
    CAPTURED,
    DELIVERED,
    LOST_COLLISION,
    PhyPlane,
    PhyProfile,
    install_scenario_phy,
)
from repro.radio.technologies import get_technology
from repro.scenarios import Scenario, commuter_corridor
from repro.sim import Simulator


def make_world(seed=1):
    sim = Simulator(seed=seed)
    return sim, World(sim)


def static_pair(world, gap_m=5.0):
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(gap_m, 0), [BLUETOOTH])


# ----------------------------------------------------------------------
# profiles and the analytic curve
# ----------------------------------------------------------------------
def test_profile_is_calibrated_to_nominal_range():
    """Sensitivity == rssi at the technology's range, per technology,
    so the zero-sigma plane is exactly the binary in-range model."""
    sim, world = make_world()
    plane = PhyPlane(world)
    for name in ("bluetooth", "wlan", "gprs"):
        tech = get_technology(name)
        profile = PhyProfile.for_technology(tech)
        assert profile.tech_name == name
        assert profile.sensitivity_dbm == pytest.approx(
            profile.path_loss.rssi_dbm(tech.range_m))
        assert profile.noise_floor_dbm == pytest.approx(
            profile.sensitivity_dbm - profile.required_snr_db)
        # Calibration makes the analytic curve a step at the range.
        assert plane.loss_probability(tech.range_m * 0.99,
                                      tech=tech) == 0.0
        assert plane.loss_probability(tech.range_m * 1.01,
                                      tech=tech) == 1.0


def test_loss_probability_is_monotone_and_jamming_raises_it():
    sim, world = make_world()
    plane = PhyPlane(world, shadowing_sigma_db=6.0)
    curve = [plane.loss_probability(d) for d in (1.0, 4.0, 7.0, 10.0, 13.0)]
    assert curve == sorted(curve)
    assert 0.0 < curve[1] < curve[3] < 1.0
    assert plane.loss_probability(10.0) == pytest.approx(0.5, abs=1e-9)
    for d in (3.0, 6.0, 9.0):
        assert (plane.loss_probability(d, jammed=True)
                > plane.loss_probability(d))
    # With sigma = 0 jamming turns marginal links binary-lossy: close
    # signals punch through the raised floor, far ones drown.
    binary = PhyPlane(World(Simulator(seed=2)))
    assert binary.loss_probability(1.5, jammed=True) == 0.0
    assert binary.loss_probability(5.0, jammed=True) == 1.0


# ----------------------------------------------------------------------
# installation contract
# ----------------------------------------------------------------------
def test_zero_knobs_install_literally_nothing():
    scenario = Scenario(seed=3)
    assert install_scenario_phy(scenario) is None
    assert scenario.world.phy is None

    def corridor(**knobs):
        return build_scenario("commuter_corridor", 1, {"count": 2, **knobs})

    assert corridor().world.phy is None
    lossy = corridor(shadowing_sigma_db=4.0)
    assert isinstance(lossy.world.phy, PhyPlane)
    assert not lossy.world.phy.collisions
    coll = corridor(phy_collisions=1)
    assert coll.world.phy.collisions
    assert coll.world.phy.shadowing_sigma_db == 0.0


def test_stacking_and_negative_knobs_are_refused():
    sim, world = make_world()
    PhyPlane(world)
    with pytest.raises(ValueError, match="already installed"):
        PhyPlane(world)
    sim2, world2 = make_world()
    with pytest.raises(ValueError, match="sigma"):
        PhyPlane(world2, shadowing_sigma_db=-1.0)
    with pytest.raises(ValueError, match="capture"):
        PhyPlane(world2, capture_margin_db=-0.1)
    with pytest.raises(ValueError, match="jammer noise"):
        PhyPlane(world2, jammer_noise_db=-5.0)
    scenario = Scenario(seed=4)
    with pytest.raises(ValueError, match="sigma"):
        install_scenario_phy(scenario, shadowing_sigma_db=-2.0)
    with pytest.raises(ValueError, match="phy_collisions"):
        install_scenario_phy(scenario, phy_collisions=-1)


def test_lossy_festival_is_the_festival_plus_a_default_phy():
    lossy = build_scenario("lossy_festival", 5, {"count": 6})
    assert lossy.world.phy.shadowing_sigma_db == 6.0
    assert lossy.world.phy.collisions
    # With all knobs forced to zero it degenerates to the exact
    # crowded_festival world: same nodes, same mobility draws.
    plain = build_scenario("crowded_festival", 5, {"count": 6})
    bare = build_scenario("lossy_festival", 5, {
        "count": 6, "shadowing_sigma_db": 0.0, "phy_collisions": 0})
    assert bare.world.phy is None
    plain.run(until=120.0)
    bare.run(until=120.0)
    for name in sorted(plain.nodes):
        assert plain.world.position(name) == bare.world.position(name)


# ----------------------------------------------------------------------
# fading
# ----------------------------------------------------------------------
def test_sigma_zero_is_the_exact_binary_threshold():
    sim, world = make_world()
    static_pair(world, gap_m=10.0)          # exactly at Bluetooth range
    world.add_node("far", StaticPosition(10.2, 0), [BLUETOOTH])
    plane = PhyPlane(world)
    assert plane.transmit("a", "b", 1000)   # boundary packet survives
    assert not plane.transmit("a", "far", 1000)
    assert plane.counters.as_dict() == {
        "offered": 2, "delivered": 1, "lost_fading": 1,
        "lost_collision": 0, "captured": 0}


def test_measured_loss_rate_tracks_the_analytic_curve():
    """At a fixed distance the empirical loss frequency sits near
    ``loss_probability`` (statistical tolerance, fixed seed)."""
    sim, world = make_world(seed=11)
    static_pair(world, gap_m=8.0)
    plane = PhyPlane(world, shadowing_sigma_db=6.0, collisions=False)
    trials = 2000
    lost = sum(not plane.transmit("a", "b", 200) for _ in range(trials))
    expected = plane.loss_probability(8.0)
    assert 0.0 < expected < 1.0
    assert lost / trials == pytest.approx(expected, abs=0.03)
    assert plane.counters.offered == trials
    assert (plane.counters.delivered + plane.counters.lost_fading
            == trials)


def test_shadowing_draws_come_from_dedicated_directed_streams():
    """Same seed ⇒ same fates; and the draw sequence is per directed
    pair, so a third pair's traffic never perturbs another pair's."""
    def fates(interleave):
        sim, world = make_world(seed=21)
        static_pair(world, gap_m=8.0)
        world.add_node("c", StaticPosition(0, 8.0), [BLUETOOTH])
        plane = PhyPlane(world, shadowing_sigma_db=6.0, collisions=False)
        out = []
        for index in range(60):
            if interleave and index % 2:
                plane.transmit("a", "c", 100)     # extra traffic
            out.append(plane.transmit("a", "b", 100))
        return out

    assert fates(False) == fates(True)


# ----------------------------------------------------------------------
# collisions and capture
# ----------------------------------------------------------------------
def test_overlap_without_margin_loses_both():
    sim, world = make_world()
    world.add_node("r", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("a", StaticPosition(3.0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(0, 3.0), [BLUETOOTH])
    plane = PhyPlane(world)
    first = plane.begin("a", "r", 1000, started_at=0.0, ends_at=1.0)
    second = plane.begin("b", "r", 1000, started_at=0.5, ends_at=1.5)
    assert second in first.contenders and first in second.contenders
    assert not plane.resolve(first)
    assert not plane.resolve(second)
    assert first.fate == LOST_COLLISION
    assert second.fate == LOST_COLLISION
    assert plane.counters.lost_collision == 2


def test_capture_needs_the_margin_over_the_strongest_rival():
    """a at 1 m beats b at 2 m by ~8.4 dB > the 6 dB margin: a is
    captured, b collides.  The weaker never captures."""
    sim, world = make_world()
    world.add_node("r", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("a", StaticPosition(1.0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(0, 2.0), [BLUETOOTH])
    plane = PhyPlane(world)
    strong = plane.begin("a", "r", 1000, started_at=0.0, ends_at=1.0)
    weak = plane.begin("b", "r", 1000, started_at=0.2, ends_at=1.2)
    assert plane.resolve(strong)
    assert not plane.resolve(weak)
    assert strong.fate == CAPTURED
    assert weak.fate == LOST_COLLISION
    # A second resolve repeats the verdict and counts nothing.
    assert plane.resolve(strong) and not plane.resolve(weak)
    counters = plane.counters
    assert (counters.offered, counters.delivered, counters.captured,
            counters.lost_collision) == (2, 1, 1, 1)
    assert (counters.offered == counters.delivered
            + counters.lost_fading + counters.lost_collision)


def test_touching_windows_do_not_collide():
    sim, world = make_world()
    world.add_node("r", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("a", StaticPosition(3.0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(0, 3.0), [BLUETOOTH])
    plane = PhyPlane(world)
    first = plane.begin("a", "r", 1000, started_at=0.0, ends_at=1.0)
    second = plane.begin("b", "r", 1000, started_at=1.0, ends_at=2.0)
    assert first.contenders == [] and second.contenders == []
    assert plane.resolve(first) and plane.resolve(second)
    assert first.fate == DELIVERED and second.fate == DELIVERED


def test_transmit_serialises_per_sender_no_self_collision():
    """A cascade offering many bundles in one instant occupies
    consecutive air windows — one radio never collides with itself."""
    sim, world = make_world()
    static_pair(world, gap_m=3.0)
    plane = PhyPlane(world)
    assert all(plane.transmit("a", "b", 5000) for _ in range(5))
    assert plane.counters.lost_collision == 0
    assert plane.counters.delivered == 5
    # ... while two *different* senders at the same instant collide.
    world.add_node("c", StaticPosition(0, 3.0), [BLUETOOTH])
    plane.transmit("c", "b", 5000)
    assert plane.counters.lost_collision >= 1


def test_resolve_is_idempotent():
    sim, world = make_world()
    static_pair(world, gap_m=3.0)
    plane = PhyPlane(world)
    tx = plane.begin("a", "b", 1000)
    assert plane.resolve(tx) and plane.resolve(tx)
    assert plane.counters.delivered == 1     # counted once


# ----------------------------------------------------------------------
# fault-plane coupling: jammers are noise, not a binary gate
# ----------------------------------------------------------------------
def _jammed_pair(gap_m, with_phy):
    sim = Simulator(seed=1)
    world = World(sim)
    static_pair(world, gap_m=gap_m)
    faults = FaultPlane(world)
    faults.add_jammer(StaticPosition(gap_m, 0), 3.0)   # disk over b
    phy = PhyPlane(world) if with_phy else None
    return world, faults, phy


def test_jammer_raises_the_noise_floor_instead_of_gating():
    # Marginal link (5 m): the binary gate suppressed it; under the
    # PHY plane the raised floor drowns it as a fading loss instead.
    world, faults, phy = _jammed_pair(5.0, with_phy=True)
    assert faults.can_transmit("a", "b")        # gate skipped
    assert not phy.transmit("a", "b", 1000)
    assert faults.counters.jammed_deliveries == 0
    assert phy.counters.lost_fading == 1
    # Strong link (1.5 m): punches through the jammer's noise.
    world, faults, phy = _jammed_pair(1.5, with_phy=True)
    assert phy.transmit("a", "b", 1000)
    # Without the plane the old binary gate still applies.
    world, faults, phy = _jammed_pair(1.5, with_phy=False)
    assert not faults.can_transmit("a", "b")
    assert faults.counters.jammed_deliveries == 1


# ----------------------------------------------------------------------
# DTN plane wiring: lost data retries, lost control blinds
# ----------------------------------------------------------------------
def test_zero_loss_plane_is_byte_identical_to_no_plane():
    """A forced sigma-0, collisions-off plane must not change a single
    observable of a DTN run — while its counters prove it was hit on
    every transmission (the hooks are live, the losses are zero)."""
    def cell(with_plane):
        scenario = commuter_corridor(count=8, seed=6)
        if with_plane:
            PhyPlane(scenario.world, shadowing_sigma_db=0.0,
                     collisions=False)
        plane = DtnOverlay(scenario.world, make_router("epidemic"),
                           meter=scenario.meter)
        for _ in range(6):
            plane.send("home", "work", ttl_s=400.0)
        scenario.run(until=480.0)
        observables = {
            "delivered": sorted(plane.delivered),
            "latencies": plane.latencies(),
            "transmissions": plane.counters.transmissions,
            "duplicates": plane.counters.duplicates,
            "control_bytes": scenario.meter.bytes(
                category="dtn-control"),
            "positions": {name: scenario.world.position(name)
                          for name in sorted(scenario.nodes)},
        }
        return observables, scenario

    plain, _ = cell(False)
    gated, scenario = cell(True)
    assert plain == gated
    counters = scenario.world.phy.counters
    assert counters.offered > 0
    assert counters.offered == counters.delivered    # zero-loss


def test_lost_control_blinds_the_listener_into_duplicates():
    """A lost contact-open summary vector leaves the listener offering
    against an empty vector for the whole contact — epidemic re-offers
    bundles the peer already has, which a clean world never does."""
    def run(lossy, seed=3):
        scenario = build_scenario("commuter_corridor", seed, {
            "count": 8, "shadowing_sigma_db": 8.0 if lossy else 0.0,
            "phy_collisions": 1 if lossy else 0})
        plane = DtnOverlay(scenario.world, make_router("epidemic"))
        for _ in range(6):
            plane.send("home", "work", ttl_s=400.0)
        scenario.run(until=480.0)
        return plane, scenario

    lossy_plane, lossy_scenario = run(lossy=True)
    clean_plane, _ = run(lossy=False)
    assert clean_plane.counters.duplicates == 0
    assert lossy_plane.counters.duplicates > 0
    phy = lossy_scenario.world.phy.counters
    assert phy.lost_fading > 0
    # Losses cost real deliveries but epidemic redundancy recovers
    # most of the payload traffic.
    assert len(lossy_plane.delivered) >= 1


def test_bandwidth_plane_retries_lost_legs():
    """A leg faded mid-transfer re-queues: custody does not move, the
    pump retries, and the bundles still arrive on a static pair."""
    scenario = Scenario(seed=9)
    scenario.add_node("a", position=(0, 0), mobility_class="static")
    scenario.add_node("b", position=(5, 0), mobility_class="static")
    PhyPlane(scenario.world, shadowing_sigma_db=8.0)
    plane = BandwidthDtnOverlay(scenario.world, make_router("epidemic"),
                                data_rate_Bps=20_000.0)
    for _ in range(5):
        plane.send("a", "b", ttl_s=500.0, size_bytes=40_000)
    scenario.run(until=300.0)
    phy = scenario.world.phy.counters
    assert phy.lost_fading > 0               # the air genuinely bit
    assert len(plane.delivered) == 5         # retries recovered it


def test_phy_randomness_never_moves_a_walker():
    """Cranking the PHY knobs must not move a single commuter —
    shadowing draws come only from ``phy/shadowing/*`` streams."""
    clean = commuter_corridor(count=8, seed=13)
    lossy = build_scenario("commuter_corridor", 13, {
        "count": 8, "shadowing_sigma_db": 10.0, "phy_collisions": 1})
    clean_plane = DtnOverlay(clean.world, make_router("epidemic"))
    lossy_plane = DtnOverlay(lossy.world, make_router("epidemic"))
    clean_plane.send("home", "work", ttl_s=300.0)
    lossy_plane.send("home", "work", ttl_s=300.0)
    clean.run(until=300.0)
    lossy.run(until=300.0)
    for name in sorted(clean.nodes):
        assert (clean.world.position(name)
                == lossy.world.position(name)), name


def test_same_seed_same_per_packet_fates():
    def run():
        scenario = build_scenario("commuter_corridor", 17, {
            "count": 8, "shadowing_sigma_db": 7.0, "phy_collisions": 1})
        plane = DtnOverlay(scenario.world, make_router("epidemic"))
        for _ in range(4):
            plane.send("home", "work", ttl_s=300.0)
        scenario.run(until=360.0)
        return (scenario.world.phy.counters.as_dict(),
                sorted(plane.delivered))

    assert run() == run()


# ----------------------------------------------------------------------
# links + ReliableChannel: retransmissions recover faded frames
# ----------------------------------------------------------------------
class _LinkConnection:
    """The minimal connection surface ReliableChannel needs, speaking
    directly over a raw :class:`Link` (no fabric, no handshake)."""

    def __init__(self, link, local):
        self.link = link
        self.sim = link.sim
        self.local_node_id = local
        self.connection_id = link.link_id

    @property
    def is_open(self):
        return self.link.is_open

    def transport_alive(self):
        return self.link.is_open and self.link.in_range()

    def write(self, payload, size_bytes):
        self.link.send(self.local_node_id, payload, size_bytes)

    def read(self):
        try:
            raw = yield self.link.receive(self.local_node_id)
        except ChannelClosed as exc:
            raise ConnectionClosedError(str(exc)) from exc
        return raw

    def on_connection_changed(self, callback):
        pass

    def close(self, reason=""):
        self.link.close()


def _reliable_over_link(sigma):
    sim = Simulator(seed=7)
    world = World(sim)
    static_pair(world, gap_m=5.0)
    if sigma:
        PhyPlane(world, shadowing_sigma_db=sigma)
    link = Link(world, "a", "b", BLUETOOTH)
    tx = ReliableChannel(_LinkConnection(link, "a"), ack_every=1)
    rx = ReliableChannel(_LinkConnection(link, "b"), ack_every=1)
    received = []

    def sender():
        for index in range(30):
            tx.send(f"p{index}", 400)
            yield sim.timeout(1.0)

    def receiver():
        while True:
            try:
                item = yield from rx.receive()
            except ConnectionClosedError:
                return
            received.append(item)

    sim.spawn(sender(), name="phy-test-sender")
    sim.spawn(receiver(), name="phy-test-receiver")
    sim.run(until=120.0)
    return tx, received, link


def test_reliable_channel_retransmits_over_a_lossy_phy():
    """Regression: the retransmission counter moves under the PHY
    plane (faded frames re-sent until acked, nothing lost end-to-end)
    and stays exactly zero without it."""
    tx, received, link = _reliable_over_link(sigma=8.0)
    assert link.frames_lost > 0              # the air genuinely bit
    assert link.is_open                      # a faded frame ≠ link down
    assert tx.retransmissions > 0
    assert received == [f"p{i}" for i in range(30)]   # at-least-once

    tx, received, link = _reliable_over_link(sigma=0.0)
    assert link.frames_lost == 0
    assert tx.retransmissions == 0
    assert received == [f"p{i}" for i in range(30)]


# ----------------------------------------------------------------------
# registry and cache wiring
# ----------------------------------------------------------------------
def test_phy_params_are_registered_on_the_dtn_families():
    for name in ("commuter_corridor", "hostile_corridor",
                 "island_hopping_ferry", "crowded_festival",
                 "rural_bus_dtn"):
        params = {p.name: p for p in get_scenario(name).params}
        assert params["shadowing_sigma_db"].default == 0.0, name
        assert params["phy_collisions"].default == 0, name
        assert "capture_margin_db" in params, name
    lossy = {p.name: p for p in get_scenario("lossy_festival").params}
    assert lossy["shadowing_sigma_db"].default == 6.0
    assert lossy["phy_collisions"].default == 1


def test_cache_key_distinguishes_phy_params():
    """Two cells differing only in a PHY knob must never share a cache
    entry: the knobs flow through ``cache_key`` like any scenario axis."""
    def key(sigma):
        point = RunPoint(
            spec="phy_sweep", workload="dtn_phy", index=0,
            scenario="crowded_festival",
            params={"shadowing_sigma_db": sigma, "phy_collisions": 1},
            repeat=0, seed=1234, settings={"duration_s": 60.0})
        return cache_key(point)

    assert key(0.0) != key(4.0) != key(8.0)
    assert key(4.0) == key(4.0)


def test_dtn_phy_workload_zero_knobs_degenerates_to_dtn_bandwidth():
    """Shared metric keys of ``dtn_phy`` with no PHY params must be
    byte-identical to ``dtn_bandwidth`` at the same seed — and its own
    PHY counters all zero (no plane was installed)."""
    settings = {"duration_s": 240.0, "messages": 6, "ttl_s": 200.0,
                "size_bytes": 60_000, "rate_Bps": 24_000.0,
                "routers": ("epidemic", "spray"), "spray_copies": 6}

    def run(workload):
        point = RunPoint(
            spec="phy_zero_ident", workload=workload, index=0,
            scenario="crowded_festival", params={"count": 10},
            repeat=0, seed=777, settings=dict(settings))
        return get_workload(workload)(point)

    phy = run("dtn_phy")
    bandwidth = run("dtn_bandwidth")
    shared = sorted(set(phy) & set(bandwidth))
    assert shared                                     # non-vacuous
    assert (json.dumps({k: phy[k] for k in shared}, sort_keys=True)
            == json.dumps({k: bandwidth[k] for k in shared},
                          sort_keys=True))
    assert all(phy[k] == 0 for k in phy if "_phy_" in k)


def test_dtn_phy_workload_reports_loss_under_a_lossy_cell():
    point = RunPoint(
        spec="phy_lossy_cell", workload="dtn_phy", index=0,
        scenario="crowded_festival",
        params={"count": 10, "shadowing_sigma_db": 8.0,
                "phy_collisions": 1},
        repeat=0, seed=777,
        settings={"duration_s": 240.0, "messages": 6, "ttl_s": 200.0,
                  "size_bytes": 60_000, "rate_Bps": 24_000.0,
                  "routers": ("epidemic",), "spray_copies": 6})
    metrics = get_workload("dtn_phy")(point)
    assert metrics["epidemic_phy_offered"] > 0
    assert (metrics["epidemic_phy_offered"]
            >= metrics["epidemic_phy_delivered"]
            + metrics["epidemic_phy_lost_fading"]
            + metrics["epidemic_phy_lost_collision"])
    assert metrics["epidemic_phy_lost_fading"] > 0

"""The fault-injection plane: suspend/resume, radio faults, byzantine
beaconers, jammers, and their wiring into the world, bus and DTN planes.

The differential contract ("zero rates install the literal fault-free
code path", "same seed ⇒ same schedule at any worker count") is pinned
by ``tests/test_faults_property.py`` and
``benchmarks/bench_fault_tolerance.py``; this file covers the plane's
point semantics.
"""

import pytest

from repro.dtn import BandwidthDtnOverlay, DtnOverlay, make_router
from repro.faults import (
    BYZANTINE,
    CRASH,
    DEAF,
    DEAF_END,
    MUTE,
    MUTE_END,
    REBOOT,
    FaultEvent,
    FaultPlane,
    install_scenario_faults,
)
from repro.experiments.registry import build_scenario
from repro.mobility import LinearMovement, StaticPosition
from repro.radio import BLUETOOTH, World
from repro.radio.bus import LINK_DOWN, LINK_UP
from repro.scenarios import Scenario, commuter_corridor
from repro.sim import Simulator


def make_world(seed=1):
    sim = Simulator(seed=seed)
    return sim, World(sim)


def static_pair(world, gap_m=5.0):
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(gap_m, 0), [BLUETOOTH])


# ----------------------------------------------------------------------
# world suspension semantics
# ----------------------------------------------------------------------
def test_suspended_node_is_invisible_to_every_query():
    sim, world = make_world()
    static_pair(world)
    plane = FaultPlane(world)
    plane.crash_now("b")
    assert world.is_suspended("b")
    assert world.has_node("b")                   # dark, not gone
    assert not world.in_range("a", "b", BLUETOOTH)
    assert world.in_range_raw("a", "b", BLUETOOTH)   # geometry intact
    assert world.neighbors("a", BLUETOOTH) == []
    assert world.neighbors_brute_force("a", BLUETOOTH) == []
    assert world.link_quality_at("a", "b", BLUETOOTH, sim.now) == 0
    # A scan hears only neighbors(), so the crashed node goes unheard.
    assert [other for other in world.neighbors("a", BLUETOOTH)
            if world.heard_during_scan(other, BLUETOOTH, 0.0, 2.0)] == []
    plane.reboot_now("b")
    assert not world.is_suspended("b")
    assert world.in_range("a", "b", BLUETOOTH)
    assert world.neighbors("a", BLUETOOTH) == ["b"]
    assert plane.counters.crashes == 1
    assert plane.counters.reboots == 1


def test_crash_and_reboot_fire_synthetic_link_events():
    sim, world = make_world()
    static_pair(world)
    plane = FaultPlane(world)
    events = []
    world.bus.watch_link("a", "b", BLUETOOTH, callback=events.append)
    plane.arm([FaultEvent(5.0, CRASH, "b"), FaultEvent(12.0, REBOOT, "b")])
    sim.run(until=20.0)
    # A static in-range pair would park its watch forever; the outage
    # is the only connectivity the pair ever sees.
    assert [(e.kind, e.time) for e in events] == [
        (LINK_DOWN, 5.0), (LINK_UP, 12.0)]


def test_crash_guards_unknown_and_double_crash():
    sim, world = make_world()
    static_pair(world)
    plane = FaultPlane(world)
    plane.crash_now("ghost")                     # unknown: no-op
    plane.crash_now("b")
    plane.crash_now("b")                         # already dark: no-op
    plane.reboot_now("ghost")                    # never crashed: no-op
    assert plane.counters.crashes == 1
    assert plane.counters.reboots == 0


def test_reboot_on_the_ring_heading_out_opens_no_contact():
    """A node rebooting exactly at range while it leaves gets no
    synthetic LinkUp: the solver already counts it outside, so that
    contact would never close."""
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", LinearMovement((0.0, 0.0), (1.0, 0.0)), [BLUETOOTH])
    events = []
    world.bus.watch_link("a", "b", BLUETOOTH, callback=events.append)
    plane = FaultPlane(world)
    sim.run(until=2.0)
    plane.crash_now("b")
    sim.run(until=10.0)
    plane.reboot_now("b")       # 10 m out, heading away
    sim.run(until=200.0)
    assert [(e.kind, e.time) for e in events] == [(LINK_DOWN, 2.0)]


def test_stacking_two_planes_is_refused():
    sim, world = make_world()
    FaultPlane(world)
    with pytest.raises(ValueError, match="already installed"):
        FaultPlane(world)


# ----------------------------------------------------------------------
# radio faults, byzantine beaconers, jammers
# ----------------------------------------------------------------------
def test_deaf_and_mute_gate_one_direction_each():
    sim, world = make_world()
    static_pair(world)
    plane = FaultPlane(world)
    plane.arm([FaultEvent(1.0, DEAF, "b"), FaultEvent(4.0, DEAF_END, "b"),
               FaultEvent(6.0, MUTE, "b"), FaultEvent(9.0, MUTE_END, "b")])
    sim.run(until=2.0)
    assert not plane.can_transmit("a", "b")      # deaf: won't receive
    assert plane.can_transmit("b", "a")          # …but still sends
    sim.run(until=5.0)
    assert plane.can_transmit("a", "b")          # interval over
    sim.run(until=7.0)
    assert plane.can_transmit("a", "b")          # mute: still receives
    assert not plane.can_transmit("b", "a")      # …but won't send
    sim.run(until=10.0)
    assert plane.can_transmit("b", "a")
    # Deaf/mute suppressions are uncounted; only jamming is.
    assert plane.counters.jammed_deliveries == 0


def test_byzantine_beaconer_advertises_the_empty_vector():
    sim, world = make_world()
    static_pair(world)
    plane = FaultPlane(world)
    plane.arm([FaultEvent(0.0, BYZANTINE, "b")])  # applies immediately
    carried = frozenset({"x#1", "y#2"})
    assert plane.advertised_vector("b", carried) == frozenset()
    assert plane.advertised_vector("a", carried) == carried
    assert plane.advertised_vector("b", frozenset()) == frozenset()
    assert plane.counters.byzantine_beacons == 1  # empty lie uncounted


def test_jammer_disk_suppresses_and_counts():
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(5, 0), [BLUETOOTH])
    world.add_node("c", StaticPosition(50, 0), [BLUETOOTH])
    world.add_node("d", StaticPosition(55, 0), [BLUETOOTH])
    plane = FaultPlane(world)
    plane.add_jammer(StaticPosition(0, 0), 8.0)
    assert plane.jammed("a")
    assert plane.jammed("b")
    assert not plane.jammed("c")
    assert not plane.can_transmit("a", "b")      # both inside the disk
    assert not plane.can_transmit("b", "c")      # sender inside
    assert plane.can_transmit("c", "d")          # clear of the disk
    assert plane.counters.jammed_deliveries == 2
    with pytest.raises(ValueError, match="radius"):
        plane.add_jammer(StaticPosition(0, 0), 0.0)


# ----------------------------------------------------------------------
# scenario installation surface
# ----------------------------------------------------------------------
def test_zero_rates_install_no_plane_at_all():
    assert commuter_corridor(seed=3).world.faults is None
    scenario = Scenario(seed=3)
    assert install_scenario_faults(scenario) is None
    assert scenario.world.faults is None


def test_install_rejects_out_of_range_rates():
    with pytest.raises(ValueError, match="crash_rate"):
        install_scenario_faults(Scenario(seed=1), crash_rate=1.5)
    with pytest.raises(ValueError, match="jammer_count"):
        install_scenario_faults(Scenario(seed=1), jammer_count=-1)


def test_terminals_are_never_faulted():
    scenario = build_scenario("hostile_corridor", 5, {
        "crash_rate": 1.0, "radio_fault_rate": 1.0, "byzantine_rate": 1.0})
    plane = scenario.world.faults
    faulted = {event.node for event in plane.schedule
               if event.kind != "jammer"}
    assert faulted == {f"m{i}" for i in range(10)}
    assert "home" not in faulted and "work" not in faulted


def test_hostile_corridor_is_the_commuter_corridor_plus_faults():
    hostile = build_scenario("hostile_corridor", 4)
    plain = build_scenario("commuter_corridor", 4, {
        "crash_rate": 0.2, "crash_downtime_s": 120.0,
        "radio_fault_rate": 0.1, "byzantine_rate": 0.1,
        "jammer_count": 1, "fault_window_s": 360.0})
    assert hostile.world.faults.schedule == plain.world.faults.schedule
    assert sorted(hostile.nodes) == sorted(plain.nodes)


# ----------------------------------------------------------------------
# DTN wiring
# ----------------------------------------------------------------------
def _mule_scenario(seed=5):
    """src — 60 m gap — dst, with a mule driving from src to dst."""
    scenario = Scenario(seed=seed)
    scenario.add_node("src", position=(0, 0), mobility_class="static")
    scenario.add_node("dst", position=(60, 0), mobility_class="static")
    scenario.add_node("mule",
                      mobility=LinearMovement((0.0, 5.0), (1.0, 0.0)))
    return scenario


def test_send_from_a_crashed_source_is_refused():
    scenario = _mule_scenario()
    fault_plane = FaultPlane(scenario.world)
    plane = DtnOverlay(scenario.world, make_router("epidemic"))
    fault_plane.crash_now("src")
    with pytest.raises(ValueError, match="crashed"):
        plane.send("src", "dst")
    # A crashed *destination* is fine — the bundle waits out the outage.
    fault_plane.crash_now("dst")
    fault_plane.reboot_now("src")
    plane.send("src", "dst")


def test_crash_cancels_in_flight_transfer_as_churn():
    """A transfer streaming toward a node that dies mid-contact must be
    cancelled and counted — not credited as a truncated partial."""
    scenario = _mule_scenario()
    fault_plane = FaultPlane(scenario.world)
    plane = BandwidthDtnOverlay(scenario.world, make_router("epidemic"),
                                data_rate_Bps=1000.0)
    # 20 kB at 1 kB/s needs a 20 s contact; the mule crashes 3 s in.
    plane.send("src", "dst", size_bytes=20_000, ttl_s=500.0)
    scenario.run(until=3.0)
    fault_plane.crash_now("mule")
    assert plane.counters.transfers_cancelled >= 1
    assert len(plane.stores["mule"]) == 0
    scenario.run(until=400.0)
    assert plane.delivered == {}                 # the one carrier died


def test_deaf_receiver_blocks_the_exchange():
    scenario = Scenario(seed=5)
    scenario.add_node("src", position=(0, 0), mobility_class="static")
    scenario.add_node("dst", position=(60, 0), mobility_class="static")
    # Approaches src from the west; in Bluetooth range ~t=11.3-28.7.
    scenario.add_node("mule",
                      mobility=LinearMovement((-20.0, 5.0), (1.0, 0.0)))
    fault_plane = FaultPlane(scenario.world)
    fault_plane.arm([FaultEvent(0.0, DEAF, "mule")])
    plane = DtnOverlay(scenario.world, make_router("epidemic"))
    bundle = plane.send("src", "dst", ttl_s=500.0)
    scenario.run(until=35.0)
    # The mule drove through src's disk deaf: it never took a copy.
    assert plane.stores["mule"].get(bundle.bundle_id) is None
    assert plane.delivered == {}

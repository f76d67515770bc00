"""The connectivity-event bus: scheduling, invalidation, churn safety."""

import pytest

from repro.core.config import HandoverConfig
from repro.core.handover import HandoverThread
from repro.mobility import (
    CorridorWalk,
    LinearMovement,
    PathMovement,
    RandomWaypoint,
    StaticPosition,
)
from repro.radio import BLUETOOTH, WLAN, Link, World
from repro.radio.bus import LINK_DOWN, LINK_UP, QUALITY_BELOW, ContactStream
from repro.scenarios import Scenario
from repro.sim import SimulationError, Simulator


def make_world(seed=1):
    sim = Simulator(seed=seed)
    return sim, World(sim)


def mixed_world(seed, count, area=70.0):
    """Every bundled piecewise-linear model, on one or both radios."""
    sim, world = make_world(seed)
    for index in range(count):
        name = f"n{index:03d}"
        kind = index % 4
        if kind == 0:
            mobility = StaticPosition(3.1 * index % area, 5.7 * index % area)
        elif kind == 1:
            mobility = RandomWaypoint(
                sim.rng(f"rwp/{name}"), area=(area, area),
                speed_range=(0.4, 3.0), pause_range=(0.0, 8.0))
        elif kind == 2:
            mobility = LinearMovement(
                (index % 9 * 7.0, index % 5 * 11.0),
                (0.6 * (1 if index % 2 else -1), 0.3))
        else:
            x = index % 11 * 6.0
            mobility = PathMovement(
                [(0.0, (x, 0.0)), (30.0, (x, area / 2)),
                 (75.0, (0.0, area / 2)), (90.0, (0.0, area / 2))])
        technologies = [BLUETOOTH] if index % 3 else [BLUETOOTH, WLAN]
        world.add_node(name, mobility, technologies)
    return sim, world


# ----------------------------------------------------------------------
# kernel plumbing
# ----------------------------------------------------------------------
def test_call_at_runs_and_cancels():
    sim = Simulator(seed=0)
    ran = []
    sim.call_at(5.0, lambda: ran.append(sim.now))
    handle = sim.call_at(7.0, lambda: ran.append("cancelled-anyway"))
    handle.cancel()
    handle.cancel()  # idempotent
    sim.run()
    assert ran == [5.0]
    assert sim.now == 7.0  # the voided entry still drains off the heap
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)  # scheduling in the past


def test_kernel_counts_processed_events():
    sim = Simulator(seed=0)
    for delay in (1.0, 2.0, 3.0):
        sim.timeout(delay)
    sim.run()
    assert sim.events_processed == 3


# ----------------------------------------------------------------------
# watch lifecycle
# ----------------------------------------------------------------------
def test_repeating_link_watch_fires_alternating_events():
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    # Out 5 m -> 15 m (down at 10), back (up at 10), out again.
    world.add_node("b", PathMovement([
        (0.0, (5.0, 0.0)), (10.0, (15.0, 0.0)), (20.0, (5.0, 0.0)),
        (30.0, (15.0, 0.0))]), [BLUETOOTH])
    events = []
    world.bus.watch_link("a", "b", BLUETOOTH, callback=events.append)
    sim.run(until=40.0)
    assert [e.kind for e in events] == [LINK_DOWN, LINK_UP, LINK_DOWN]
    assert [round(e.time, 6) for e in events] == [5.0, 15.0, 25.0]
    assert world.stats.bus.fired == 3


def test_watch_on_unknown_node_is_refused():
    """A watch naming a node the world does not hold could never fire,
    even after the node joins, so registration refuses it."""
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    events = []
    with pytest.raises(KeyError, match="zz"):
        world.bus.watch_link("a", "zz", BLUETOOTH, callback=events.append)
    with pytest.raises(KeyError, match="zz"):
        world.bus.watch_quality_below("zz", "a", BLUETOOTH, 100,
                                      callback=events.append)
    assert world.bus.active_watches() == 0
    world.add_node("zz", LinearMovement((100.0, 0.0), (-1.0, 0.0)),
                   [BLUETOOTH])
    world.bus.watch_link("a", "zz", BLUETOOTH, callback=events.append)
    sim.run(until=200.0)
    assert [(e.kind, round(e.time, 6)) for e in events] == [
        (LINK_UP, 90.0), (LINK_DOWN, 110.0)]


def test_watch_links_batch_equals_per_pair_watches():
    """Twin worlds, twin event streams: batch registration schedules and
    fires exactly the events per-pair registration does."""
    streams = {}
    for mode in ("loop", "batch"):
        sim, world = mixed_world(seed=11, count=16)
        bus = world.bus
        ids = world.node_ids()
        pairs = [(ids[i], ids[j])
                 for i in range(len(ids)) for j in range(i + 1, len(ids))]
        events = []

        def record(event, events=events):
            events.append((event.time, event.kind,
                           event.node_a, event.node_b))

        if mode == "loop":
            watches = [bus.watch_link(a, b, BLUETOOTH, record)
                       for a, b in pairs]
        else:
            watches = bus.watch_links_batch(pairs, BLUETOOTH, record)
        assert [(w.node_a, w.node_b) for w in watches] == pairs
        # run(until=...) — repeating watches on waypoint pairs refill
        # the event queue forever, so draining it would never return.
        sim.run(until=150.0)
        bus_stats = world.stats.bus
        streams[mode] = (events, bus_stats.fired, bus_stats.scheduled,
                         bus_stats.rescheduled)
    assert streams["loop"] == streams["batch"]
    assert streams["loop"][0]   # the worlds do produce contacts


def test_settled_pair_watch_parks_without_events():
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(4, 0), [BLUETOOTH])
    events = []
    watch = world.bus.watch_link("a", "b", BLUETOOTH, callback=events.append)
    assert not watch.armed  # parked: nothing will ever cross
    sim.run(until=1000.0)
    assert events == []
    assert world.stats.bus.scheduled == 0


def test_quality_below_fires_immediately_when_already_low():
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(9.5, 0), [BLUETOOTH])  # edge zone
    events = []
    world.bus.watch_quality_below("a", "b", BLUETOOTH, 230,
                                  callback=events.append)
    sim.run(until=1.0)
    assert len(events) == 1
    assert events[0].kind == QUALITY_BELOW
    assert events[0].time == 0.0


def test_override_crossing_beyond_horizon_is_still_detected():
    """A settled pair with a slow decay must not park the quality watch:
    the crossing lies past the prediction horizon, so the watch has to
    keep re-checking at rollover instead of sleeping forever."""
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(4, 0), [BLUETOOTH])
    # round(255 - 0.04 t) < 230 from t = 637.5 — past the 600 s horizon.
    world.install_linear_decay("a", "b", BLUETOOTH, initial_quality=255,
                               decay_per_second=0.04)
    events = []
    world.bus.watch_quality_below("a", "b", BLUETOOTH, 230,
                                  callback=events.append)
    sim.run(until=2000.0)
    assert len(events) == 1
    assert events[0].time == pytest.approx(637.5, abs=1e-3)
    assert world.stats.bus.rescheduled >= 1  # horizon rollover re-check


def test_override_change_invalidates_and_reschedules():
    """Installing a decay after the watch armed re-predicts the crossing."""
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(4.0, 0), [BLUETOOTH])
    events = []
    world.bus.watch_quality_below("a", "b", BLUETOOTH, 230,
                                  callback=events.append)
    assert events == []  # plateau quality 255: parked
    world.install_linear_decay("a", "b", BLUETOOTH, initial_quality=240)
    assert world.stats.bus.rescheduled >= 1
    sim.run(until=60.0)
    assert len(events) == 1
    assert events[0].time == pytest.approx(10.5, abs=1e-6)


# ----------------------------------------------------------------------
# contact streams
# ----------------------------------------------------------------------
def test_contact_stream_seeds_reports_leavers_and_detaches_cleanly():
    sim, world = make_world()
    for name, x in (("d", 3.0), ("a", 0.0), ("c", 100.0), ("b", 5.0)):
        world.add_node(name, StaticPosition(x, 0), [BLUETOOTH])
    world.bus.watch_link("a", "b", BLUETOOTH, callback=lambda event: None)
    before = world.bus.active_watches()
    left = []
    stream = ContactStream(world, BLUETOOTH, ["d", "c", "b", "a"],
                           callback=lambda event: None,
                           on_leave=left.append)
    assert world.bus.active_watches() == before + 6   # one per pair
    assert [(e.kind, e.pair(), e.time) for e in stream.initial] == [
        (LINK_UP, ("a", "b"), 0.0), (LINK_UP, ("a", "d"), 0.0),
        (LINK_UP, ("b", "d"), 0.0)]
    world.remove_node("c")       # cancels (a,c), (b,c), (c,d)
    assert left == ["c", "c", "c"]
    stream.detach()
    assert left == ["c", "c", "c"]
    assert world.bus.active_watches() == before
    stream.detach()              # idempotent


# ----------------------------------------------------------------------
# churn: no event for a dead node ever fires (satellite)
# ----------------------------------------------------------------------
def test_no_event_fires_for_removed_node():
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", LinearMovement((5.0, 0.0), (1.0, 0.0)), [BLUETOOTH])
    events = []
    world.bus.watch_link("a", "b", BLUETOOTH, callback=events.append)
    sim.run(until=2.0)         # crossing predicted for t=5
    world.remove_node("b")     # powered off before it happens
    assert world.stats.bus.cancelled >= 1
    sim.run(until=100.0)       # run far past the predicted instant
    assert events == []
    assert world.stats.bus.fired == 0


def test_power_off_cancels_pending_contact_events():
    """PeerHoodNode.power_off cancels bus watches via World.remove_node."""
    scenario = Scenario(seed=5)
    scenario.add_node("anchor", position=(0, 0), mobility_class="static")
    scenario.add_node(
        "walker",
        mobility=CorridorWalk((5.0, 0.0), heading_deg=0.0, depart_time=10.0),
        mobility_class="dynamic")
    events = []
    scenario.world.bus.watch_link("anchor", "walker", BLUETOOTH,
                                  callback=events.append)
    scenario.run(until=5.0)
    scenario.node("walker").power_off()
    cancelled_before = scenario.world.stats.bus.cancelled
    assert cancelled_before >= 1
    scenario.run(until=120.0)  # walker would have left range at ~13.6 s
    assert events == []
    assert scenario.world.stats.bus.fired == 0


def test_scenario_remove_node_churn_cancels_monitor_watch():
    """A sleeping event-driven monitor wakes and exits on peer removal."""
    scenario = Scenario(seed=6)
    anchor = scenario.add_node("anchor", position=(0, 0),
                               mobility_class="static")
    peer = scenario.add_node("peer", position=(4.0, 0),
                             mobility_class="static")
    link = Link(scenario.world, "anchor", "peer", BLUETOOTH)
    from repro.core.connection import PeerHoodConnection
    connection = PeerHoodConnection(
        fabric=scenario.fabric, local_node_id="anchor", link=link,
        connection_id=1, remote_address=peer.address, service_name="t")
    thread = HandoverThread(anchor.library, connection,
                            config=HandoverConfig(event_driven=True)).start()
    scenario.run(until=10.0)
    assert thread.monitor_wakeups == 0  # plateau: predictive sleep
    scenario.remove_node("peer")
    # The removal cancelled the monitor's sleep watch; the monitor wakes,
    # reads quality 0 (peer gone) and proceeds through its low counter.
    scenario.run(until=20.0)
    assert thread.monitor_wakeups > 0
    lows = scenario.trace.events("signal-low")
    assert lows and lows[0].detail["quality"] == 0


# ----------------------------------------------------------------------
# scheduled link breaks
# ----------------------------------------------------------------------
def test_idle_link_breaks_at_scheduled_instant():
    """No traffic needed: the link goes down when coverage is lost."""
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", LinearMovement((5.0, 0.0), (1.0, 0.0)), [BLUETOOTH])
    link = Link(world, "a", "b", BLUETOOTH)
    sim.run(until=4.999)
    assert link.is_open
    sim.run(until=5.001)
    assert not link.is_open  # broke at t=5 with zero frames exchanged


def test_scheduled_break_wakes_blocked_receiver():
    from repro.radio.channel import ChannelClosed
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [WLAN])
    world.add_node("b", LinearMovement((30.0, 0.0), (2.0, 0.0)), [WLAN])
    link = Link(world, "a", "b", WLAN)
    outcomes = []

    def receiver(sim, link):
        try:
            yield link.receive("a")
        except ChannelClosed:
            outcomes.append(sim.now)

    sim.spawn(receiver(sim, link))
    sim.run(until=60.0)
    assert outcomes == [10.0]  # 30 + 2t = 50 -> t = 10


def test_closed_link_cancels_its_down_watch():
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", LinearMovement((5.0, 0.0), (1.0, 0.0)), [BLUETOOTH])
    link = Link(world, "a", "b", BLUETOOTH)
    link.close()
    assert world.stats.bus.cancelled >= 1
    assert world.bus.active_watches() == 0

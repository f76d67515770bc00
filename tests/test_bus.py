"""The connectivity-event bus: scheduling and invalidation."""

import pytest

from repro.mobility import (
    LinearMovement,
    PathMovement,
    RandomWaypoint,
    StaticPosition,
)
from repro.radio import BLUETOOTH, WLAN, Link, World
from repro.radio.bus import LINK_DOWN, LINK_UP, QUALITY_BELOW, ContactStream
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
    assert world.stats.bus.scheduled == 0   # nothing armed
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
    assert world.stats.bus.scheduled == 0   # parked: nothing will cross
    assert watch.active
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


def test_quality_below_zero_threshold_never_fires():
    """Quality never reads below 0, so a threshold-0 watch stays silent,
    also when b walks past the coverage edge (quality 180, then 0)."""
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", LinearMovement((1, 0), (1, 0)), [BLUETOOTH])
    events = []
    world.bus.watch_quality_below("a", "b", BLUETOOTH, 0,
                                  callback=events.append)
    sim.run(until=100.0)
    assert events == []
    assert world.contacts.next_quality_crossing(
        "a", "b", BLUETOOTH, 0, t0=0.0) is None


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
def test_contact_stream_seeds_and_detaches_cleanly():
    sim, world = make_world()
    for name, x in (("d", 3.0), ("a", 0.0), ("c", 100.0), ("b", 5.0)):
        world.add_node(name, StaticPosition(x, 0), [BLUETOOTH])
    other = world.bus.watch_link("a", "b", BLUETOOTH,
                                 callback=lambda event: None)
    stream = ContactStream(world, BLUETOOTH, ["d", "c", "b", "a"],
                           callback=lambda event: None)
    assert [(e.kind, (e.node_a, e.node_b), e.time)
            for e in stream.initial] == [
        (LINK_UP, ("a", "b"), 0.0), (LINK_UP, ("a", "d"), 0.0),
        (LINK_UP, ("b", "d"), 0.0)]
    stream.detach()
    assert world.stats.bus.cancelled == 6   # one watch per pair
    assert other.active                     # not the stream's to cancel
    stream.detach()              # idempotent
    assert world.stats.bus.cancelled == 6


def test_contact_stream_pair_starting_on_the_ring_follows_its_heading():
    """A pair exactly at range is in contact only if it is closing in:
    one leaving opens no contact (it would never close), one arriving
    opens one that closes when it leaves the far side."""
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("out", LinearMovement((10.0, 0.0), (1.0, 0.0)),
                   [BLUETOOTH])
    world.add_node("in", LinearMovement((0.0, 10.0), (0.0, -1.0)),
                   [BLUETOOTH])
    events = []
    leaving = ContactStream(world, BLUETOOTH, ["a", "out"],
                            callback=events.append)
    arriving = ContactStream(world, BLUETOOTH, ["a", "in"],
                             callback=events.append)
    assert leaving.initial == []
    assert [(e.kind, (e.node_a, e.node_b), e.time)
            for e in arriving.initial] == [
        (LINK_UP, ("a", "in"), 0.0)]
    sim.run(until=100.0)
    assert [(e.kind, e.node_a, e.node_b) for e in events] == [
        (LINK_DOWN, "a", "in")]
    assert events[0].time == pytest.approx(20.0)


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
    assert world.stats.bus.cancelled == 1

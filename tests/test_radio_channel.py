"""Unit tests for link establishment and framed transmission."""

import pytest

from repro.mobility import LinearMovement, StaticPosition
from repro.radio import (
    BLUETOOTH,
    WLAN,
    ChannelClosed,
    ConnectFault,
    Link,
    LinkEstablisher,
    OutOfRange,
    World,
)
from repro.sim import Simulator


def make_pair(distance=5.0, tech=BLUETOOTH, seed=1):
    sim = Simulator(seed=seed)
    world = World(sim)
    world.add_node("a", StaticPosition(0, 0), [tech])
    world.add_node("b", StaticPosition(distance, 0), [tech])
    return sim, world


def test_establish_link_takes_connect_time():
    sim, world = make_pair()
    establisher = LinkEstablisher(world)
    proc = sim.spawn(establisher.connect("a", "b", BLUETOOTH, retries=5))
    link = sim.run(until=proc)
    assert isinstance(link, Link)
    assert BLUETOOTH.connect_time_min <= sim.now  # at least one attempt
    assert link.is_open


def test_establish_link_connect_time_within_technology_bounds():
    sim, world = make_pair(tech=WLAN)
    establisher = LinkEstablisher(world)
    proc = sim.spawn(establisher.connect("a", "b", WLAN))
    sim.run(until=proc)
    assert WLAN.connect_time_min <= sim.now <= WLAN.connect_time_max


def test_establish_fault_rate_matches_technology():
    """~16 % of single Bluetooth attempts fail (§4.3 calibration)."""
    failures = 0
    trials = 400
    for seed in range(trials):
        sim, world = make_pair(seed=seed)
        establisher = LinkEstablisher(world)
        proc = sim.spawn(establisher.connect("a", "b", BLUETOOTH))
        try:
            sim.run(until=proc)
        except ConnectFault:
            failures += 1
    rate = failures / trials
    assert 0.10 < rate < 0.24


def test_establish_retries_reduce_failures():
    no_retry_failures = 0
    retry_failures = 0
    trials = 200
    for seed in range(trials):
        for retries, counter in ((0, "plain"), (3, "retry")):
            sim, world = make_pair(seed=seed)
            establisher = LinkEstablisher(world)
            proc = sim.spawn(
                establisher.connect("a", "b", BLUETOOTH, retries=retries))
            try:
                sim.run(until=proc)
            except ConnectFault:
                if counter == "plain":
                    no_retry_failures += 1
                else:
                    retry_failures += 1
    assert retry_failures < no_retry_failures


def test_establish_fails_out_of_range_when_peer_leaves():
    sim = Simulator(seed=3)
    world = World(sim)
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    # Walks out of the 10 m Bluetooth radius within ~1 s.
    world.add_node("b", LinearMovement((9.5, 0), (12.0, 0.0)), [BLUETOOTH])
    establisher = LinkEstablisher(world)
    proc = sim.spawn(establisher.connect("a", "b", BLUETOOTH, retries=2))
    with pytest.raises(OutOfRange):
        sim.run(until=proc)
    assert establisher.range_failures >= 1


def test_link_send_receive_round_trip():
    sim, world = make_pair()
    link = Link(world, "a", "b", BLUETOOTH)
    received = []

    def receiver(sim, link):
        frame = yield link.receive("b")
        received.append((frame, sim.now))

    sim.spawn(receiver(sim, link))
    link.send("a", "hello", size_bytes=100)
    sim.run()
    payload, when = received[0]
    assert payload == "hello"
    assert when == pytest.approx(BLUETOOTH.transmit_time(100))


def test_link_serialises_frames_per_direction():
    sim, world = make_pair()
    link = Link(world, "a", "b", BLUETOOTH)
    first = link.send("a", "one", size_bytes=10_000)
    second = link.send("a", "two", size_bytes=10_000)
    assert second == pytest.approx(
        first + BLUETOOTH.transmit_time(10_000))


def test_link_directions_do_not_block_each_other():
    sim, world = make_pair()
    link = Link(world, "a", "b", BLUETOOTH)
    forward = link.send("a", "req", size_bytes=10_000)
    backward = link.send("b", "resp", size_bytes=10_000)
    assert forward == pytest.approx(backward)


def test_link_frame_lost_when_peer_leaves_mid_flight():
    sim = Simulator(seed=4)
    world = World(sim)
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", LinearMovement((9.0, 0), (5.0, 0.0)), [BLUETOOTH])
    link = Link(world, "a", "b", BLUETOOTH)
    # 60 kB at ~723 kbps takes ~0.7 s; b exits the 10 m radius in ~0.2 s.
    link.send("a", "bulk", size_bytes=60_000)
    sim.run()
    assert link.frames_lost == 1
    assert link.frames_delivered == 0
    assert not link.is_open  # physical break detected on delivery


def test_link_send_after_break_is_silently_dropped():
    """§6.1: Write is not aware of the connection loss."""
    sim, world = make_pair()
    link = Link(world, "a", "b", BLUETOOTH)
    link.close()
    delivery = link.send("a", "ghost", size_bytes=10)
    assert delivery == float("inf")
    assert link.frames_lost == 1


def test_link_receive_on_closed_link_fails():
    sim, world = make_pair()
    link = Link(world, "a", "b", BLUETOOTH)
    link.close()
    errors = []

    def receiver(sim, link):
        try:
            yield link.receive("b")
        except ChannelClosed:
            errors.append("closed")

    sim.spawn(receiver(sim, link))
    sim.run()
    assert errors == ["closed"]


def test_link_close_wakes_blocked_receiver():
    sim, world = make_pair()
    link = Link(world, "a", "b", BLUETOOTH)
    errors = []

    def receiver(sim, link):
        try:
            yield link.receive("b")
        except ChannelClosed:
            errors.append(sim.now)

    def closer(sim, link):
        yield sim.timeout(2.0)
        link.close()

    sim.spawn(receiver(sim, link))
    sim.spawn(closer(sim, link))
    sim.run()
    assert errors == [2.0]


def test_link_buffered_frames_survive_close():
    """Frames already delivered are drained even after close."""
    sim, world = make_pair()
    link = Link(world, "a", "b", BLUETOOTH)
    link.send("a", "early", size_bytes=10)
    sim.run()
    link.close()
    request = link.receive("b")
    assert request.triggered
    sim.run()
    assert request.value == "early"


def test_link_quality_reflects_world():
    sim, world = make_pair(distance=2.0)
    link = Link(world, "a", "b", BLUETOOTH)
    assert link.quality() == 255
    world.install_linear_decay("a", "b", BLUETOOTH, initial_quality=240)
    assert link.quality() == 240


def test_link_peer_of():
    sim, world = make_pair()
    link = Link(world, "a", "b", BLUETOOTH)
    assert link.peer_of("a") == "b"
    assert link.peer_of("b") == "a"
    with pytest.raises(ValueError):
        link.peer_of("stranger")


def test_link_counts_frames():
    sim, world = make_pair()
    link = Link(world, "a", "b", BLUETOOTH)
    for i in range(5):
        link.send("a", i, size_bytes=10)
    sim.run()
    assert link.frames_sent == 5
    assert link.frames_delivered == 5
    # Delivered frames wait in b's inbox, in send order.
    assert [link.receive("b").value for _ in range(5)] == list(range(5))

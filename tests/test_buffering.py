"""Tests for the §6.1 Data Buffering extension (ReliableChannel)."""

import pytest

from repro.core.buffering import DEFAULT_ACK_EVERY, ReliableChannel
from repro.core.errors import ConnectionClosedError
from repro.core.handover import HandoverThread
from repro.radio.technologies import BLUETOOTH
from repro.scenarios import Scenario, fig_5_8_handover

SETTLE_S = 180.0


def reliable_sink(node, received, ack_every=DEFAULT_ACK_EVERY):
    """Register a service that reads through a ReliableChannel acking
    every ``ack_every`` deliveries."""

    def handler(connection):
        channel = ReliableChannel(connection, ack_every=ack_every)

        def serve():
            while True:
                try:
                    payload = yield from channel.receive()
                except ConnectionClosedError:
                    return
                received.append(payload)
        return serve()

    node.library.register_service("reliable.sink", handler)


def settled_pair(seed, ack_every=DEFAULT_ACK_EVERY):
    scenario = Scenario(seed=seed)
    client = scenario.add_node("client", position=(0, 0))
    server = scenario.add_node("server", position=(5, 0),
                               mobility_class="static")
    received = []
    reliable_sink(server, received, ack_every=ack_every)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.wait_for_route("client", "server")
    return scenario, client, server, received


def test_in_order_delivery_and_ack_trimming():
    """The sink paces the cumulative acks.  Acking every delivery
    trims the window before the resend loop wakes; acking every 4th
    leaves the two payloads past the last ack batch to be re-sent,
    and their duplicates force the final ack."""
    for ack_every, retransmissions in ((1, 0), (4, 2)):
        scenario, client, server, received = settled_pair(
            seed=71, ack_every=ack_every)

        def run(sim):
            connection = yield from client.library.connect(
                server.address, "reliable.sink", retries=6)
            channel = ReliableChannel(connection)
            for index in range(10):
                channel.send(index, 64)
                yield sim.timeout(0.5)
            yield sim.timeout(10.0)
            return channel

        channel = scenario.run_process(run(scenario.sim))
        assert received == list(range(10))
        assert channel.retransmissions == retransmissions, ack_every


def test_sequence_numbers_are_monotone():
    scenario, client, server, _ = settled_pair(seed=72)

    def run(sim):
        connection = yield from client.library.connect(
            server.address, "reliable.sink", retries=6)
        channel = ReliableChannel(connection)
        sequences = [channel.send(i, 8) for i in range(5)]
        yield sim.timeout(1.0)
        return sequences

    sequences = scenario.run_process(run(scenario.sim))
    assert sequences == [1, 2, 3, 4, 5]


def test_validation():
    scenario, client, server, _ = settled_pair(seed=73)

    def run(sim):
        connection = yield from client.library.connect(
            server.address, "reliable.sink", retries=6)
        return connection

    connection = scenario.run_process(run(scenario.sim))
    with pytest.raises(ValueError):
        ReliableChannel(connection, ack_every=0)
    with pytest.raises(ValueError):
        ReliableChannel(connection, resend_interval_s=0)
    # A negative size is refused before anything is buffered or written
    # (the envelope overhead would hide a small negative from write()).
    channel = ReliableChannel(connection)
    writes = connection._sequence
    with pytest.raises(ValueError, match="negative size"):
        channel.send("bad", -1)
    assert not channel._window and connection._sequence == writes
    assert channel.send("good", 0) == 1


def test_handover_with_buffering_loses_nothing():
    """§6.1: buffering guarantees data integrity across the handover.

    The raw Fig. 5.8 runs occasionally lose a frame that was in flight
    on the old chain when the transport was substituted; with the
    ReliableChannel every message arrives exactly once, in order.
    """
    losses_plain = 0
    for seed in (17, 18, 19, 20):
        scenario = fig_5_8_handover(seed=seed)
        server, client = scenario.node("A"), scenario.node("B")
        received = []
        reliable_sink(server, received)
        scenario.start_all()
        scenario.run(until=SETTLE_S)
        if not scenario.wait_for_route("B", "A"):
            continue

        def run(sim, scenario=scenario, client=client, server=server):
            connection = yield from client.library.connect(
                server.address, "reliable.sink", retries=6)
            channel = ReliableChannel(connection, ack_every=4,
                                      resend_interval_s=3.0)
            scenario.world.install_linear_decay(
                "A", "B", BLUETOOTH, initial_quality=240)
            thread = HandoverThread(client.library, connection).start()
            for index in range(50):
                channel.send(index, 64)
                yield sim.timeout(1.0)
            yield sim.timeout(15.0)
            thread.stop()
            return connection, channel

        connection, channel = scenario.run_process(run(scenario.sim))
        assert connection.handovers >= 1, "the run must exercise handover"
        assert received == list(range(50)), (
            f"seed {seed}: buffered stream lost or reordered data: "
            f"{len(received)} items")


def test_duplicates_are_dropped():
    """Retransmission after handover must not double-deliver."""
    scenario = fig_5_8_handover(seed=21)
    server, client = scenario.node("A"), scenario.node("B")
    received = []
    reliable_sink(server, received)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.wait_for_route("B", "A")

    def run(sim):
        connection = yield from client.library.connect(
            server.address, "reliable.sink", retries=6)
        channel = ReliableChannel(connection, ack_every=100,
                                  resend_interval_s=2.0)
        # With acks this rare, the resend loop retransmits the full
        # window repeatedly; the receiver must deduplicate.
        for index in range(8):
            channel.send(index, 64)
            yield sim.timeout(1.0)
        yield sim.timeout(10.0)
        return channel

    scenario.run_process(run(scenario.sim))
    assert received == list(range(8))

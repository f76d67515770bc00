"""Integration tests for the application layer (§4.3, Fig. 6.1)."""

import pytest

from repro.apps.coverage_amplification import GprsGateway, TunnelPhone
from repro.apps.message_test import MessageTestClient, MessageTestServer
from repro.scenarios import fig_4_5_bridge_test, tunnel_topology

SETTLE_S = 180.0


def test_message_test_over_bridge_delivers_everything():
    """§4.3: sends through the bridge arrive 'perfectly' in order."""
    scenario = fig_4_5_bridge_test(seed=41)
    server = MessageTestServer(scenario.node("server"))
    client = MessageTestClient(scenario.node("client"), count=20,
                               interval_s=1.0)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.wait_for_route("client", "server")
    outcome = scenario.run_process(client.run(server, retries=8))
    assert outcome.connected
    assert outcome.messages_delivered == 20
    texts = [m for _, m in server.printed]
    assert texts == [f"message-{i}" for i in range(20)]  # in order
    # Relay latency is negligible next to the connect time (§4.3).
    assert outcome.first_delivery_delay_s < 0.5
    assert outcome.connect_time_s > 1.0


def test_message_test_connect_failure_reported():
    scenario = fig_4_5_bridge_test(seed=42)
    server = MessageTestServer(scenario.node("server"))
    client = MessageTestClient(scenario.node("client"), count=5)
    scenario.start_all()
    # No settling: the client has no route yet.
    outcome = scenario.run_process(client.run(server, retries=0))
    assert not outcome.connected
    assert outcome.error


def test_message_test_validation():
    scenario = fig_4_5_bridge_test(seed=43)
    with pytest.raises(ValueError):
        MessageTestClient(scenario.node("client"), count=0)


def test_tunnel_phone_reaches_gateway_through_relays():
    """Fig. 6.1: the phone, out of gateway range, gets GPRS service."""
    scenario = tunnel_topology(bridge_count=2, seed=44)
    gateway = GprsGateway(scenario.node("gateway"))
    phone = TunnelPhone(scenario.node("phone"), request_count=3)
    scenario.start_all()
    scenario.run(until=300.0)
    assert scenario.wait_for_route("phone", "gateway")
    entry = scenario.node("phone").daemon.storage.get(
        scenario.node("gateway").address)
    assert entry.jump >= 1  # must be relayed
    outcome = scenario.run_process(phone.run(gateway, retries=8))
    assert outcome.connected
    assert outcome.responses_received == 3
    assert gateway.requests_served == 3
    assert outcome.mean_round_trip_s > gateway.upstream_latency_s


def test_tunnel_round_trip_grows_with_chain_length():
    round_trips = {}
    for bridges in (1, 3):
        scenario = tunnel_topology(bridge_count=bridges, seed=45)
        gateway = GprsGateway(scenario.node("gateway"),
                              upstream_latency_s=0.0)
        phone = TunnelPhone(scenario.node("phone"), request_count=4)
        scenario.start_all()
        scenario.run(until=420.0)
        if not scenario.wait_for_route("phone", "gateway"):
            pytest.skip("discovery did not converge for this seed")
        outcome = scenario.run_process(phone.run(gateway, retries=10))
        assert outcome.connected, outcome.error
        round_trips[bridges] = outcome.mean_round_trip_s
    assert round_trips[3] > round_trips[1]

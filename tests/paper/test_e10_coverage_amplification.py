"""E10 — Fig. 6.1: coverage amplification through a tunnel.

Paper artifact: the potential-application sketch — a GPRS gateway at the
tunnel mouth, Bluetooth relays inside, a phone deep in the tunnel
reaching "the whole GPRS network" through the chain.

Method: chain-length sweep.  Reachability must hold for every length
(while each hop is within Bluetooth range), the route's jump count must
equal the relay count, and the session round-trip must grow with the
chain (every hop re-transmits, §4.1).
"""

from repro.apps.coverage_amplification import GprsGateway, TunnelPhone
from repro.metrics.tables import print_table
from repro.scenarios import tunnel_topology

CHAIN_LENGTHS = (1, 2, 3)
SETTLE_BASE_S = 240.0


def run_chain(bridge_count, seeds=(13, 14, 15)):
    for seed in seeds:
        scenario = tunnel_topology(bridge_count=bridge_count, seed=seed)
        gateway = GprsGateway(scenario.node("gateway"),
                              upstream_latency_s=0.8)
        phone = TunnelPhone(scenario.node("phone"), request_count=4)
        scenario.start_all()
        scenario.run(until=SETTLE_BASE_S + 60.0 * bridge_count)
        if not scenario.wait_for_route("phone", "gateway"):
            continue
        entry = scenario.node("phone").daemon.storage.get(
            scenario.node("gateway").address)
        outcome = scenario.run_process(phone.run(gateway, retries=10))
        if not outcome.connected:
            continue
        return {
            "jumps": entry.jump,
            "connect_time": outcome.connect_time_s,
            "rtt": outcome.mean_round_trip_s,
            "responses": outcome.responses_received,
            "served": gateway.requests_served,
        }
    return None


def run_sweep():
    return {count: run_chain(count) for count in CHAIN_LENGTHS}


def test_e10_tunnel_coverage_amplification():
    results = run_sweep()
    rows = []
    for count in CHAIN_LENGTHS:
        outcome = results[count]
        assert outcome is not None, (
            f"the phone must reach the gateway through {count} relays")
        rows.append([
            count,
            "reachable (paper's claim)",
            f"reachable: {outcome['responses']}/4 answered, "
            f"jump {outcome['jumps']}, connect "
            f"{outcome['connect_time']:.1f} s, RTT {outcome['rtt']:.2f} s",
        ])
    print_table("E10: Fig. 6.1 tunnel reachability vs relay count",
                ["relays", "paper", "measured"], rows)
    for count in CHAIN_LENGTHS:
        outcome = results[count]
        assert outcome["responses"] == 4
        assert outcome["jumps"] == count, (
            "the route must use exactly the relay chain")
    # Per-hop re-transmission: the RTT grows with the chain.
    assert results[3]["rtt"] > results[1]["rtt"]
    assert results[3]["connect_time"] > results[1]["connect_time"] * 0.5

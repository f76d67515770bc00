"""Integration tests: the full discovery stack on the paper's topologies."""

from repro.core.config import DaemonConfig, RoutingPolicy
from repro.scenarios import (
    Scenario,
    fig_3_3_coverage_exclusion,
    fig_3_6_dynamic_discovery,
    fig_3_9_quality_equity,
    line_topology,
)

#: Long enough for several Bluetooth search cycles on every topology.
SETTLE_S = 180.0


def names_known_by(scenario, name):
    node = scenario.node(name)
    known = set()
    for device in node.daemon.storage.devices():
        peer = scenario.fabric.node_by_address(device.address)
        if peer is not None:
            known.add(peer.node_id)
    return known


def test_two_nodes_discover_each_other():
    scenario = Scenario(seed=1)
    scenario.add_node("a", position=(0, 0))
    scenario.add_node("b", position=(5, 0))
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert names_known_by(scenario, "a") == {"b"}
    assert names_known_by(scenario, "b") == {"a"}


def test_out_of_range_nodes_stay_unknown():
    scenario = Scenario(seed=1)
    scenario.add_node("a", position=(0, 0))
    scenario.add_node("far", position=(100, 0))
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert names_known_by(scenario, "a") == set()


def test_fig_3_6_expected_device_storage_for_a():
    """The paper's exact table: B:0, C:0, D:1 via C, E:1 via B."""
    scenario = fig_3_6_dynamic_discovery(seed=4)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    node_a = scenario.node("A")
    by_name = {}
    for device in node_a.daemon.storage.devices():
        peer = scenario.fabric.node_by_address(device.address)
        bridge_peer = (scenario.fabric.node_by_address(device.bridge)
                       if device.bridge else None)
        by_name[peer.node_id] = (
            device.jump, bridge_peer.node_id if bridge_peer else None)
    assert by_name["B"] == (0, None)
    assert by_name["C"] == (0, None)
    assert by_name["D"] == (1, "C")
    assert by_name["E"] == (1, "B")


def test_fig_3_3_dynamic_discovery_solves_coverage_exclusion():
    """B, C and D eventually learn of F and G through A and E."""
    scenario = fig_3_3_coverage_exclusion(seed=2)
    scenario.start_all()
    scenario.run(until=300.0)
    for observer in ("B", "C", "D"):
        known = names_known_by(scenario, observer)
        assert {"F", "G"} <= known, (
            f"{observer} should know F and G, knows {sorted(known)}")


def test_total_environment_awareness_on_a_chain():
    """Every node of a 5-node chain learns every other node (§3.3)."""
    scenario = line_topology(5, seed=3)
    scenario.start_all()
    scenario.run(until=300.0)
    everyone = {f"n{i}" for i in range(5)}
    for name in everyone:
        assert names_known_by(scenario, name) == everyone - {name}


def test_chain_jump_counts_grow_with_distance():
    scenario = line_topology(4, seed=5)
    scenario.start_all()
    scenario.run(until=300.0)
    storage = scenario.node("n0").daemon.storage
    jumps = {}
    for device in storage.devices():
        peer = scenario.fabric.node_by_address(device.address)
        jumps[peer.node_id] = device.jump
    assert jumps["n1"] == 0
    assert jumps["n2"] == 1
    assert jumps["n3"] == 2


def test_max_jump_limits_awareness():
    """§3.4.2: capping jumps trades awareness for freshness."""
    config = DaemonConfig(routing=RoutingPolicy(max_jump=1))
    scenario = line_topology(5, seed=6, config=config)
    scenario.start_all()
    scenario.run(until=300.0)
    known = names_known_by(scenario, "n0")
    assert "n1" in known and "n2" in known
    assert "n4" not in known  # would need jump 3


def test_service_advertisement_propagates_multi_hop():
    scenario = line_topology(3, seed=7)
    server = scenario.node("n2")

    def dummy(connection):
        return None

    server.library.register_service("picture.analyse", dummy)
    scenario.start_all()
    scenario.run(until=300.0)
    pairs = scenario.node("n0").library.get_service_list("picture.analyse")
    assert len(pairs) == 1
    device, service = pairs[0]
    assert device.address == server.address
    assert device.jump == 1


def test_stopped_daemon_is_evicted_from_neighbours():
    scenario = Scenario(seed=8)
    scenario.add_node("a", position=(0, 0))
    scenario.add_node("b", position=(5, 0))
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert names_known_by(scenario, "a") == {"b"}
    scenario.node("b").stop()
    scenario.run(until=scenario.sim.now + 150.0)
    assert names_known_by(scenario, "a") == set()


def test_departed_node_is_evicted():
    from repro.mobility import CorridorWalk

    scenario = Scenario(seed=9)
    scenario.add_node("base", position=(0, 0), mobility_class="static")
    scenario.add_node(
        "walker",
        mobility=CorridorWalk((5, 0), depart_time=150.0, speed=2.0),
        mobility_class="dynamic")
    scenario.start_all()
    scenario.run(until=140.0)
    assert names_known_by(scenario, "base") == {"walker"}
    scenario.run(until=400.0)  # walker is hundreds of metres away
    assert names_known_by(scenario, "base") == set()


def test_fig_3_9_threshold_route_is_chosen():
    """A stores the D route via B (both links >= 230), not via C."""
    scenario = fig_3_9_quality_equity(seed=10)
    scenario.start_all()
    scenario.run(until=300.0)
    node_a = scenario.node("A")
    entry = node_a.daemon.storage.get(scenario.node("D").address)
    assert entry is not None
    bridge_peer = scenario.fabric.node_by_address(entry.bridge)
    assert bridge_peer.node_id == "B"
    assert entry.route.min_link_quality >= 230


def test_hidden_bridge_service_is_not_advertised():
    scenario = Scenario(seed=11)
    scenario.add_node("a", position=(0, 0))
    scenario.add_node("b", position=(5, 0))
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    services = scenario.node("a").library.get_service_list()
    assert all(s.name != "peerhood.bridge" for _, s in services)


def test_discovery_traffic_is_metered():
    scenario = Scenario(seed=12)
    scenario.add_node("a", position=(0, 0))
    scenario.add_node("b", position=(5, 0))
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.meter.messages(category="discovery") > 0
    assert scenario.meter.bytes(category="discovery") > 0


def test_non_peerhood_node_is_ignored():
    """A world node without a daemon fails the SDP check (§2.3)."""
    from repro.mobility import StaticPosition

    scenario = Scenario(seed=13)
    scenario.add_node("a", position=(0, 0))
    # A bare radio device: present in the world, no PeerHood daemon.
    scenario.world.add_node("headset", StaticPosition(3, 0), ["bluetooth"])
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert names_known_by(scenario, "a") == set()

"""Multi-technology tests: PeerHood's cross-radio interoperation (§2.1).

"the possibility to interoperate between the existing network
technologies and incorporation of any others give PeerHood the unique
capacity to design a totally flexible network combining different
technologies" (§6.1).
"""

import dataclasses

import pytest

from repro.core.errors import ConnectionClosedError
from repro.plugins import plugin_for
from repro.radio.technologies import BLUETOOTH, WLAN
from repro.scenarios import Scenario

SETTLE_S = 180.0


def echo_service(node, received):
    def handler(connection):
        def serve(connection=connection):
            while True:
                try:
                    message = yield from connection.read()
                except ConnectionClosedError:
                    return
                received.append(message)
                connection.write(("echo", message), 64)
        return serve()
    node.library.register_service("echo", handler)


def test_wlan_reaches_beyond_bluetooth():
    """30 m apart: WLAN (50 m) finds the peer, Bluetooth (10 m) cannot."""
    scenario = Scenario(seed=91)
    a = scenario.add_node("a", position=(0, 0),
                          technologies=("bluetooth", "wlan"))
    b = scenario.add_node("b", position=(30, 0),
                          technologies=("bluetooth", "wlan"),
                          mobility_class="static")
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    entry = a.daemon.storage.get(b.address)
    assert entry is not None
    assert entry.prototype == "wlan"
    assert not scenario.world.in_range("a", "b", BLUETOOTH)
    assert scenario.world.in_range("a", "b", WLAN)


def test_connect_uses_the_stored_prototype():
    scenario = Scenario(seed=92)
    a = scenario.add_node("a", position=(0, 0),
                          technologies=("bluetooth", "wlan"))
    b = scenario.add_node("b", position=(30, 0),
                          technologies=("bluetooth", "wlan"),
                          mobility_class="static")
    received = []
    echo_service(b, received)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.wait_for_route("a", "b")

    def run(sim):
        connection = yield from a.library.connect(b.address, "echo",
                                                  retries=4)
        connection.write("over-wlan", 64)
        reply = yield from connection.read()
        return connection, reply

    connection, reply = scenario.run_process(run(scenario.sim))
    assert reply == ("echo", "over-wlan")
    assert connection.link.tech.name == "wlan"


def test_cross_technology_bridge_chain():
    """A Bluetooth-only phone reaches a WLAN-only server through a
    dual-radio laptop — the Fig. 6.1 'combining technologies' idea."""
    scenario = Scenario(seed=93)
    phone = scenario.add_node("phone", position=(0, 0),
                              technologies=("bluetooth",))
    laptop = scenario.add_node("laptop", position=(8, 0),
                               technologies=("bluetooth", "wlan"),
                               mobility_class="static")
    server = scenario.add_node("server", position=(40, 0),
                               technologies=("wlan",),
                               mobility_class="static")
    received = []
    echo_service(server, received)
    scenario.start_all()
    scenario.run(until=300.0)
    assert scenario.wait_for_route("phone", "server")
    entry = phone.daemon.storage.get(server.address)
    assert entry.jump == 1
    bridge_peer = scenario.fabric.node_by_address(entry.bridge)
    assert bridge_peer.node_id == "laptop"

    def run(sim):
        connection = yield from phone.library.connect(
            server.address, "echo", retries=6)
        connection.write("cross-tech", 64)
        reply = yield from connection.read()
        return connection, reply

    connection, reply = scenario.run_process(run(scenario.sim))
    assert reply == ("echo", "cross-tech")
    assert received == ["cross-tech"]
    # First hop is Bluetooth; the laptop's onward hop ran over WLAN.
    assert connection.link.tech.name == "bluetooth"
    relay_started = scenario.trace.first("bridge-relay-started",
                                         node="laptop")
    assert relay_started is not None


def test_wlan_discovery_is_symmetric_and_faster():
    """WLAN scans do not hide the scanner (§3.4.2 is Bluetooth-only)."""
    scenario = Scenario(seed=94)
    scenario.add_node("a", position=(0, 0), technologies=("wlan",))
    scenario.add_node("b", position=(20, 0), technologies=("wlan",))
    scenario.start_all()
    # WLAN's cycle is 5 s vs Bluetooth's ~20 s: convergence well within.
    scenario.run(until=40.0)
    assert scenario.awareness("a") == {"b"}
    assert scenario.awareness("b") == {"a"}


def test_dual_radio_node_runs_one_plugin_per_technology():
    scenario = Scenario(seed=95)
    node = scenario.add_node("dual", position=(0, 0),
                             technologies=("bluetooth", "wlan"))
    node.start()
    tech_names = sorted(p.tech.name for p in node.daemon.plugins)
    assert tech_names == ["bluetooth", "wlan"]


def test_plugin_for_knows_only_registered_technologies():
    scenario = Scenario(seed=95)
    node = scenario.add_node("a", position=(0, 0))
    assert plugin_for(node, WLAN).tech is WLAN
    with pytest.raises(KeyError, match="zigbee"):
        plugin_for(node, dataclasses.replace(WLAN, name="zigbee"))


def test_gprs_covers_the_whole_scene():
    scenario = Scenario(seed=96)
    a = scenario.add_node("a", position=(0, 0), technologies=("gprs",))
    b = scenario.add_node("b", position=(500, 0), technologies=("gprs",),
                          mobility_class="static")
    scenario.start_all()
    scenario.run(until=120.0)
    entry = a.daemon.storage.get(b.address)
    assert entry is not None
    assert entry.prototype == "gprs"

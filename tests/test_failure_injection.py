"""Failure-injection tests: daemons dying, nodes crashing, load limits."""

from repro.core.errors import ConnectionClosedError
from repro.mobility import StaticPosition
from repro.radio.technologies import BLUETOOTH
from repro.scenarios import Scenario

SETTLE_S = 180.0


def sink_service(node, received):
    def handler(connection):
        def serve(connection=connection):
            while True:
                try:
                    payload = yield from connection.read()
                except ConnectionClosedError:
                    return
                received.append(payload)
        return serve()
    node.library.register_service("sink", handler)


def test_daemon_stop_closes_server_connections():
    scenario = Scenario(seed=81)
    client = scenario.add_node("client", position=(0, 0))
    server = scenario.add_node("server", position=(5, 0),
                               mobility_class="static")
    received = []
    sink_service(server, received)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.wait_for_route("client", "server")

    def run(sim):
        connection = yield from client.library.connect(
            server.address, "sink", retries=6)
        connection.write("before", 64)
        yield sim.timeout(2.0)
        server.stop()
        yield sim.timeout(5.0)
        return connection

    connection = scenario.run_process(run(scenario.sim))
    assert received == ["before"]
    # The server's engine closed its side; the client sees the teardown.
    assert not connection.is_open


def test_restarted_daemon_is_rediscovered():
    scenario = Scenario(seed=82)
    observer = scenario.add_node("observer", position=(0, 0))
    flaky = scenario.add_node("flaky", position=(5, 0))
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert flaky.address in observer.daemon.storage
    flaky.stop()
    scenario.run(until=scenario.sim.now + 150.0)
    assert flaky.address not in observer.daemon.storage
    flaky.start()
    scenario.run(until=scenario.sim.now + 150.0)
    assert flaky.address in observer.daemon.storage


def test_crash_rebooted_node_is_rediscovered_and_can_receive():
    """The fault-plane variant of the restart test: a crash suspends the
    node in the *world* (daemon untouched), so discovery must lose it
    mid-outage, re-find it after the reboot, and deliver to it again."""
    from repro.faults import FaultPlane
    scenario = Scenario(seed=82)
    observer = scenario.add_node("observer", position=(0, 0))
    flaky = scenario.add_node("flaky", position=(5, 0))
    received = []
    sink_service(flaky, received)
    fault_plane = FaultPlane(scenario.world)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert flaky.address in observer.daemon.storage
    fault_plane.crash_now("flaky")
    scenario.run(until=scenario.sim.now + 150.0)
    assert flaky.address not in observer.daemon.storage
    fault_plane.reboot_now("flaky")
    scenario.run(until=scenario.sim.now + 150.0)
    assert flaky.address in observer.daemon.storage

    def run(sim):
        connection = yield from observer.library.connect(
            flaky.address, "sink", retries=6)
        connection.write("post-reboot", 64)
        yield sim.timeout(2.0)
        return connection

    scenario.run_process(run(scenario.sim))
    assert received == ["post-reboot"]
    assert fault_plane.counters.crashes == 1
    assert fault_plane.counters.reboots == 1


def test_bridge_node_death_tears_down_relayed_connection():
    scenario = Scenario(seed=83)
    client = scenario.add_node("client", position=(0, 0))
    bridge = scenario.add_node("bridge", position=(8, 0),
                               mobility_class="static")
    server = scenario.add_node("server", position=(16, 0),
                               mobility_class="static")
    received = []
    sink_service(server, received)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.wait_for_route("client", "server")

    def run(sim):
        connection = yield from client.library.connect(
            server.address, "sink", retries=8)
        connection.write("one", 64)
        yield sim.timeout(2.0)
        bridge.stop()  # the relay dies mid-connection
        yield sim.timeout(5.0)
        connection.write("two", 64)  # silently lost (§6.1)
        yield sim.timeout(5.0)
        return connection

    connection = scenario.run_process(run(scenario.sim))
    assert received == ["one"]


def test_daemon_start_stop_idempotent():
    scenario = Scenario(seed=88)
    node = scenario.add_node("n", position=(0, 0))
    node.start()
    node.start()  # no-op
    assert node.daemon.running
    node.stop()
    node.stop()  # no-op
    assert not node.daemon.running


def test_stopped_daemon_returns_no_discovery_response():
    scenario = Scenario(seed=89)
    node = scenario.add_node("n", position=(0, 0))
    node.start()
    assert node.daemon.handle_discovery_fetch(BLUETOOTH) is not None
    node.stop()
    assert node.daemon.handle_discovery_fetch(BLUETOOTH) is None


def test_unregistered_world_node_fails_sdp_check():
    scenario = Scenario(seed=90)
    node = scenario.add_node("n", position=(0, 0))
    node.start()
    assert scenario.fabric.is_peerhood("n")
    # A radio in the world that never joined the fabric runs no daemon.
    scenario.world.add_node("bare", StaticPosition(1, 0), [BLUETOOTH])
    assert not scenario.fabric.is_peerhood("bare")

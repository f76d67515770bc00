"""Integration tests: §5.3 result routing and the picture-analysis app."""

from repro.apps.picture_analysis import (
    PictureAnalysisClient,
    PictureAnalysisServer,
)
from repro.core.result_routing import (
    ResultDeliveryFailed,
    ResultWaiter,
    deliver_result,
)
from repro.mobility import CorridorWalk
from repro.scenarios import Scenario

SETTLE_S = 180.0


def test_direct_delivery_on_live_connection():
    scenario = Scenario(seed=31)
    server = scenario.add_node("server", position=(0, 0),
                               mobility_class="static")
    client = scenario.add_node("client", position=(5, 0))
    outcomes = []

    def handler(connection):
        def serve(connection=connection):
            yield from connection.read()
            mode = yield from deliver_result(
                server.library, connection, "result", 1000)
            outcomes.append(mode)
        return serve()

    server.library.register_service("work", handler)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.wait_for_route("client", "server")

    def run(sim):
        connection = yield from client.library.connect(
            server.address, "work", retries=6)
        connection.write("job", 500)
        result = yield from connection.read()
        return result

    result = scenario.run_process(run(scenario.sim))
    assert result == "result"
    assert outcomes == ["direct"]


def test_reconnect_delivery_after_walkaway():
    """The server reconnects through a bridge to the departed client."""
    scenario = Scenario(seed=32)
    server = scenario.add_node("server", position=(0, 0),
                               mobility_class="static")
    scenario.add_node("relay1", position=(8, 0), mobility_class="static")
    scenario.add_node("relay2", position=(16, 0), mobility_class="static")
    client = scenario.add_node(
        "client",
        mobility=CorridorWalk((6.0, 0.0), heading_deg=0.0, speed=1.4,
                              depart_time=SETTLE_S + 15.0,
                              stop_distance=14.0),
        mobility_class="dynamic")
    outcomes = []

    def handler(connection):
        def serve(connection=connection):
            yield from connection.read()
            yield scenario.sim.timeout(60.0)  # client walks away meanwhile
            try:
                mode = yield from deliver_result(
                    server.library, connection, "late-result", 1000,
                    deadline_s=300.0)
            except ResultDeliveryFailed as error:
                outcomes.append(("failed", str(error)))
                return
            outcomes.append(mode)
        return serve()

    server.library.register_service("work", handler)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.wait_for_route("client", "server")
    received = []

    def run(sim):
        waiter = ResultWaiter(client.library, "client.reply")
        connection = yield from client.library.connect(
            server.address, "work", reply_service="client.reply",
            retries=6)
        connection.write("job", 500)
        connection.set_sending(False)
        result = yield waiter.result_event
        received.append((result, sim.now))

    scenario.sim.spawn(run(scenario.sim))
    scenario.run(until=SETTLE_S + 500)
    assert outcomes == ["reconnect"]
    assert received and received[0][0] == "late-result"


def test_delivery_fails_without_reply_service():
    """§5.3: without the method-2 parameters the server cannot call back."""
    scenario = Scenario(seed=33)
    server = scenario.add_node("server", position=(0, 0),
                               mobility_class="static")
    client = scenario.add_node("client", position=(5, 0))
    failures = []

    def handler(connection):
        def serve(connection=connection):
            yield from connection.read()
            connection.link.close()  # simulate the transport dying
            try:
                yield from deliver_result(
                    server.library, connection, "r", 100, deadline_s=30.0)
            except ResultDeliveryFailed as error:
                failures.append(str(error))
        return serve()

    server.library.register_service("work", handler)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.wait_for_route("client", "server")

    def run(sim):
        connection = yield from client.library.connect(
            server.address, "work", retries=6)  # no reply_service
        connection.write("job", 100)
        yield sim.timeout(40.0)

    scenario.run_process(run(scenario.sim))
    assert failures and "reply-service" in failures[0]


def test_delivery_fails_when_client_unreachable():
    scenario = Scenario(seed=34)
    server = scenario.add_node("server", position=(0, 0),
                               mobility_class="static")
    client = scenario.add_node(
        "client",
        mobility=CorridorWalk((5.0, 0.0), depart_time=SETTLE_S + 10.0,
                              speed=3.0),
        mobility_class="dynamic")
    failures = []

    def handler(connection):
        def serve(connection=connection):
            yield from connection.read()
            yield scenario.sim.timeout(60.0)
            try:
                yield from deliver_result(
                    server.library, connection, "r", 100, deadline_s=60.0)
            except ResultDeliveryFailed as error:
                failures.append(str(error))
        return serve()

    server.library.register_service("work", handler)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.wait_for_route("client", "server")

    def run(sim):
        connection = yield from client.library.connect(
            server.address, "work", reply_service="client.reply", retries=6)
        connection.write("job", 100)
        connection.set_sending(False)

    scenario.sim.spawn(run(scenario.sim))
    scenario.run(until=SETTLE_S + 400)
    # The client ran off at 3 m/s with no relays anywhere: undeliverable.
    assert failures


def test_picture_app_small_job_direct_regime():
    """§5.3 case 1: small jobs finish inside coverage."""
    scenario = Scenario(seed=35)
    server_node = scenario.add_node("server", position=(0, 0),
                                    mobility_class="static")
    client_node = scenario.add_node("client", position=(5, 0))
    server = PictureAnalysisServer(server_node,
                                   processing_time_per_package_s=0.2)
    client = PictureAnalysisClient(client_node, package_count=5)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.wait_for_route("client", "server")
    result = scenario.run_process(client.run(server))
    assert result.uploaded
    assert result.result_received
    assert result.result_mode == "direct"
    assert server.jobs_completed == 1


def test_picture_app_medium_job_reconnect_regime():
    """§5.3 case 2: the break happens during processing; the result is
    routed back through the neighbourhood."""
    scenario = Scenario(seed=36)
    server_node = scenario.add_node("server", position=(0, 0),
                                    mobility_class="static")
    scenario.add_node("relay1", position=(8, 0), mobility_class="static")
    scenario.add_node("relay2", position=(16, 0), mobility_class="static")
    client_node = scenario.add_node(
        "client",
        mobility=CorridorWalk((6.0, 0.0), heading_deg=0.0, speed=1.4,
                              depart_time=SETTLE_S + 12.0,
                              stop_distance=14.0),
        mobility_class="dynamic")
    server = PictureAnalysisServer(server_node,
                                   processing_time_per_package_s=6.0,
                                   delivery_deadline_s=300.0)
    client = PictureAnalysisClient(client_node, package_count=10)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.wait_for_route("client", "server")
    result = scenario.run_process(
        client.run(server, result_deadline_s=500.0))
    assert result.uploaded
    assert result.result_received
    assert result.result_mode == "reconnect"
    assert server.delivery_modes == ["reconnect"]


def test_result_waiter_single_shot():
    scenario = Scenario(seed=37)
    node = scenario.add_node("n", position=(0, 0))
    waiter = ResultWaiter(node.library, "one.shot")
    assert not waiter.result_event.triggered
    # The service is registered and visible in the registry.
    assert node.daemon.registry.lookup("one.shot") is not None

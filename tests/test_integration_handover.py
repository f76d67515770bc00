"""Integration tests: the HandoverThread on the paper's Ch. 5 scenarios."""

from repro.core.config import HandoverConfig
from repro.core.errors import ConnectionClosedError
from repro.core.handover import HandoverState, HandoverThread
from repro.mobility import CorridorWalk
from repro.radio.technologies import BLUETOOTH
from repro.scenarios import Scenario, fig_5_8_handover

SETTLE_S = 180.0


def print_service(node):
    """The Fig. 5.8 'print to screen' server; returns the printed list."""
    printed = []

    def handler(connection):
        def serve(connection=connection):
            while True:
                try:
                    message = yield from connection.read()
                except ConnectionClosedError:
                    return
                printed.append((node.sim.now, message))
        return serve()

    node.library.register_service("print", handler)
    return printed


def run_fig_5_8(seed, message_count=50, decay_initial=240,
                config=None, sending=True):
    """The paper's handover simulation; returns rich results."""
    scenario = fig_5_8_handover(seed=seed)
    server, client, bridge = (scenario.node("A"), scenario.node("B"),
                              scenario.node("C"))
    printed = print_service(server)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.wait_for_route("B", "A")

    def client_run(sim):
        connection = yield from client.library.connect(
            server.address, "print", retries=6)
        # The paper's fault injection: decay the A-B quality by 1 per
        # second from the initial value.
        scenario.world.install_linear_decay(
            "A", "B", BLUETOOTH, initial_quality=decay_initial)
        connection.set_sending(sending)
        thread = HandoverThread(client.library, connection,
                                config=config).start()
        for index in range(message_count):
            connection.write(f"good morning! {index}", 64)
            yield sim.timeout(1.0)
        yield sim.timeout(5.0)
        thread.stop()
        return connection, thread

    connection, thread = scenario.run_process(client_run(scenario.sim))
    return scenario, connection, thread, printed


def test_fig_5_8_handover_fires_and_messages_survive():
    scenario, connection, thread, printed = run_fig_5_8(seed=21)
    assert thread.handovers_done >= 1
    assert connection.handovers >= 1
    # All 50 messages reached the server's screen despite the decay.
    assert len(printed) == 50
    handover = scenario.trace.first("routing-handover")
    assert handover is not None
    assert handover.detail["duration"] > 0


def test_fig_5_8_low_count_rule():
    """Quality crosses 230 and the 4th consecutive low reading triggers."""
    scenario, connection, thread, printed = run_fig_5_8(seed=22)
    handover = scenario.trace.first("routing-handover")
    lows = [e for e in scenario.trace.events("signal-low")
            if e.time <= handover.time]
    assert len(lows) >= 4  # low_count must exceed 3 (paper: "bigger than 3")
    assert lows[0].detail["quality"] < 230


def test_fig_5_8_handover_goes_through_bridge_c():
    scenario, connection, thread, printed = run_fig_5_8(seed=23)
    handover = scenario.trace.first("routing-handover")
    bridge_address = scenario.node("C").address
    assert handover.detail["via"] == bridge_address
    # And the relay is actually active on C afterwards.
    assert scenario.node("C").daemon.bridge_service.relayed_frames > 0


def test_fig_5_8_server_sees_reestablishment_not_new_connection():
    """PH_RECONNECT substitutes the server-side transport (§2.3)."""
    scenario, connection, thread, printed = run_fig_5_8(seed=24)
    assert scenario.trace.count("connection-reestablished", node="A") >= 1
    # Only ONE connection was ever accepted for the print service.
    accepted = [e for e in scenario.trace.events("connection-accepted",
                                                 node="A")
                if e.detail["service"] == "print"]
    assert len(accepted) == 1


def test_sending_flag_suppresses_handover():
    """§5.3: no handover while the application is idle (sending False)."""
    scenario, connection, thread, printed = run_fig_5_8(
        seed=25, sending=False)
    assert thread.handovers_done == 0
    assert scenario.trace.count("routing-handover") == 0


def test_handover_threshold_config_is_respected():
    """A lower threshold fires later (more decay needed)."""
    default = run_fig_5_8(seed=26, message_count=90)
    lower = run_fig_5_8(
        seed=26, message_count=90,
        config=HandoverConfig(low_quality_threshold=200))
    default_handover = default[0].trace.first("routing-handover")
    lower_handover = lower[0].trace.first("routing-handover")
    assert default_handover is not None and lower_handover is not None
    # Both scenarios share the seed; the decay start differs only by the
    # connect timing, so compare offsets from the decay installation.
    assert lower_handover.time > default_handover.time


def test_handover_without_alternative_route_reports_unavailable():
    """No bridge knows the server: routing handover is impossible and no
    other provider exists, so reconnection is unavailable (§5.2.2)."""
    scenario = Scenario(seed=27)
    server = scenario.add_node("server", position=(0, 0),
                               mobility_class="static")
    client = scenario.add_node("client", position=(5, 0))
    print_service(server)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.wait_for_route("client", "server")

    def run(sim):
        connection = yield from client.library.connect(
            server.address, "print", retries=6)
        scenario.world.install_linear_decay(
            "client", "server", BLUETOOTH, initial_quality=235)
        thread = HandoverThread(client.library, connection).start()
        yield sim.timeout(40.0)
        thread.stop()
        return thread

    thread = scenario.run_process(run(scenario.sim))
    assert thread.handovers_done == 0
    assert scenario.trace.count("reconnection-unavailable") >= 1


def test_service_reconnection_falls_back_to_second_provider():
    """§5.2.2: connect to another device offering the same service.

    Geometry forces the fallback: server2 is never adjacent to server1,
    so no routing handover can keep the original connection alive.
    """
    scenario = Scenario(seed=28)
    server1 = scenario.add_node("server1", position=(0, 0),
                                mobility_class="static")
    client = scenario.add_node("client", position=(8, 0))
    server2 = scenario.add_node("server2", position=(16, 0),
                                mobility_class="static")
    print_service(server1)
    printed2 = print_service(server2)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.wait_for_route("client", "server1")
    assert scenario.wait_for_route("client", "server2")
    reconnected = []

    def on_reconnected(new_connection):
        reconnected.append(new_connection)
        new_connection.write("restarted-task", 64)
        return None

    def run(sim):
        connection = yield from client.library.connect(
            server1.address, "print", retries=6)
        # Drive the client-server1 quality to the floor; server2 cannot
        # bridge (16 m from server1), so only §5.2.2 remains.
        scenario.world.install_linear_decay(
            "client", "server1", BLUETOOTH, initial_quality=229,
            decay_per_second=5.0)
        thread = HandoverThread(
            client.library, connection,
            config=HandoverConfig(max_handover_attempts=0),
            on_service_reconnected=on_reconnected).start()
        yield sim.timeout(90.0)
        thread.stop()
        return connection

    old_connection = scenario.run_process(run(scenario.sim))
    scenario.run(until=scenario.sim.now + 10)
    assert scenario.trace.count("service-reconnection") >= 1
    assert reconnected, "application never got the replacement connection"
    assert not old_connection.is_open
    assert any(m == "restarted-task" for _, m in printed2)


def test_walking_speed_race_paper_conclusion():
    """§5.2.1: at walking speed, Bluetooth's connect time usually loses
    the race — the connection dies before the second route is up."""
    losses = 0
    trials = 8
    for seed in range(trials):
        scenario = Scenario(seed=100 + seed)
        server = scenario.add_node("A", position=(0, 0),
                                   mobility_class="static")
        bridge = scenario.add_node("C", position=(0, 6),
                                   mobility_class="static")
        walker = scenario.add_node(
            "B",
            mobility=CorridorWalk((6.0, 0.0), heading_deg=0.0,
                                  depart_time=SETTLE_S + 20.0),
            mobility_class="dynamic")
        printed = print_service(server)
        scenario.start_all()
        scenario.run(until=SETTLE_S)
        if not scenario.wait_for_route("B", "A"):
            continue

        def run(sim):
            connection = yield from walker.library.connect(
                server.address, "print", retries=4)
            thread = HandoverThread(walker.library, connection).start()
            for index in range(60):
                if not connection.is_open:
                    break
                connection.write(f"msg {index}", 64)
                yield sim.timeout(1.0)
            thread.stop()
            return connection

        connection = scenario.run_process(run(scenario.sim))
        # Walking at 1.4 m/s, B leaves A's 10 m radius ~7 s after depart
        # while a Bluetooth handover needs ~1.5-9 s establishment plus
        # monitor lag: the handover usually fails or arrives too late.
        survived = connection.is_open and connection.handovers >= 1
        if not survived:
            losses += 1
    assert losses >= trials // 2, (
        f"expected the walking-speed race to be mostly lost, "
        f"lost only {losses}/{trials}")


def test_handover_thread_states_progress():
    scenario, connection, thread, printed = run_fig_5_8(seed=29)
    assert thread.state is HandoverState.STOPPED
    assert thread.handovers_done >= 1

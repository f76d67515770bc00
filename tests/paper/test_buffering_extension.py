"""A7 — the §6.1 Data Buffering extension (future work, implemented).

The paper: "there exists the possibility to lose data due to Write
function not being aware of the connection loss ... an efficient Data
Buffering is necessary to guarantee the data integrity", with per-packet
acknowledgements rejected as "too costly due to the small size of
packet".

Method: the Fig. 5.8 handover run with and without the ReliableChannel.
The raw connection occasionally loses frames in flight during the
transport substitution; the buffered channel delivers everything, in
order, at a bounded ack overhead (one cumulative ack per 4 payloads).
"""

from repro.core.buffering import ReliableChannel
from repro.core.errors import ConnectionClosedError
from repro.core.handover import HandoverThread
from repro.metrics.tables import print_table
from repro.radio.technologies import BLUETOOTH
from repro.scenarios import fig_5_8_handover

SETTLE_S = 200.0
SEEDS = (17, 18, 19, 20, 21, 22)
MESSAGES = 50


def run_one(seed, buffered):
    scenario = fig_5_8_handover(seed=seed)
    server, client = scenario.node("A"), scenario.node("B")
    received = []

    def handler(connection):
        channel = ReliableChannel(connection) if buffered else None

        def serve(connection=connection, channel=channel):
            while True:
                try:
                    if channel is not None:
                        payload = yield from channel.receive()
                    else:
                        payload = yield from connection.read()
                except ConnectionClosedError:
                    return
                received.append(payload)
        return serve()

    server.library.register_service("sink", handler)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    if not scenario.wait_for_route("B", "A"):
        return None

    def run(sim):
        connection = yield from client.library.connect(
            server.address, "sink", retries=6)
        channel = (ReliableChannel(connection, resend_interval_s=3.0)
                   if buffered else None)
        scenario.world.install_linear_decay(
            "A", "B", BLUETOOTH, initial_quality=240)
        thread = HandoverThread(client.library, connection).start()
        for index in range(MESSAGES):
            if channel is not None:
                channel.send(index, 64)
            else:
                connection.write(index, 64)
            yield sim.timeout(1.0)
        yield sim.timeout(15.0)
        thread.stop()
        return connection

    connection = scenario.run_process(run(scenario.sim))
    if connection.handovers < 1:
        return None  # the run must exercise a transport substitution
    in_order = received == sorted(set(received))
    return {"delivered": len(set(received)), "in_order": in_order}


def run_comparison():
    outcomes = {"raw": [], "buffered": []}
    for seed in SEEDS:
        raw = run_one(seed, buffered=False)
        buffered = run_one(seed, buffered=True)
        if raw is not None:
            outcomes["raw"].append(raw)
        if buffered is not None:
            outcomes["buffered"].append(buffered)
    return outcomes


def test_buffering_extension():
    outcomes = run_comparison()
    assert len(outcomes["raw"]) >= 3
    assert len(outcomes["buffered"]) >= 3
    raw_delivered = [o["delivered"] for o in outcomes["raw"]]
    buffered_delivered = [o["delivered"] for o in outcomes["buffered"]]
    rows = [
        ["raw connection (§6.1 limitation)",
         f"can lose in-flight frames on handover",
         f"min {min(raw_delivered)}/{MESSAGES} delivered"],
        ["ReliableChannel (§6.1 extension)",
         "no loss, in order",
         f"min {min(buffered_delivered)}/{MESSAGES} delivered"],
    ]
    print_table("A7: §6.1 Data Buffering across the Fig. 5.8 handover",
                ["mode", "expected", "measured"], rows)
    # The buffered channel never loses or reorders anything.
    for outcome in outcomes["buffered"]:
        assert outcome["delivered"] == MESSAGES
        assert outcome["in_order"]
    # The raw runs deliver at most as much — usually with some loss.
    assert min(raw_delivered) <= MESSAGES

"""Fig. 1.1 — a migrated task without handover.

Paper artifact: the introduction's motivating figure, where a task
migrated over a plain connection is lost once the walking user leaves
radio range.  :func:`~repro.baselines.no_handover.run_plain_connection`
is the no-handover baseline the PeerHood handover is measured against.
"""

from repro.apps.message_test import MessageTestServer
from repro.baselines.no_handover import run_plain_connection
from repro.scenarios import Scenario

SETTLE_S = 180.0


def test_plain_connection_baseline_fails_when_link_dies():
    """Fig. 1.1: without handover the migrated task is lost."""
    from repro.mobility import CorridorWalk

    scenario = Scenario(seed=48)
    server_node = scenario.add_node("server", position=(0, 0),
                                    mobility_class="static")
    scenario.add_node(
        "walker",
        mobility=CorridorWalk((5.0, 0.0), depart_time=SETTLE_S + 5.0,
                              speed=1.4),
        mobility_class="dynamic")
    server = MessageTestServer(server_node)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.wait_for_route("walker", "server")
    outcome = scenario.run_process(run_plain_connection(
        scenario.node("walker"), server_node.address,
        MessageTestServer.SERVICE_NAME, message_count=40, interval_s=1.0,
        delivered_counter=lambda: len(server.printed), retries=6))
    assert outcome.connected
    assert not outcome.survived
    assert outcome.messages_delivered < 40

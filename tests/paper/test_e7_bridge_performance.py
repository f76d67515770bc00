"""E7 — §4.3 / Fig. 4.5: the bridge service performance test.

Paper artifact: "In these ten connection attempts, three of them couldn't
be done due to the normal Bluetooth connection fault ... the time needed
for the connection was between 3-18 seconds.  The sending and receiving
of data packages were carried out perfectly with an almost negligible
time delay."
"""

from repro.apps.message_test import MessageTestClient, MessageTestServer
from repro.core.config import DaemonConfig
from repro.metrics.stats import summarize
from repro.metrics.tables import print_table
from repro.scenarios import fig_4_5_bridge_test

ATTEMPTS = 20
SETTLE_S = 200.0


def run_campaign():
    outcomes = []
    for seed in range(ATTEMPTS):
        # The paper made single attempts: no establishment retries
        # anywhere on the chain (its 3/10 failures come from exactly
        # that), so the bridge must not retry its onward hop either.
        config = DaemonConfig(connect_retries=0)
        scenario = fig_4_5_bridge_test(seed=seed, config=config)
        server = MessageTestServer(scenario.node("server"))
        client = MessageTestClient(scenario.node("client"), count=20,
                                   interval_s=1.0)
        scenario.start_all()
        scenario.run(until=SETTLE_S)
        if not scenario.wait_for_route("client", "server"):
            continue
        # The paper did not retry: a single chain attempt per run.
        outcome = scenario.run_process(client.run(server, retries=0))
        outcomes.append(outcome)
    return outcomes


def test_e7_bridge_performance():
    outcomes = run_campaign()
    assert len(outcomes) >= 10
    successes = [o for o in outcomes if o.connected]
    failures = [o for o in outcomes if not o.connected]
    connect_times = [o.connect_time_s for o in successes]
    delays = [o.first_delivery_delay_s for o in successes
              if o.first_delivery_delay_s is not None]
    stats = summarize(connect_times)
    rows = [
        ["attempts", "10", len(outcomes)],
        ["failed (BT fault)", "3 (30%)",
         f"{len(failures)} ({100 * len(failures) / len(outcomes):.0f}%)"],
        ["connect time", "3-18 s",
         f"{stats.minimum:.1f}-{stats.maximum:.1f} s "
         f"(mean {stats.mean:.1f})"],
        ["messages delivered", "20/20, in order",
         f"{successes[0].messages_delivered}/20 (first run)"],
        ["per-message relay delay", "almost negligible",
         f"{max(delays):.3f} s worst case"],
    ]
    print_table("E7: §4.3 bridge performance (paper vs measured)",
                ["metric", "paper", "measured"], rows)
    # Shape assertions.
    failure_rate = len(failures) / len(outcomes)
    assert 0.10 <= failure_rate <= 0.50, (
        f"paper saw ~30% chain failures, measured {failure_rate:.0%}")
    assert stats.minimum >= 3.0 - 0.5, "two BT links: at least ~3 s"
    assert stats.maximum <= 18.0 + 0.5, "two BT links: at most ~18 s"
    for outcome in successes:
        assert outcome.messages_delivered == 20
    assert max(delays) < 0.5, "relay latency must be negligible (§4.3)"

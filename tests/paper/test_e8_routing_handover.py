"""E8 — §5.2.1 / Fig. 5.8: the routing handover simulation.

Paper artifacts:

* the decay-driven simulation: quality falls 1/s; below 230 the low
  counter rises; "when this account is bigger than three, the
  HandoverThread will proceed to change the connection to the second
  route"; "the connection changes were carried out with the same time
  delay like a normal interconnection process";
* the corridor walk: "the interconnection time that would be from 4 to
  15 seconds.  More than probably the connection will be lost before we
  achieve the second route connection establishment."

The decay campaign runs through the experiment subsystem (the bundled
``handover_decay`` spec: eight seeded Fig. 5.8 runs of the
``handover_decay`` workload); the corridor walk keeps its bespoke loop —
it wires a custom mobility model mid-scenario.
"""

from repro.core.errors import ConnectionClosedError
from repro.core.handover import HandoverThread
from repro.experiments import get_spec, run_campaign
from repro.metrics.stats import summarize
from repro.metrics.tables import print_table
from repro.mobility import CorridorWalk
from repro.scenarios import Scenario

SETTLE_S = 200.0
WALK_SEEDS = range(10)


def _print_service(node, printed):
    def handler(connection):
        def serve(connection=connection):
            while True:
                try:
                    message = yield from connection.read()
                except ConnectionClosedError:
                    return
                printed.append(message)
        return serve()
    node.library.register_service("print", handler)


def run_decay_campaign(out_dir):
    """The eight-run decay campaign, as a declarative sweep."""
    runs = []
    for record in run_campaign(get_spec("handover_decay"), out_dir).records:
        metrics = record["metrics"]
        if not metrics["route_found"]:
            continue
        runs.append({
            "fired": bool(metrics["fired"]),
            "duration": metrics["duration_s"],
            "lows_before": metrics["lows_before"],
            "delivered": metrics["delivered"],
            "reestablished": metrics["reestablished"],
        })
    return runs


def test_e8_fig_5_8_decay_simulation(tmp_path):
    runs = run_decay_campaign(tmp_path)
    assert len(runs) >= 5
    fired = [r for r in runs if r["fired"]]
    durations = [r["duration"] for r in fired if r["duration"] is not None]
    stats = summarize(durations)
    delivery = summarize([r["delivered"] for r in runs])
    rows = [
        ["handover fired", "always (after 4th low reading)",
         f"{len(fired)}/{len(runs)} runs"],
        ["low readings before switch", "> 3",
         f"min {min(r['lows_before'] for r in fired)}"],
        ["handover delay", "like a normal interconnection (4-15 s)",
         f"{stats.minimum:.1f}-{stats.maximum:.1f} s "
         f"(mean {stats.mean:.1f})"],
        ["messages delivered", "50 (task survives)",
         f"mean {delivery.mean:.1f}/50"],
        ["server-side PH_RECONNECT", ">= 1 substitution",
         f"mean {summarize([r['reestablished'] for r in runs]).mean:.1f}"],
    ]
    print_table("E8: Fig. 5.8 routing handover (paper vs measured)",
                ["metric", "paper", "measured"], rows)
    assert len(fired) >= 0.8 * len(runs)
    for run in fired:
        assert run["lows_before"] >= 4
    # One bridge hop establishment: the paper's 4-15 s envelope, with a
    # little slack for retries.
    assert 1.5 <= stats.minimum and stats.maximum <= 25.0
    assert delivery.mean >= 45.0, "the stream must survive the handover"


def run_walk_campaign():
    """The corridor walk: does handover win the race against coverage?"""
    outcomes = []
    for seed in WALK_SEEDS:
        scenario = Scenario(seed=300 + seed)
        server = scenario.add_node("A", position=(0, 0),
                                   mobility_class="static")
        scenario.add_node("C", position=(0, 6), mobility_class="static")
        walker = scenario.add_node(
            "B", mobility=CorridorWalk((6.0, 0.0), heading_deg=0.0,
                                       depart_time=SETTLE_S + 20.0),
            mobility_class="dynamic")
        printed = []
        _print_service(server, printed)
        scenario.start_all()
        scenario.run(until=SETTLE_S)
        if not scenario.wait_for_route("B", "A"):
            continue

        def client_run(sim, walker=walker, server=server):
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

        connection = scenario.run_process(client_run(scenario.sim))
        survived = connection.is_open and connection.handovers >= 1
        outcomes.append(survived)
    return outcomes


def test_e8_walking_speed_race():
    outcomes = run_walk_campaign()
    assert len(outcomes) >= 6
    lost = sum(1 for survived in outcomes if not survived)
    loss_rate = lost / len(outcomes)
    rows = [[
        "connection lost before the second route is up",
        "'more than probably'",
        f"{lost}/{len(outcomes)} ({loss_rate:.0%})",
    ]]
    print_table("E8b: §5.2.1 walking-speed race (paper vs measured)",
                ["outcome", "paper", "measured"], rows)
    assert loss_rate >= 0.5, (
        "the paper concludes the handover usually loses the race at "
        f"walking speed; measured loss rate {loss_rate:.0%}")

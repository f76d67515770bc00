"""E9 — §5.3: the three result-routing regimes of the picture server.

Paper artifact: "We can summarize the result in following three groups":

1. small jobs — "the task could be carried out before the device leaves
   the coverage area";
2. considerable jobs — "the connection is broken during the processing
   time after the server has already received all picture information.
   In this case server looks for the device in its neighborhood routing
   table and tries to send the result back";
3. huge jobs — "the connection is broken during the data packages
   transmission", the mid-upload handover usually failing on Bluetooth's
   connect time.
"""

from repro.apps.picture_analysis import (
    PictureAnalysisClient,
    PictureAnalysisServer,
)
from repro.metrics.tables import print_table
from repro.mobility import CorridorWalk
from repro.scenarios import Scenario

SETTLE_S = 200.0

#: (label, package count, paper's expected regime)
CASES = (
    ("small", 3, "direct"),
    ("considerable", 30, "reconnect"),
    ("huge", 700, "broken upload"),
)


def run_case(package_count, seed):
    scenario = Scenario(seed=seed)
    server_node = scenario.add_node("server", position=(0, 0),
                                    mobility_class="static")
    scenario.add_node("relay1", position=(8, 0), mobility_class="static")
    scenario.add_node("relay2", position=(16, 0), mobility_class="static")
    client_node = scenario.add_node(
        "client",
        mobility=CorridorWalk((6.0, 0.0), heading_deg=0.0, speed=1.4,
                              depart_time=SETTLE_S + 25.0,
                              stop_distance=14.0),
        mobility_class="dynamic")
    server = PictureAnalysisServer(server_node,
                                   processing_time_per_package_s=1.5,
                                   delivery_deadline_s=300.0)
    client = PictureAnalysisClient(client_node,
                                   package_count=package_count)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    if not scenario.wait_for_route("client", "server"):
        return None
    result = scenario.run_process(
        client.run(server, result_deadline_s=500.0, with_handover=True))
    if server.uploads_broken:
        regime = "broken upload"
    elif result.result_received:
        regime = server.delivery_modes[-1] if server.delivery_modes else (
            "direct")
    else:
        regime = "no result"
    return {"regime": regime, "result": result,
            "jobs_completed": server.jobs_completed}


def run_sweep():
    outcomes = {}
    for label, package_count, expected in CASES:
        for seed in (61, 62, 63):
            outcome = run_case(package_count, seed)
            if outcome is not None:
                outcomes[label] = (package_count, expected, outcome)
                break
    return outcomes


def test_e9_result_routing_regimes():
    outcomes = run_sweep()
    assert len(outcomes) == len(CASES)
    rows = []
    for label, (count, expected, outcome) in outcomes.items():
        rows.append([label, count, expected, outcome["regime"],
                     "ok" if outcome["regime"] == expected else "MISMATCH"])
    print_table("E9: §5.3 result-routing regimes by package count "
                "(paper vs measured)",
                ["case", "packages", "paper regime", "measured", "match"],
                rows)
    for label, (count, expected, outcome) in outcomes.items():
        assert outcome["regime"] == expected, (
            f"{label} ({count} packages): paper regime {expected!r}, "
            f"measured {outcome['regime']!r}")
    # Case 2's distinguishing feature: the result still arrives.
    considerable = outcomes["considerable"][2]
    assert considerable["result"].result_received
    assert considerable["jobs_completed"] == 1
    # Case 3: nothing to process, no result.
    huge = outcomes["huge"][2]
    assert not huge["result"].result_received

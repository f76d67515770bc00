"""E6 — §3.2: Gnutella flooding traffic vs PeerHood neighbour exchange.

Paper artifact: "One of the biggest performance problems is the huge
network traffic generated due to the high number of query messages ...
the same inquiry process of Gnutella won't work appropriately in
PeerHood", whereas PeerHood's inquiry "is not repeated like Gnutella
network, but only sent to the direct neighbours".

Method: on the same random-disc worlds, count (a) Gnutella query
messages per search as searches accumulate, against (b) the PeerHood
stack's total discovery messages over the same wall-clock — after
convergence every PeerHood search is a free local table lookup.
"""

from repro.baselines.gnutella import GnutellaNetwork
from repro.metrics.tables import print_table
from repro.radio.technologies import BLUETOOTH
from repro.scenarios import random_disc

NODE_COUNT = 12
AREA = 26.0
SETTLE_S = 300.0
SEARCH_COUNTS = (1, 5, 20, 50)


def run_comparison(seed=3):
    # PeerHood: run the real stack and meter its discovery traffic.
    scenario = random_disc(NODE_COUNT, area=AREA, seed=seed,
                           mobility_class="static")
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    peerhood_messages = scenario.meter.messages(category="discovery")
    peerhood_bytes = scenario.meter.bytes(category="discovery")
    # After convergence a "search" is a DeviceStorage lookup: 0 messages.
    # Gnutella: same geometry, flood per search.
    overlay = GnutellaNetwork(scenario.world, BLUETOOTH)
    for name in scenario.nodes:
        overlay.add_node(name)
    overlay.nodes[f"n{NODE_COUNT - 1}"].add_resource("file.dat")
    search = overlay.search("n0", "file.dat")
    per_search = search.query_messages
    rows = {}
    for searches in SEARCH_COUNTS:
        rows[searches] = {
            "gnutella": per_search * searches,
            "peerhood": peerhood_messages,  # flat: periodic exchange only
        }
    return {
        "per_search": per_search,
        "nodes_reached": search.nodes_reached,
        "peerhood_total": peerhood_messages,
        "peerhood_bytes": peerhood_bytes,
        "rows": rows,
    }


def test_e6_gnutella_vs_peerhood_traffic():
    result = run_comparison()
    rows = [[searches,
             values["gnutella"],
             values["peerhood"],
             f"{values['gnutella'] / max(1, values['peerhood']):.2f}x"]
            for searches, values in result["rows"].items()]
    print_table(
        "E6: §3.2 cumulative messages vs number of searches "
        f"({NODE_COUNT} nodes; PeerHood column is its total periodic "
        f"discovery traffic over {SETTLE_S:.0f} s — searches are free)",
        ["searches", "gnutella msgs", "peerhood msgs", "ratio"], rows)
    # Shape: flooding cost grows linearly with searches; PeerHood's cost
    # is flat, so Gnutella overtakes it within a bounded search count.
    gnutella_50 = result["rows"][50]["gnutella"]
    assert gnutella_50 > result["peerhood_total"], (
        "by 50 searches the flooding traffic must exceed PeerHood's "
        "whole periodic exchange budget")
    assert result["per_search"] >= result["nodes_reached"], (
        "flooding must visit (and re-visit) its component")


def run_density_sweep(counts=(6, 12, 18), seed=4):
    per_node = {}
    for count in counts:
        scenario = random_disc(count, area=AREA, seed=seed,
                               mobility_class="static")
        overlay = GnutellaNetwork(scenario.world, BLUETOOTH)
        for name in scenario.nodes:
            overlay.add_node(name)
        result = overlay.search("n0", "nothing")
        per_node[count] = result.query_messages / count
    return per_node


def test_e6_flooding_cost_grows_with_density():
    per_node = run_density_sweep()
    rows = [[count, f"{cost:.1f}"] for count, cost in per_node.items()]
    print_table("E6b: Gnutella query messages per node vs density",
                ["nodes", "msgs/node"], rows)
    costs = [per_node[c] for c in sorted(per_node)]
    assert costs[-1] > costs[0], (
        "per-node flooding cost must grow with density (duplicate "
        "deliveries), the paper's §3.2 argument")

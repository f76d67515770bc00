"""E2 — Fig. 3.6: the dynamic device discovery table for device A.

Paper artifact: after propagation, A's DeviceStorage reads
{B: 0 jumps, no bridge; C: 0, no bridge; D: 1 via C; E: 1 via B}.
"""

from repro.metrics.tables import print_table
from repro.scenarios import fig_3_6_dynamic_discovery

PAPER_TABLE = {
    "B": (0, None),
    "C": (0, None),
    "D": (1, "C"),
    "E": (1, "B"),
}


def run_discovery(seed=4, settle_s=240.0):
    scenario = fig_3_6_dynamic_discovery(seed=seed)
    scenario.start_all()
    scenario.run(until=settle_s)
    node_a = scenario.node("A")
    table = {}
    for device in node_a.daemon.storage.devices():
        peer = scenario.fabric.node_by_address(device.address)
        if peer is None:
            continue
        bridge_peer = (scenario.fabric.node_by_address(device.bridge)
                       if device.bridge else None)
        table[peer.node_id] = (
            device.jump, bridge_peer.node_id if bridge_peer else None)
    return table


def test_e2_fig_3_6_device_storage_of_a():
    table = run_discovery()
    rows = []
    for name, (jump, bridge) in sorted(PAPER_TABLE.items()):
        got = table.get(name)
        rows.append([name, f"jump {jump} via {bridge or '-'}",
                     f"jump {got[0]} via {got[1] or '-'}" if got else
                     "missing",
                     "ok" if got == (jump, bridge) else "MISMATCH"])
    print_table("E2: Fig. 3.6 DeviceStorage of A (paper vs measured)",
                ["device", "paper", "measured", "match"], rows)
    for name, expected in PAPER_TABLE.items():
        assert table.get(name) == expected, (
            f"A's entry for {name}: paper {expected}, "
            f"measured {table.get(name)}")

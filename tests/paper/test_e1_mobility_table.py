"""E1 — the §3.4.3 mobility-addition table.

Paper artifact: the unnumbered table listing all nine mobility-class
pair sums (0+0=0 ... 3+3=6), "the smaller the mobility number is, the
better would be the stability of the connection".
"""

from repro.core.device import MobilityClass, mobility_addition
from repro.metrics.tables import print_table

PAPER_TABLE = {
    ("STATIC", "STATIC"): 0,
    ("STATIC", "HYBRID"): 1,
    ("HYBRID", "STATIC"): 1,
    ("HYBRID", "HYBRID"): 2,
    ("STATIC", "DYNAMIC"): 3,
    ("DYNAMIC", "STATIC"): 3,
    ("HYBRID", "DYNAMIC"): 4,
    ("DYNAMIC", "HYBRID"): 4,
    ("DYNAMIC", "DYNAMIC"): 6,
}


def run_table():
    measured = {}
    for first in MobilityClass:
        for second in MobilityClass:
            measured[(first.name, second.name)] = mobility_addition(
                first, second)
    return measured


def test_e1_mobility_addition_table():
    measured = run_table()
    rows = []
    for pair, expected in PAPER_TABLE.items():
        got = measured[pair]
        rows.append([f"{pair[0].lower()}+{pair[1].lower()}",
                     expected, got, "ok" if got == expected else "MISMATCH"])
        assert got == expected, f"{pair}: paper {expected}, measured {got}"
    print_table("E1: §3.4.3 mobility addition (paper vs measured)",
                ["pair", "paper", "measured", "match"], rows)
    # Stability ordering: lower sum = preferred bridge pairing.
    assert measured[("STATIC", "STATIC")] < measured[
        ("DYNAMIC", "DYNAMIC")]

"""E5 — §3.1 / Fig. 3.3: coverage exclusion across discovery schemes.

Paper artifact: with direct-only or one-level neighbourhood fetching,
"devices B, C and D ... will never be notified of the existence of
devices F and G"; dynamic discovery gives total environment awareness.

Method: awareness fraction (how much of the network each node can see)
for the two previous-PeerHood oracles, the dynamic-discovery oracle, and
the *measured* full stack after settling — on the Fig. 3.3 layout
directly, and on random discs via the bundled ``coverage_sweep`` spec
(``awareness_schemes`` workload) through the experiment runner.
"""

from repro.baselines.previous_peerhood import (
    DirectOnlyDiscovery,
    FullMeshDiscovery,
    TwoJumpDiscovery,
    mean_awareness,
)
from repro.experiments import aggregate, get_spec, run_campaign
from repro.metrics.tables import print_table
from repro.radio.technologies import BLUETOOTH
from repro.scenarios import fig_3_3_coverage_exclusion


def run_fig_3_3(seed=2, settle_s=300.0):
    scenario = fig_3_3_coverage_exclusion(seed=seed)
    names = list(scenario.nodes)
    direct = DirectOnlyDiscovery(scenario.world, BLUETOOTH)
    two_jump = TwoJumpDiscovery(scenario.world, BLUETOOTH)
    full = FullMeshDiscovery(scenario.world, BLUETOOTH)
    scenario.start_all()
    scenario.run(until=settle_s)
    measured = {name: scenario.awareness(name) for name in names}
    return {
        "direct-only": mean_awareness(direct.aware_of, names),
        "two-jump": mean_awareness(two_jump.aware_of, names),
        "dynamic (oracle)": mean_awareness(full.aware_of, names),
        "dynamic (measured stack)": mean_awareness(
            lambda n: measured[n], names),
        "_b_view": {
            "direct": sorted(direct.aware_of("B")),
            "two_jump": sorted(two_jump.aware_of("B")),
            "measured": sorted(measured["B"]),
        },
    }


def test_e5_fig_3_3_schemes():
    result = run_fig_3_3()
    rows = [[scheme, f"{value:.3f}"]
            for scheme, value in result.items() if scheme[0] != "_"]
    print_table("E5: Fig. 3.3 awareness fraction by discovery scheme",
                ["scheme", "awareness"], rows)
    b_view = result["_b_view"]
    # The paper's exclusion: B never sees F/G under the old schemes...
    assert "F" not in b_view["direct"] and "G" not in b_view["direct"]
    assert "F" not in b_view["two_jump"] and "G" not in b_view["two_jump"]
    # ...but the full stack reaches them.
    assert {"F", "G"} <= set(b_view["measured"])
    assert (result["direct-only"] < result["two-jump"]
            < result["dynamic (oracle)"])
    assert result["dynamic (measured stack)"] > result["two-jump"]


def run_random_discs(out_dir):
    """The random-disc campaign, as a declarative sweep."""
    [row] = aggregate(run_campaign(get_spec("coverage_sweep"),
                                   out_dir).records)
    return {
        "direct-only": row.metrics["direct_only"].mean,
        "two-jump": row.metrics["two_jump"].mean,
        "dynamic (oracle)": row.metrics["dynamic_oracle"].mean,
        "dynamic (measured stack)": row.metrics["dynamic_measured"].mean,
    }


def test_e5_random_disc_ordering(tmp_path):
    result = run_random_discs(tmp_path)
    rows = [[scheme, f"{value:.3f}"] for scheme, value in result.items()]
    print_table("E5b: random-disc awareness fraction (10 nodes, 40 m sq)",
                ["scheme", "mean awareness"], rows)
    assert (result["direct-only"] <= result["two-jump"]
            <= result["dynamic (oracle)"])
    # The measured stack approaches the oracle (some churn tolerated).
    assert result["dynamic (measured stack)"] >= (
        0.8 * result["dynamic (oracle)"])

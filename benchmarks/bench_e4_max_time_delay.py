"""E4 — Fig. 3.10: maximum change-notification delay vs hop count.

Paper artifact: "Max Delay = Num Jump * searching cycle time", and for
Bluetooth the asymmetric discovery makes it "even bigger".

Method: the bundled ``delay_sweep`` spec (chain length × repeats,
``line_delay`` workload: a line of settled nodes, a new device powers on
next to the far end, measure when n0 learns of it) executed through the
experiment runner.  The delay must grow with the jump distance and stay
within a small multiple of the search cycle per jump.
"""

import statistics

from repro.experiments import get_spec, run_campaign
from repro.radio.technologies import BLUETOOTH
from paperbench import print_table


def run_sweep(out_dir):
    """Execute the declarative sweep; delays per jump count."""
    results = {}
    for record in run_campaign(get_spec("delay_sweep"), out_dir).records:
        metrics = record["metrics"]
        delays = results.setdefault(metrics["jumps"], [])
        if metrics["delay_s"] is not None:
            delays.append(metrics["delay_s"])
    return results


def test_e4_fig_3_10_delay_grows_with_jumps(benchmark, tmp_path):
    results = benchmark.pedantic(run_sweep, args=(tmp_path,), rounds=1,
                                 iterations=1, warmup_rounds=0)
    cycle = BLUETOOTH.search_cycle_s
    rows = []
    means = {}
    for jumps, delays in sorted(results.items()):
        assert delays, f"newcomer never detected at {jumps} jumps"
        mean_delay = statistics.fmean(delays)
        means[jumps] = mean_delay
        rows.append([
            jumps,
            f"<= {jumps} x cycle = {jumps * cycle:.0f} s (paper bound)",
            f"{mean_delay:.1f} s ({mean_delay / cycle:.2f} cycles)",
        ])
    print_table(
        "E4: Fig. 3.10 change-notification delay "
        f"(Bluetooth cycle = {cycle:.1f} s; asymmetric discovery "
        "inflates the paper's ideal bound)",
        ["jumps", "paper", "measured mean"], rows)
    ordered = [means[j] for j in sorted(means)]
    assert ordered == sorted(ordered), (
        f"delay must grow with jump count: {means}")
    # The paper's qualitative claim: multi-hop delay is cycles, not
    # seconds — and Bluetooth misses push it past the ideal bound at
    # times, but it stays within a few cycles per jump.
    for jumps, mean_delay in means.items():
        assert mean_delay < (jumps + 1) * 4 * cycle
    benchmark.extra_info["mean_delay_by_jumps"] = {
        str(k): round(v, 1) for k, v in means.items()}

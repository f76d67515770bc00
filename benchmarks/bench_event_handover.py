"""Event-driven vs polling handover monitoring — the kernel-wakeup gate.

Not a paper artifact: this benchmark backs the PR 3 connectivity-event
core.  A *monitor farm* puts ``N`` nodes into ``N/2`` monitored pairs
(each pair one direct link + one :class:`HandoverThread`); a 10 %
fraction of partners walks out of coverage mid-run, so those monitors
must observe the quality ramp, count low readings, attempt state-2
substitution (no routes exist — the §5.2.2 fallback reports
``reconnection-unavailable``) and keep watching, while the quiet
majority's quality sits on the 255 plateau the whole time.

The same farm runs twice — ``HandoverConfig(event_driven=False)`` (the
paper-faithful polling oracle) and ``True`` (bus-predicted crossings) —
and the benchmark asserts:

* the **decision stream is identical**: every signal-low reading (node,
  count, quality) and every reconnection-unavailable event matches
  one-for-one, with instants equal to 1 µs;
* the event-driven run takes **≥ 5× fewer monitor wakeups** (the
  acceptance gate) and fewer kernel events overall;
* the bus counters surface in ``world.stats.bus`` and moved.

``BENCH_event_handover.json`` at the repo root records the wakeup /
kernel-event / wall-clock comparison for cross-PR tracking.  ``N``
defaults to 500; the CI bench-smoke job sets ``BENCH_EVENT_N`` small.
"""

import os
import pathlib
import time

from ledger import write_bench_snapshot
from repro.core.config import HandoverConfig
from repro.core.handover import HandoverThread
from repro.core.connection import PeerHoodConnection
from repro.metrics.tables import print_table
from repro.mobility.walker import CorridorWalk
from repro.radio.channel import Link
from repro.radio.technologies import BLUETOOTH
from repro.scenarios import Scenario


SNAPSHOT_PATH = (pathlib.Path(__file__).resolve().parent.parent
                 / "BENCH_event_handover.json")

#: Farm size (nodes); the CI smoke job shrinks it via the environment.
FARM_N = int(os.environ.get("BENCH_EVENT_N", "500"))
#: Monitored sim time per mode, seconds.
DURATION_S = 240.0
#: Fraction of pairs whose partner walks out of coverage.
WALKER_FRACTION = 0.1
#: In-pair distance (metres): on the quality plateau (reads 255).
PAIR_GAP_M = 4.0
#: Distance between pairs (metres): beyond Bluetooth range, no coupling.
PAIR_PITCH_M = 30.0


def build_farm(n_nodes: int, event_driven: bool, seed: int = 9):
    """A scenario of N/2 monitored pairs; returns (scenario, threads)."""
    scenario = Scenario(seed=seed)
    pair_count = n_nodes // 2
    walker_count = max(1, round(pair_count * WALKER_FRACTION))
    threads = []
    config = HandoverConfig(event_driven=event_driven)
    for index in range(pair_count):
        x = index * PAIR_PITCH_M
        anchor = scenario.add_node(
            f"a{index}", position=(x, 0.0), mobility_class="static")
        if index < walker_count:
            # Departures staggered so crossings spread over the run.
            depart = 30.0 + (index * 120.0) / walker_count
            partner = scenario.add_node(
                f"b{index}",
                mobility=CorridorWalk((x + PAIR_GAP_M, 0.0), heading_deg=0.0,
                                      depart_time=depart, stop_distance=30.0),
                mobility_class="dynamic")
        else:
            partner = scenario.add_node(
                f"b{index}", position=(x + PAIR_GAP_M, 0.0),
                mobility_class="static")
        link = Link(scenario.world, anchor.node_id, partner.node_id,
                    BLUETOOTH)
        connection = PeerHoodConnection(
            fabric=scenario.fabric, local_node_id=anchor.node_id,
            link=link, connection_id=index + 1,
            remote_address=partner.address, service_name="bench")
        threads.append(HandoverThread(
            anchor.library, connection, config=config).start())
    return scenario, threads


def run_mode(event_driven: bool, n_nodes: int):
    """One farm run; returns (figures, decision stream)."""
    started = time.perf_counter()
    scenario, threads = build_farm(n_nodes, event_driven)
    scenario.run(until=DURATION_S)
    for thread in threads:
        thread.stop()
    wall_s = time.perf_counter() - started
    lows = [(e.node, e.detail["low_count"], e.detail["quality"], e.time)
            for e in scenario.trace.events("signal-low")]
    fallbacks = [(e.node, e.time)
                 for e in scenario.trace.events("reconnection-unavailable")]
    figures = {
        "monitor_wakeups": sum(t.monitor_wakeups for t in threads),
        "kernel_events": scenario.sim.events_processed,
        "signal_lows": len(lows),
        "reconnection_unavailable": len(fallbacks),
        "bus": scenario.world.stats.bus.as_dict(),
        "wall_s": round(wall_s, 3),
    }
    return figures, {"lows": lows, "fallbacks": fallbacks}


def assert_identical_decisions(polling, event):
    """Same readings, same qualities, same counts; instants within 1 µs."""
    assert len(polling["lows"]) == len(event["lows"]), (
        f"signal-low streams diverged: {len(polling['lows'])} vs "
        f"{len(event['lows'])}")
    for (p_node, p_count, p_quality, p_t), (e_node, e_count, e_quality,
                                            e_t) in zip(polling["lows"],
                                                        event["lows"]):
        assert (p_node, p_count, p_quality) == (e_node, e_count, e_quality)
        assert abs(p_t - e_t) < 1e-6, f"reading drifted: {p_t} vs {e_t}"
    assert len(polling["fallbacks"]) == len(event["fallbacks"])
    for (p_node, p_t), (e_node, e_t) in zip(polling["fallbacks"],
                                            event["fallbacks"]):
        assert p_node == e_node
        assert abs(p_t - e_t) < 1e-6


def write_snapshot(n_nodes, polling, event, path=SNAPSHOT_PATH):
    """Persist the comparison for cross-PR perf tracking."""
    payload = {
        "nodes": n_nodes,
        "duration_s": DURATION_S,
        "walker_fraction": WALKER_FRACTION,
        "polling": polling,
        "event_driven": event,
        "wakeup_reduction": round(
            polling["monitor_wakeups"] / max(1, event["monitor_wakeups"]),
            2),
        "kernel_event_reduction": round(
            polling["kernel_events"] / max(1, event["kernel_events"]), 2),
    }
    return write_bench_snapshot(
        "event_handover", payload, path, n=n_nodes, repeats=1,
        headline=[("event-driven handover beats polling: monitor-wakeup "
                   "reduction", ["wakeup_reduction"])])


def test_event_driven_monitoring_beats_polling():
    polling_figures, polling_stream = run_mode(False, FARM_N)
    event_figures, event_stream = run_mode(True, FARM_N)
    snapshot = write_snapshot(FARM_N, polling_figures, event_figures)
    print_table(
        f"Handover monitoring at N={FARM_N}: polling vs event-driven",
        ["mode", "monitor wakeups", "kernel events", "signal lows",
         "bus scheduled/fired", "wall s"],
        [["polling", polling_figures["monitor_wakeups"],
          polling_figures["kernel_events"], polling_figures["signal_lows"],
          "-", polling_figures["wall_s"]],
         ["event", event_figures["monitor_wakeups"],
          event_figures["kernel_events"], event_figures["signal_lows"],
          (f"{event_figures['bus']['scheduled']}/"
           f"{event_figures['bus']['fired']}"),
          event_figures["wall_s"]]])

    # Identical handover decisions (the polling oracle agrees 1:1).
    assert_identical_decisions(polling_stream, event_stream)
    assert polling_figures["signal_lows"] > 0, "farm produced no action"
    assert polling_figures["reconnection_unavailable"] > 0

    # The acceptance gate: >= 5x fewer monitor wakeups, event-driven.
    reduction = snapshot["wakeup_reduction"]
    assert reduction >= 5.0, (
        f"event-driven monitor wakeup reduction below 5x: {snapshot}")
    assert (event_figures["kernel_events"]
            < polling_figures["kernel_events"])

    # Satellite: the bus counters are exposed and moved during the run.
    bus = event_figures["bus"]
    assert bus["scheduled"] > 0
    assert bus["fired"] > 0
    assert bus["cancelled"] > 0   # thread.stop() cancels pending sleeps
    assert SNAPSHOT_PATH.exists()

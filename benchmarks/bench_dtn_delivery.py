"""DTN delivery gates: routing-baseline ordering + forwarder wakeups.

Backs the PR 4 store-carry-forward data plane (:mod:`repro.dtn`).  Two
gates, both written into ``BENCH_dtn_delivery.json`` at the repo root:

1. **Routing ordering** — the bundled ``dtn_sweep`` spec runs through
   the experiment runner (once with 1 worker, once with 2; the JSONL
   and CSV bytes must match — the determinism contract extends to DTN
   sweeps), and epidemic routing must beat direct-delivery on delivery
   ratio in *every* run of the grid.  The comparison is paired: each
   run replays identical mobility and identical injections under each
   router, so the ordering is structural, not statistical.
2. **Wakeup reduction** — an island-hopping ferry world at ``N``
   islanders (default 500, ``BENCH_DTN_N`` shrinks it in CI) runs the
   same epidemic workload under the event-driven
   :class:`~repro.dtn.forwarder.DtnOverlay` (wakes only at scheduled
   contact events) and under the 1 s
   :class:`~repro.dtn.forwarder.PollingDtnOverlay` oracle (every node's
   forwarder wakes every second).  The event-driven forwarder must take
   **≥ 5× fewer wakeups**, and it must deliver at least every bundle
   the polling oracle delivered (polling can only *miss* contacts
   shorter than its interval, never see extra ones).

Both modes also record two work counters the regression gate holds
against the committed baseline: ``cascade_visits``, the exchanges run
(a cascade visits no contact of a node whose news ledger says no
contact lacks one of its bundles), and ``offer_passes``, the router
offer passes they made, one per exchange.
"""

import os
import pathlib
import time

from ledger import write_bench_snapshot
from repro.dtn import DtnOverlay, PollingDtnOverlay, make_router
from repro.dtn.forwarder import POLL_INTERVAL_S
from repro.dtn.traffic import generate_traffic, schedule_traffic
from repro.experiments.campaign import run_campaign
from repro.experiments.specs import get_spec
from repro.metrics.tables import print_table
from repro.scenarios import island_hopping_ferry


SNAPSHOT_PATH = (pathlib.Path(__file__).resolve().parent.parent
                 / "BENCH_dtn_delivery.json")

#: Islander count for the wakeup gate; CI shrinks it via the environment.
FARM_N = int(os.environ.get("BENCH_DTN_N", "500"))
#: Simulated time per mode, seconds (covers ~4 ferry cycles).
DURATION_S = 480.0
#: Messages injected (uniform pattern over all islanders + ferry).
MESSAGE_COUNT = 40


def run_sweep(tmp_dir: pathlib.Path):
    """Execute dtn_sweep at 1 and 2 workers; returns (records, rows)."""
    spec = get_spec("dtn_sweep")
    outputs = {}
    for workers in (1, 2):
        result = run_campaign(spec, tmp_dir / f"w{workers}",
                              workers=workers)
        outputs[workers] = (result.jsonl_path.read_bytes(),
                            result.csv_path.read_bytes(), result.records)
    assert outputs[1][0] == outputs[2][0], (
        "dtn_sweep runs.jsonl differs between 1 and 2 workers")
    assert outputs[1][1] == outputs[2][1], (
        "dtn_sweep summary.csv differs between 1 and 2 workers")
    return outputs[1][2]


def run_farm(event_driven: bool, n_nodes: int):
    """One epidemic run over the ferry world; returns the figures."""
    started = time.perf_counter()
    scenario = island_hopping_ferry(count=n_nodes, seed=23)
    cls = DtnOverlay if event_driven else PollingDtnOverlay
    plane = cls(scenario.world, make_router("epidemic"),
                meter=scenario.meter)
    injections = generate_traffic(
        scenario.sim.rng("dtn/traffic"), plane.live_nodes(), "uniform",
        MESSAGE_COUNT, window=(10.0, DURATION_S / 2.0), ttl_s=300.0)
    schedule_traffic(plane, injections)
    scenario.run(until=DURATION_S)
    if event_driven:
        plane.detach()
    else:
        plane.stop()
    return {
        "mode": "event" if event_driven else "polling",
        "wakeups": plane.wakeups,
        "offer_passes": plane.offer_passes,
        "cascade_visits": plane.cascade_visits,
        "kernel_events": scenario.sim.events_processed,
        "delivered_ids": sorted(plane.delivered),
        "delivery_ratio": round(plane.delivery_ratio(), 4),
        "transmissions": plane.counters.transmissions,
        "bus": scenario.world.stats.bus.as_dict(),
        "wall_s": round(time.perf_counter() - started, 3),
    }


def write_snapshot(records, polling, event, path=SNAPSHOT_PATH):
    """Persist both gates for cross-PR perf tracking."""
    ratios = {
        "direct": [r["metrics"]["direct_delivery_ratio"]
                   for r in records],
        "epidemic": [r["metrics"]["epidemic_delivery_ratio"]
                     for r in records],
        "spray": [r["metrics"]["spray_delivery_ratio"]
                  for r in records],
    }
    payload = {
        "sweep": {
            "runs": len(records),
            "mean_delivery_ratio": {
                name: round(sum(values) / len(values), 4)
                for name, values in ratios.items()},
        },
        "farm_nodes": FARM_N,
        "duration_s": DURATION_S,
        "poll_interval_s": POLL_INTERVAL_S,
        "polling": {k: v for k, v in polling.items()
                    if k != "delivered_ids"},
        "event_driven": {k: v for k, v in event.items()
                         if k != "delivered_ids"},
        "wakeup_reduction": round(
            polling["wakeups"] / max(1, event["wakeups"]), 2),
    }
    return write_bench_snapshot(
        "dtn_delivery", payload, path, n=FARM_N,
        repeats=max(r["repeat"] for r in records) + 1,
        headline=[("event-driven DTN forwarder beats polling: "
                   "forwarder-wakeup reduction", ["wakeup_reduction"]),
                  ("epidemic beats direct delivery: mean delivery ratio",
                   ["sweep.mean_delivery_ratio.epidemic",
                    "sweep.mean_delivery_ratio.direct"])])


def test_dtn_delivery_gates(tmp_path):
    records = run_sweep(tmp_path)

    # Gate 1: epidemic beats direct-delivery in every paired run.
    for record in records:
        metrics = record["metrics"]
        assert (metrics["epidemic_delivery_ratio"]
                > metrics["direct_delivery_ratio"]), (
            f"epidemic did not beat direct in {record['scenario']} "
            f"{record['params']} rep{record['repeat']}: {metrics}")
        # Spray's bounded copies must not exceed epidemic's flood.
        assert (metrics["spray_transmissions"]
                <= metrics["epidemic_transmissions"])

    polling = run_farm(event_driven=False, n_nodes=FARM_N)
    event = run_farm(event_driven=True, n_nodes=FARM_N)
    snapshot = write_snapshot(records, polling, event)

    print_table(
        f"DTN forwarder at N={FARM_N}: polling oracle vs event-driven",
        ["mode", "wakeups", "kernel events", "delivered",
         "transmissions", "wall s"],
        [[figures["mode"], figures["wakeups"], figures["kernel_events"],
          len(figures["delivered_ids"]), figures["transmissions"],
          figures["wall_s"]] for figures in (polling, event)])
    print_table(
        "dtn_sweep mean delivery ratio by router",
        ["router", "mean ratio"],
        [[name, value] for name, value in sorted(
            snapshot["sweep"]["mean_delivery_ratio"].items())])

    # Gate 2: >= 5x fewer forwarder wakeups, event-driven.
    assert snapshot["wakeup_reduction"] >= 5.0, (
        f"event-driven wakeup reduction below 5x: {snapshot}")
    # Sanity: the farm exercised real delivery, and the event-driven
    # forwarder saw at least every contact the 1 s oracle saw.
    assert event["delivery_ratio"] > 0.0
    assert set(event["delivered_ids"]) >= set(polling["delivered_ids"])
    assert SNAPSHOT_PATH.exists()

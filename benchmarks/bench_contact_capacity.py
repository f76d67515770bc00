"""Contact-capacity gates: PRoPHET vs epidemic under tight bandwidth.

Backs the bandwidth-limited contact data plane (:mod:`repro.dtn.
capacity`).  Three gates, all written into
``BENCH_contact_capacity.json`` at the repo root:

1. **Router ordering under constraint** — the bundled
   ``bandwidth_sweep`` spec runs through the experiment runner (once
   with 1 worker, once with 2; JSONL and CSV bytes must match), and
   PRoPHET must match or beat epidemic on delivery ratio in **every**
   run of the grid.  The comparison is paired (identical mobility and
   injections per router), so the ordering is structural: epidemic
   spends scarce window bytes flooding unproductive copies — most
   visibly bus → villager relays that can never advance a bundle —
   while PRoPHET's GRTR rule refuses them.
2. **The constraint binds** — every epidemic run in the sweep must
   report ``transfers_truncated > 0``: the byte budgets actually cut
   transfers, this is not an infinite-bandwidth rerun.
3. **Capacity only hurts** — a rural-bus farm at ``N`` villagers
   (default 120, ``BENCH_CAP_N`` shrinks it in CI) runs identical
   epidemic workloads under the bandwidth-limited plane at a
   constrained 24 kB/s and under the PR 4 infinite-bandwidth overlay;
   the constrained run must deliver no more than the infinite one and
   must truncate transfers, while the infinite run keeps the plane's
   established delivery behaviour.  The constrained run also records
   two work counters the regression gate holds: ``pump_passes``
   (transfer-schedule passes; only idle sessions are pumped) and
   ``solver_segments`` (mobility segments the contact solver pulled).
"""

import os
import pathlib
import time

from repro.analysis.snapshots import write_bench_snapshot
from repro.dtn import BandwidthDtnOverlay, DtnOverlay, make_router
from repro.dtn.traffic import generate_traffic, schedule_traffic
from repro.experiments.campaign import run_campaign
from repro.experiments.specs import get_spec
from repro.scenarios import rural_bus_dtn

from paperbench import print_table

SNAPSHOT_PATH = (pathlib.Path(__file__).resolve().parent.parent
                 / "BENCH_contact_capacity.json")

#: Villager count for the capacity farm; CI shrinks it via env.
FARM_N = int(os.environ.get("BENCH_CAP_N", "120"))
#: Constrained effective data rate for the farm, bytes/second.
FARM_RATE_BPS = 24_000.0
#: Simulated time per farm mode, seconds (~4 bus cycles + drain).
DURATION_S = 600.0
#: Messages injected (uniform pattern over villagers + bus).
MESSAGE_COUNT = 40
#: Bundle payload, bytes (the §6 picture-migration scale).
SIZE_BYTES = 200_000


def run_sweep(tmp_dir: pathlib.Path):
    """Execute bandwidth_sweep at 1 and 2 workers; returns the records."""
    spec = get_spec("bandwidth_sweep")
    outputs = {}
    for workers in (1, 2):
        result = run_campaign(spec, tmp_dir / f"w{workers}",
                              workers=workers)
        outputs[workers] = (result.jsonl_path.read_bytes(),
                            result.csv_path.read_bytes(), result.records)
    assert outputs[1][0] == outputs[2][0], (
        "bandwidth_sweep runs.jsonl differs between 1 and 2 workers")
    assert outputs[1][1] == outputs[2][1], (
        "bandwidth_sweep summary.csv differs between 1 and 2 workers")
    return outputs[1][2]


def run_farm(constrained: bool, n_nodes: int):
    """One epidemic run over the rural-bus farm; returns the figures."""
    started = time.perf_counter()
    scenario = rural_bus_dtn(count=n_nodes, seed=31)
    router = make_router("epidemic")
    if constrained:
        plane = BandwidthDtnOverlay(scenario.world, router,
                                    meter=scenario.meter,
                                    data_rate_Bps=FARM_RATE_BPS)
    else:
        plane = DtnOverlay(scenario.world, router, meter=scenario.meter)
    injections = generate_traffic(
        scenario.sim.rng("dtn/traffic"), plane.live_nodes(), "uniform",
        MESSAGE_COUNT, window=(120.0, DURATION_S / 2.0),
        size_bytes=SIZE_BYTES, ttl_s=480.0)
    schedule_traffic(plane, injections)
    scenario.run(until=DURATION_S)
    plane.detach()
    counters = plane.counters
    figures = {
        "mode": "constrained" if constrained else "infinite",
        "delivery_ratio": round(plane.delivery_ratio(), 4),
        "delivered_ids": sorted(plane.delivered),
        "transmissions": counters.transmissions,
        "bytes_transferred": counters.bytes_transferred,
        "transfers_truncated": counters.transfers_truncated,
        "wakeups": plane.wakeups,
        "kernel_events": scenario.sim.events_processed,
        "wall_s": round(time.perf_counter() - started, 3),
    }
    if constrained:
        # Work counters: pump passes and mobility segments the contact
        # solver pulled (a solve stops pulling at its first flip).
        figures["pump_passes"] = plane.pump_passes
        figures["solver_segments"] = scenario.world.contacts.segments
    return figures


def write_snapshot(records, constrained, infinite, path=SNAPSHOT_PATH):
    """Persist all gates for cross-PR perf tracking."""
    routers = ("epidemic", "spray", "prophet")
    per_run = [{
        "scenario": record["scenario"],
        "params": record["params"],
        "repeat": record["repeat"],
        **{name: record["metrics"][f"{name}_delivery_ratio"]
           for name in routers},
        "epidemic_truncated":
            record["metrics"]["epidemic_transfers_truncated"],
    } for record in records]
    payload = {
        "sweep": {
            "runs": len(records),
            "per_run": per_run,
            "mean_delivery_ratio": {
                name: round(sum(r[name] for r in per_run)
                            / len(per_run), 4)
                for name in routers},
            "prophet_beats_epidemic_in_every_run": all(
                r["prophet"] >= r["epidemic"] for r in per_run),
        },
        "farm_nodes": FARM_N,
        "farm_rate_Bps": FARM_RATE_BPS,
        "duration_s": DURATION_S,
        "constrained": {k: v for k, v in constrained.items()
                        if k != "delivered_ids"},
        "infinite": {k: v for k, v in infinite.items()
                     if k != "delivered_ids"},
    }
    return write_bench_snapshot(
        "contact_capacity", payload, path, n=FARM_N,
        repeats=max(r["repeat"] for r in records) + 1)


def test_contact_capacity_gates(tmp_path):
    records = run_sweep(tmp_path)

    for record in records:
        metrics = record["metrics"]
        label = (f"{record['scenario']} {record['params']} "
                 f"rep{record['repeat']}")
        # Gate 1: PRoPHET >= epidemic on delivery ratio, per run.
        assert (metrics["prophet_delivery_ratio"]
                >= metrics["epidemic_delivery_ratio"]), (
            f"prophet lost to epidemic in {label}: {metrics}")
        # Gate 2: the byte budgets actually cut transfers.
        assert metrics["epidemic_transfers_truncated"] > 0, (
            f"no truncation in {label} — the sweep is unconstrained")
        # PRoPHET's selectivity must not cost extra transmissions.
        assert (metrics["prophet_transmissions"]
                <= metrics["epidemic_transmissions"])

    constrained = run_farm(constrained=True, n_nodes=FARM_N)
    infinite = run_farm(constrained=False, n_nodes=FARM_N)
    snapshot = write_snapshot(records, constrained, infinite)

    print_table(
        f"rural-bus farm at N={FARM_N}: constrained (24 kB/s) vs "
        f"infinite bandwidth",
        ["mode", "delivery", "transmissions", "bytes moved",
         "truncated", "wall s"],
        [[f["mode"], f["delivery_ratio"], f["transmissions"],
          f["bytes_transferred"], f["transfers_truncated"], f["wall_s"]]
         for f in (constrained, infinite)])
    print_table(
        "bandwidth_sweep mean delivery ratio by router",
        ["router", "mean ratio"],
        [[name, value] for name, value in sorted(
            snapshot["sweep"]["mean_delivery_ratio"].items())])

    # Gate 3: capacity only hurts, and the constraint binds at scale.
    assert (constrained["delivery_ratio"]
            <= infinite["delivery_ratio"]), snapshot
    assert constrained["transfers_truncated"] > 0
    assert set(constrained["delivered_ids"]) <= set(
        infinite["delivered_ids"])
    assert infinite["delivery_ratio"] > 0.0
    assert SNAPSHOT_PATH.exists()

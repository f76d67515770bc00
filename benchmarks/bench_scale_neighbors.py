"""Scale — grid-backed neighbor discovery vs the O(N²) pairwise baseline.

Not a paper artifact: this benchmark backs the ROADMAP's production-scale
goal.  Its runs are defined by the bundled ``scale_sweep`` spec (the
``scale_neighbors`` workload: full discovery rounds over the dense-plaza
scenario at growing N and constant crowd density, grid vs brute force
compared on distance computations — with identical neighbor sets
asserted inside the workload for every node and round) and executed
through the experiment runner.

After the grid sweep, a short PeerHood run (100 pedestrians on a plaza
at the ``plaza_discovery`` perf density, 180 sim-s) counts the
discovery work: responses folded, ``NeighbourEntry`` rows the storages
built for them, and entries folded.  Rows follow storage changes, not
responses, so a lost snapshot cache shows up as a jump in
``snapshot_rows``.

Besides the asserted table, the run writes ``BENCH_scale_neighbors.json``
at the repo root — a machine-readable snapshot of distance-check counts
and discovery work counters (deterministic) and wall-clock per round
(from the runner's timing side channel) so the perf trajectory is
tracked across PRs.
"""

import math
import pathlib
from unittest import mock

from repro.analysis.snapshots import write_bench_snapshot
from repro.core.device_storage import DeviceStorage
from repro.experiments import get_spec, run_campaign
from repro.scenarios import dense_plaza
from paperbench import print_table

SNAPSHOT_PATH = (pathlib.Path(__file__).resolve().parent.parent
                 / "BENCH_scale_neighbors.json")

#: The ``plaza_discovery`` perf workload's crowd: city_day's density
#: (people per square metre), 100 pedestrians, 180 simulated seconds.
PLAZA_DENSITY = 500.0 / (120.0 * 120.0)
PLAZA_COUNT = 100
PLAZA_SECONDS = 180.0


def run_scale_sweep(out_dir):
    """Execute the declarative sweep into a fresh ``out_dir`` (so every
    cell runs and carries timings); returns result rows."""
    rows = []
    for result in run_campaign(get_spec("scale_sweep"), out_dir).results:
        metrics = result.record["metrics"]
        rows.append({
            "n": metrics["nodes"],
            "grid_checks": metrics["grid_checks"],
            "brute_checks": metrics["brute_checks"],
            "grid_ms": result.timings["grid_ms"],
            "brute_ms": result.timings["brute_ms"],
            "wall_s": result.timings["wall_s"],
        })
    return rows


def run_plaza_discovery(seed=1):
    """Discovery work counters of one plaza run, summed over daemons."""
    scenario = dense_plaza(
        count=PLAZA_COUNT, area=math.sqrt(PLAZA_COUNT / PLAZA_DENSITY),
        seed=seed)
    folds = {"responses": 0, "entries_folded": 0}
    fold = DeviceStorage.analyze_neighbourhood

    def counted_fold(storage, reporter, entries, now):
        folds["responses"] += 1
        folds["entries_folded"] += len(entries)
        return fold(storage, reporter, entries, now)

    with mock.patch.object(DeviceStorage, "analyze_neighbourhood",
                           counted_fold):
        scenario.start_all()
        scenario.run(until=PLAZA_SECONDS)
    return {
        "responses": folds["responses"],
        "snapshot_rows": sum(node.daemon.storage.snapshot_rows
                             for node in scenario.nodes.values()),
        "entries_folded": folds["entries_folded"],
    }


def write_snapshot(results, discovery, path=SNAPSHOT_PATH):
    """Persist the perf snapshot for cross-PR trajectory tracking."""
    payload = {
        "discovery": discovery,
        "spec": "scale_sweep",
        "rows": [
            {
                "n": row["n"],
                "grid_distance_checks_per_round": row["grid_checks"],
                "brute_distance_checks_per_round": row["brute_checks"],
                "reduction": round(
                    row["brute_checks"] / max(1, row["grid_checks"]), 2),
                "grid_ms_per_round": round(row["grid_ms"], 3),
                "brute_ms_per_round": round(row["brute_ms"], 3),
                "run_wall_s": round(row["wall_s"], 3),
            }
            for row in results
        ],
    }
    write_bench_snapshot("scale_neighbors", payload, path,
                         n=results[-1]["n"], repeats=1)
    return path


def test_scale_grid_discovery_beats_pairwise(benchmark, tmp_path):
    results = benchmark.pedantic(run_scale_sweep, args=(tmp_path,),
                                 rounds=1, iterations=1,
                                 warmup_rounds=0)
    discovery = run_plaza_discovery()
    write_snapshot(results, discovery)
    rows = []
    for row in results:
        ratio = row["brute_checks"] / max(1, row["grid_checks"])
        rows.append([
            row["n"],
            row["grid_checks"], row["brute_checks"], f"{ratio:.1f}x",
            f"{row['grid_ms']:.2f}", f"{row['brute_ms']:.2f}",
        ])
    print_table(
        "Scale: discovery round, spatial grid vs pairwise baseline",
        ["N", "grid dist-checks/round", "pairwise dist-checks/round",
         "reduction", "grid ms/round", "pairwise ms/round"],
        rows)
    print_table(
        f"Discovery work: {PLAZA_COUNT}-node plaza, {PLAZA_SECONDS:g} sim-s",
        ["responses", "snapshot rows built", "entries folded"],
        [[discovery["responses"], discovery["snapshot_rows"],
          discovery["entries_folded"]]])
    # Responses between two storage changes share one snapshot, so
    # fewer rows are built than entries folded.
    assert discovery["snapshot_rows"] < discovery["entries_folded"]
    # Acceptance: at N=500 the grid does >= 5x fewer distance
    # computations per discovery round (identical neighbor sets are
    # asserted inside the workload for every node and round).
    largest = results[-1]
    assert largest["n"] == 500
    assert largest["brute_checks"] >= 5 * largest["grid_checks"], (
        f"grid reduction below 5x: {largest}")
    # The advantage must grow with N (the whole point of the index).
    ratios = [r["brute_checks"] / max(1, r["grid_checks"]) for r in results]
    assert ratios == sorted(ratios), f"reduction not monotone in N: {ratios}"
    benchmark.extra_info["reduction_at_500"] = round(ratios[-1], 1)
    benchmark.extra_info["rows"] = [
        {k: v for k, v in row.items() if k != "wall_s"} for row in results]

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
discovery work: responses folded, rows in the snapshots the storages
built for them (``snapshot_rows``), the rows actually rebuilt for those
snapshots (``rows_built``; an unchanged device reuses its last row),
entries folded, and the ``RouteMetrics`` the folds built
(``routes_built``; a losing candidate is ranked from its raw figures
and never built).  Rows follow storage changes, not responses, so a
lost snapshot cache shows up as a jump in ``snapshot_rows``, a lost row
cache as a jump in ``rows_built``.

Besides the asserted table, the run writes ``BENCH_scale_neighbors.json``
at the repo root — a machine-readable snapshot of distance-check counts
and discovery work counters (deterministic) and wall-clock per round
(from the runner's timing side channel) so the perf trajectory is
tracked across PRs.
"""

import math
import pathlib
from unittest import mock

from ledger import write_bench_snapshot
from repro.core.device_storage import DeviceStorage
from repro.experiments import get_spec, run_campaign
from repro.metrics.tables import print_table
from repro.scenarios import dense_plaza
from repro.scenarios.large_scale import CITY_DENSITY_PER_M2

SNAPSHOT_PATH = (pathlib.Path(__file__).resolve().parent.parent
                 / "BENCH_scale_neighbors.json")

#: The ``plaza_discovery`` perf workload's crowd: 100 pedestrians at
#: city_day's density, 180 simulated seconds.
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
        count=PLAZA_COUNT, area=math.sqrt(PLAZA_COUNT / CITY_DENSITY_PER_M2),
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
    storages = [node.daemon.storage for node in scenario.nodes.values()]
    return {
        "responses": folds["responses"],
        "snapshot_rows": sum(s.snapshot_rows for s in storages),
        "rows_built": sum(s.rows_built for s in storages),
        "entries_folded": folds["entries_folded"],
        "routes_built": sum(s.routes_built for s in storages),
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
    write_bench_snapshot(
        "scale_neighbors", payload, path, n=results[-1]["n"], repeats=1,
        headline=[("spatial grid beats O(N²) discovery: distance-check "
                   "reduction at top N",
                   [f"rows.{len(results) - 1}.reduction"])])
    return path


def test_scale_grid_discovery_beats_pairwise(tmp_path):
    results = run_scale_sweep(tmp_path)
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
        ["responses", "snapshot rows", "rows rebuilt", "entries folded",
         "routes built"],
        [[discovery["responses"], discovery["snapshot_rows"],
          discovery["rows_built"], discovery["entries_folded"],
          discovery["routes_built"]]])
    # Responses between two storage changes share one snapshot, so
    # fewer snapshot rows are built than entries folded; a snapshot
    # reuses every unchanged device's row; and a fold builds a route
    # only for a new device or a changed or winning route.
    assert discovery["snapshot_rows"] < discovery["entries_folded"]
    assert discovery["rows_built"] < discovery["snapshot_rows"]
    assert discovery["routes_built"] < discovery["entries_folded"]
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

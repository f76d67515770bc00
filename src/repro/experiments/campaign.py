"""Resumable, memoized campaign execution over dispatch backends.

:func:`run_campaign` is the one way to execute an
:class:`~repro.experiments.spec.ExperimentSpec`: it expands the grid,
runs the cells through a dispatch backend and writes byte-identical
``runs.jsonl`` + ``summary.csv``.  A content-addressed cache
(:mod:`~repro.experiments.cache`, ``<out_dir>/cache`` by default) holds
every finished cell, so an interrupted sweep resumes at cell
granularity and a re-run — or a *grown* re-run — computes only cells
never finished before.

Execution protocol, per cell (key = :func:`~repro.experiments.cache.
point_key`):

1. **cache hit** — the cache holds the key: adopt the entry, execute
   nothing.
2. **execute** — dispatch the cell through the backend; on completion
   ``put`` the entry in the cache (atomic, before the next cell is
   consumed); on workload failure record it in the stats and keep
   going — one poisoned cell costs one cell, never the sweep.

Only after every cell resolves are ``runs.jsonl`` and ``summary.csv``
written, in grid order, from the accumulated records.  Because records
are pure functions of their cells and the grid order is deterministic,
the final bytes are identical whether the campaign ran once, was
interrupted and resumed five times, or was served entirely from cache —
the worker-count byte-identity contract extended across interruptions
and cache states (``tests/test_campaign.py`` proves it differentially).

Crash semantics follow from the cache's atomic ``put`` (temp file +
``os.replace``): a kill leaves every consumed cell stored, and a torn
entry reads as a miss, so at most one cell's work is lost.  The key
binds the spec version and workload code fingerprint, so an edited
workload never adopts stale cells.  Failures are never stored — failed
cells retry on the next run.

Wall-clock discipline: cache entries, records and ``campaign.json``
stats hold no timestamps; wall-clock rides the in-memory
:attr:`~repro.experiments.runner.RunResult.timings` side channel only,
so every persisted byte is deterministic.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib
import typing

from repro.experiments import report as report_mod
from repro.experiments.cache import CampaignCache, point_key
from repro.experiments.dispatch import DispatchBackend, make_backend
from repro.experiments.runner import (
    RunResult,
    execute_point_outcome,
    write_jsonl,
)
from repro.experiments.spec import ExperimentSpec, RunPoint
from repro.experiments.workloads import workload_fingerprint

#: Events passed to the campaign ``progress`` callback.
ProgressFn = typing.Callable[[dict], None]


@dataclasses.dataclass
class CampaignStats:
    """Deterministic cell accounting (no wall-clock anywhere)."""

    total: int = 0          #: cells in the expanded grid
    executed: int = 0       #: workload calls dispatched this invocation
    cache_hits: int = 0     #: cells adopted from the run cache
    #: one ``{"key", "index", "label", "error"}`` per failed cell
    failures: list[dict] = dataclasses.field(default_factory=list)

    def as_dict(self) -> dict[str, int]:
        """JSON-safe counts (for ``campaign.json`` and BENCH envelopes)."""
        return {
            "total": self.total,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "failures": len(self.failures),
        }


@dataclasses.dataclass(frozen=True)
class CampaignResult:
    """A finished (or failed-but-complete) campaign."""

    results: list[RunResult]        #: successful cells, grid order
    stats: CampaignStats
    jsonl_path: pathlib.Path
    csv_path: pathlib.Path

    @property
    def records(self) -> list[dict]:
        return [result.record for result in self.results]


class CampaignError(RuntimeError):
    """Raised after a campaign finishes with failed cells.

    Loud by contract, lossless by construction: every other cell's
    result is already cached and written to ``runs.jsonl`` before this
    raises — re-running the campaign retries only the failed cells.
    ``result`` carries the partial :class:`CampaignResult`.
    """

    def __init__(self, result: CampaignResult):
        self.result = result
        failures = result.stats.failures
        preview = "; ".join(
            f"{f['label']}: {f['error']}" for f in failures[:3])
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        super().__init__(
            f"{len(failures)} of {result.stats.total} cells failed: "
            f"{preview}{more}")


# ----------------------------------------------------------------------
# the campaign loop
# ----------------------------------------------------------------------
def _adopt(entry: dict, point: RunPoint) -> RunResult:
    """Rebuild a RunResult from a stored entry, re-stamped to ``point``.

    Stored entries are position-independent; the grid index is the one
    positional field, so a cell adopted into a *grown* grid (where its
    index moved) gets ``record["run"]`` and the telemetry rows' ``run``
    tags re-stamped here.  Timings are empty — nothing was measured.
    """
    record = dict(entry["record"])
    record["run"] = point.index
    rows = [{**row, "run": point.index}
            for row in entry.get("telemetry", [])]
    return RunResult(record=record, timings={}, telemetry=rows)


def run_campaign(spec: ExperimentSpec,
                 out_dir: str | pathlib.Path, *,
                 workers: int = 1,
                 backend: DispatchBackend | None = None,
                 cache_dir: str | pathlib.Path | None = None,
                 telemetry: bool = False,
                 progress: ProgressFn | None = None) -> CampaignResult:
    """Execute ``spec`` durably; see the module docstring for protocol.

    ``backend`` defaults to :func:`~repro.experiments.dispatch.
    make_backend` for ``workers``.  ``cache_dir`` defaults to
    ``<out_dir>/cache``, so re-running into the same ``out_dir``
    resumes; share one directory across campaigns so grown sweeps only
    compute new cells.  ``progress`` receives one dict per resolved
    cell — ``{"done", "total", "source", "record"}`` with source
    ``"cache" | "run" | "failure"`` — strictly presentation-side.

    Raises :class:`CampaignError` (after writing all output) if any
    cell failed; propagates ``BaseException`` from the backend
    (interruption) with every consumed cell already cached for resume.
    """
    out_dir = pathlib.Path(out_dir)
    if backend is None:
        backend = make_backend(workers)
    cache = CampaignCache(out_dir / "cache" if cache_dir is None
                          else cache_dir)

    points = spec.expand()
    fingerprint = workload_fingerprint(spec.workload)
    extras = {"telemetry": True} if telemetry else None
    keys = [point_key(point, fingerprint, version=spec.version,
                      extras=extras) for point in points]

    stats = CampaignStats(total=len(points))
    outcomes: dict[int, RunResult] = {}
    done = 0

    def emit(source: str, record: dict | None) -> None:
        if progress is not None:
            progress({"done": done, "total": stats.total,
                      "source": source, "record": record})

    pending: list[tuple[RunPoint, str]] = []
    for point, key in zip(points, keys):
        entry = cache.get(key)
        if entry is None:
            pending.append((point, key))
            continue
        outcomes[point.index] = _adopt(entry, point)
        stats.cache_hits += 1
        done += 1
        emit("cache", outcomes[point.index].record)

    execute = functools.partial(execute_point_outcome,
                                telemetry=telemetry)
    payloads = [point.as_dict() for point, _ in pending]
    for (point, key), outcome in zip(
            pending, backend.dispatch(execute, payloads)):
        stats.executed += 1
        done += 1
        if outcome["ok"]:
            cache.put(key, {"record": outcome["record"],
                            "telemetry": outcome["telemetry"]})
            outcomes[point.index] = RunResult(
                record=outcome["record"],
                timings=outcome["timings"],
                telemetry=outcome["telemetry"])
            emit("run", outcome["record"])
        else:
            stats.failures.append({
                "key": key, "index": point.index,
                "label": point.label(), "error": outcome["error"]})
            emit("failure", None)

    # Every cell resolved (some possibly as failures): write the final
    # artifacts in grid order.  Deterministic bytes by construction.
    results = [outcomes[index] for index in sorted(outcomes)]
    records = [result.record for result in results]
    jsonl_path = write_jsonl(records, out_dir / "runs.jsonl")
    rows = report_mod.aggregate(records)
    csv_path = report_mod.write_csv(rows, out_dir / "summary.csv")
    stats_path = out_dir / "campaign.json"
    stats_path.write_text(
        json.dumps(stats.as_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")

    result = CampaignResult(
        results=results, stats=stats, jsonl_path=jsonl_path,
        csv_path=csv_path)
    if stats.failures:
        raise CampaignError(result)
    return result

"""Per-cell execution and the JSONL/telemetry sinks.

Each :class:`~repro.experiments.spec.RunPoint` is executed by
:func:`execute_point_outcome` — a module-level function taking and
returning plain dicts, so it crosses process boundaries untouched.
*Where* cells run is the :mod:`~repro.experiments.dispatch` backend's
business, and :func:`~repro.experiments.campaign.run_campaign` is the
one loop that drives it.

Determinism: a run's result depends only on its :class:`RunPoint` (the
seed is derived from the run's label, not its schedule), results are
collected in grid order (backends preserve input order), and records
are serialised with sorted keys — so JSONL and aggregate output are
byte-identical for 1 and N workers.  Wall-clock measurements never
enter records; they ride the :attr:`RunResult.timings` side channel.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time
import typing

from repro.experiments.spec import RunPoint
from repro.experiments.workloads import get_workload
from repro.obs import runtime as obs_runtime


@dataclasses.dataclass(frozen=True)
class RunResult:
    """One finished run: the deterministic record + side channels."""

    record: dict[str, object]    #: JSON-safe, deterministic result row
    timings: dict[str, float]    #: wall-clock info (never serialised)
    #: Telemetry rows recorded during the run (empty unless the spec ran
    #: with ``telemetry=True``).  Deterministic — rows carry sim times
    #: and event counts only; the profiler's wall-clock attribution is
    #: folded into :attr:`timings` instead.
    telemetry: list[dict[str, object]] = dataclasses.field(
        default_factory=list)


def execute_point_outcome(point_dict: dict,
                          telemetry: bool = False) -> dict:
    """Execute one run; the unit of work shipped to worker processes.

    Returns ``{"ok": True, "record", "timings", "telemetry"}`` on
    success.  A workload's reserved ``"timings"`` metric is stripped
    into the timing side channel along with the measured ``wall_s``,
    keeping the record deterministic.

    A raised workload exception costs *one cell*, not the sweep: it
    comes back as ``{"ok": False, "error": repr(exc), "error_type",
    "timings"}``, its wall-clock still on the side channel (a poisoned
    cell that burned ten minutes should say so).  ``BaseException``
    (KeyboardInterrupt, SystemExit) propagates — interruption is crash
    semantics, handled by the campaign's cache, not a per-cell failure.

    With ``telemetry=True`` a :class:`~repro.obs.runtime.TelemetryContext`
    is active around the workload call, so every scenario the workload
    builds adopts a passive recorder.  The collected rows come back
    tagged with the run's grid index; recorded metrics are unchanged by
    construction (recorders only observe — asserted in
    ``tests/test_obs.py``).
    """
    started = time.perf_counter()
    context = None
    try:
        point = RunPoint.from_dict(point_dict)
        if telemetry:
            context = obs_runtime.activate(obs_runtime.TelemetryContext())
        metrics = dict(get_workload(point.workload)(point))
    except Exception as exc:
        return {"ok": False, "error": repr(exc),
                "error_type": type(exc).__name__,
                "timings": {"wall_s": time.perf_counter() - started}}
    finally:
        if context is not None:
            obs_runtime.deactivate()
    timings = {"wall_s": time.perf_counter() - started}
    extra = metrics.pop("timings", None)
    if extra:
        timings.update(extra)
    telemetry_rows: list[dict[str, object]] = []
    if context is not None:
        rows, profile_timings = context.collect()
        telemetry_rows = [{"run": point.index, **row} for row in rows]
        timings.update(profile_timings)
    record = {
        "spec": point.spec,
        "workload": point.workload,
        "run": point.index,
        "scenario": point.scenario,
        "params": point.params,
        "repeat": point.repeat,
        "seed": point.seed,
        "metrics": metrics,
    }
    return {"ok": True, "record": record, "timings": timings,
            "telemetry": telemetry_rows}


# ----------------------------------------------------------------------
# JSONL sink
# ----------------------------------------------------------------------
def jsonl_line(record: dict) -> str:
    """Canonical single-line rendering of one record."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_jsonl(records: typing.Iterable[dict],
                path: str | pathlib.Path) -> pathlib.Path:
    """Write records (one JSON object per line) deterministically."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as sink:
        for record in records:
            sink.write(jsonl_line(record) + "\n")
    return path


def read_jsonl(path: str | pathlib.Path) -> list[dict]:
    """Read a JSONL result file back into records."""
    records = []
    with open(path, encoding="utf-8") as source:
        for line in source:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# ----------------------------------------------------------------------
# telemetry sinks
# ----------------------------------------------------------------------
def write_telemetry(results: typing.Sequence[RunResult],
                    out_dir: str | pathlib.Path
                    ) -> tuple[pathlib.Path, pathlib.Path]:
    """Write ``telemetry.jsonl`` + ``timeline.csv`` for a finished sweep.

    ``telemetry.jsonl`` holds every recorded row (samples, spans,
    profile counts) in grid order, each tagged with its run index —
    byte-identical at any worker count, same argument as ``runs.jsonl``.
    ``timeline.csv`` is the sample rows only, flattened onto the fixed
    :data:`repro.obs.TIMELINE_FIELDS` column set for spreadsheet/pandas
    consumption.
    """
    from repro.metrics.tables import render_csv
    from repro.obs import TIMELINE_FIELDS

    out_dir = pathlib.Path(out_dir)
    rows = [row for result in results for row in result.telemetry]
    jsonl_path = write_jsonl(rows, out_dir / "telemetry.jsonl")
    headers = ("run", "leg") + TIMELINE_FIELDS
    csv_rows = [[row.get(header) for header in headers]
                for row in rows if row.get("type") == "sample"]
    csv_path = out_dir / "timeline.csv"
    csv_path.write_text(render_csv(headers, csv_rows), encoding="utf-8")
    return jsonl_path, csv_path

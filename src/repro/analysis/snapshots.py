"""Shared ``BENCH_*.json`` envelope + the cross-PR trajectory log.

Before this module each benchmark invented its own snapshot shape; the
only common key was ``"benchmark"``.  Every writer now goes through
:func:`write_bench_snapshot`, which stamps one shared ``envelope``:

``benchmark``
    Stable snapshot name (``"dtn_delivery"``, ``"event_handover"``, …).
``git_sha``
    Short SHA of ``HEAD`` (``"unknown"`` outside a git checkout).
``generated_at``
    UTC timestamp, ISO-8601.  Wall-clock is allowed *here* because a
    snapshot file is a build artifact, not recorded simulation output —
    the determinism contract covers metrics, and the regression gate
    (:mod:`repro.analysis.gates`) skips the envelope entirely.
``n`` / ``repeats``
    The farm size and repeat count the figures were measured at, so a
    small-N CI smoke snapshot is never mistaken for the committed
    full-size one.
``schema``
    Envelope version (bump on incompatible changes).
``campaign`` *(optional)*
    Cell accounting when the figures came from a memoized campaign
    (:class:`repro.experiments.campaign.CampaignStats.as_dict`):
    ``total`` / ``executed`` / ``cache_hits`` / ``failures``.  Deterministic counts, not timings — they record how
    much of the sweep was actually recomputed for this snapshot.

Each write also appends one line to ``BENCH_trajectory.jsonl`` next to
the snapshot: the envelope plus every non-wall numeric leaf of the
payload (flattened to dotted paths).  Appending on *every* bench run is
the point — the log accumulates the perf trajectory across PRs, and the
report's trajectory section reads it back per benchmark.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import subprocess
import typing

ENVELOPE_SCHEMA = 1


def git_sha(cwd: str | pathlib.Path | None = None) -> str:
    """Short SHA of ``HEAD``, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def bench_envelope(benchmark: str, n: int | None = None,
                   repeats: int | None = None,
                   cwd: str | pathlib.Path | None = None,
                   campaign: typing.Mapping[str, int] | None = None
                   ) -> dict[str, object]:
    """The shared snapshot header; see the module docstring for fields.

    ``campaign`` attaches the memoized-campaign cell accounting
    (``CampaignStats.as_dict()``) when the benchmark ran its sweep
    through :func:`repro.experiments.campaign.run_campaign`.
    """
    envelope: dict[str, object] = {
        "schema": ENVELOPE_SCHEMA,
        "benchmark": benchmark,
        "git_sha": git_sha(cwd),
        "generated_at": datetime.datetime.now(
            datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "n": n,
        "repeats": repeats,
    }
    if campaign is not None:
        envelope["campaign"] = dict(campaign)
    return envelope


def write_bench_snapshot(benchmark: str, payload: dict[str, object],
                         path: str | pathlib.Path, *,
                         n: int | None = None, repeats: int | None = None,
                         trajectory_path: str | pathlib.Path | None = None,
                         campaign: typing.Mapping[str, int] | None = None,
                         ) -> dict[str, object]:
    """Write one ``BENCH_*.json`` and append its trajectory line.

    ``payload`` carries the benchmark's figures (tables, gate ratios);
    the shared envelope is added under ``"envelope"`` plus a top-level
    ``"benchmark"`` key for backwards-compatible readers.  ``campaign``
    forwards cache-hit stats into the envelope (see
    :func:`bench_envelope`).  The trajectory line lands in
    ``BENCH_trajectory.jsonl`` beside the snapshot unless
    ``trajectory_path`` overrides it.  Returns the full snapshot dict.
    """
    from repro.analysis.gates import numeric_leaves

    path = pathlib.Path(path)
    snapshot: dict[str, object] = {
        "benchmark": benchmark,
        "envelope": bench_envelope(benchmark, n=n, repeats=repeats,
                                   cwd=path.parent, campaign=campaign),
    }
    snapshot.update(payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    if trajectory_path is None:
        trajectory_path = path.parent / "BENCH_trajectory.jsonl"
    line = dict(snapshot["envelope"])
    line["metrics"] = numeric_leaves(payload)
    with open(trajectory_path, "a", encoding="utf-8", newline="\n") as log:
        log.write(json.dumps(line, sort_keys=True,
                             separators=(",", ":")) + "\n")
    return snapshot


# ----------------------------------------------------------------------
# read side
# ----------------------------------------------------------------------
def load_snapshots(root: str | pathlib.Path,
                   pattern: str = "BENCH_*.json"
                   ) -> dict[str, dict[str, object]]:
    """Every snapshot under ``root`` keyed by benchmark name, sorted.

    Files that fail to parse are skipped (a half-written snapshot must
    not take the whole report down); the trajectory log is excluded by
    the ``.json`` pattern.
    """
    snapshots: dict[str, dict[str, object]] = {}
    for path in sorted(pathlib.Path(root).glob(pattern)):
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(data, dict):
            name = str(data.get("benchmark", path.stem))
            snapshots[name] = data
    return snapshots


def trajectory_entries(path: str | pathlib.Path
                       ) -> list[dict[str, object]]:
    """Parse ``BENCH_trajectory.jsonl`` (missing file → empty list)."""
    path = pathlib.Path(path)
    if not path.exists():
        return []
    entries: list[dict[str, object]] = []
    with open(path, encoding="utf-8") as log:
        for line in log:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict):
                entries.append(entry)
    return entries


def trajectory_by_benchmark(entries: typing.Iterable[dict[str, object]]
                            ) -> dict[str, list[dict[str, object]]]:
    """Group trajectory lines by benchmark, preserving append order."""
    grouped: dict[str, list[dict[str, object]]] = {}
    for entry in entries:
        grouped.setdefault(str(entry.get("benchmark", "?")), []).append(entry)
    return grouped

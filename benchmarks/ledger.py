"""The benchmark ledger: write, gate and render ``BENCH_*.json`` snapshots.

Every bench in this directory writes its figures through
:func:`write_bench_snapshot`, which stamps one shared ``envelope``:

``benchmark``
    Stable snapshot name (``"dtn_delivery"``, ``"event_handover"``, …).
``git_sha``
    Short SHA of ``HEAD`` (``"unknown"`` outside a git checkout).
``generated_at``
    UTC timestamp, ISO-8601.  Wall-clock is allowed *here* because a
    snapshot file is a build artifact, not recorded simulation output;
    the gate skips the envelope entirely.
``n`` / ``repeats``
    The farm size and repeat count the figures were measured at.  The
    gate refuses to compare snapshots measured at different sizes.
``schema``
    Envelope version (bump on incompatible changes).
``campaign`` *(optional)*
    Cell accounting when the figures came from a memoized campaign
    (``CampaignStats.as_dict()``): deterministic counts of how much of
    the sweep was actually recomputed for this snapshot.
``headline`` *(optional)*
    The bench's headline claims: ``{"claim": text, "metrics": [dotted
    metric paths]}`` rows, which the report's claims table and
    trajectory table read.  The ledger itself knows no bench's layout.

Each write also appends one line to ``BENCH_trajectory.jsonl`` beside
the snapshot: the envelope (without ``headline``) plus every non-wall
numeric leaf of the payload, flattened to dotted paths.  The log
accumulates the perf trajectory across commits.

Two commands, both read-only over the simulator::

    python benchmarks/ledger.py gate --baseline results/bench_baseline
    python benchmarks/ledger.py report     # -> results/report/REPORT.md

The gate compares every benchmark present in both directories.  Any
drift fails (exit 1): the simulations are deterministic per seed, so
at equal size every metric matches its baseline exactly, and a band
would only hide moves.  A change that moves a metric on purpose
re-baselines it and names the cause.  Wall-clock leaves (keys containing ``wall``, ``_ms``, ``ms_``) and the
envelope are skipped; metrics new in the fresh snapshot are fine, but a
vanished metric fails.  Snapshots measured at another ``n`` or
``repeats`` than their baseline, or an empty intersection, exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import pathlib
import subprocess
import sys
import typing

ENVELOPE_SCHEMA = 1

#: Key substrings whose subtrees/leaves are excluded from comparison.
SKIP_KEY_SUBSTRINGS = ("wall", "_ms", "ms_")
SKIP_KEYS = ("envelope", "generated_at", "git_sha", "timestamp")


def _utc_now() -> str:
    return datetime.datetime.now(
        datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


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


# ----------------------------------------------------------------------
# write side
# ----------------------------------------------------------------------
def bench_envelope(benchmark: str, n: int | None = None,
                   repeats: int | None = None,
                   cwd: str | pathlib.Path | None = None,
                   campaign: typing.Mapping[str, int] | None = None,
                   headline: typing.Sequence[
                       tuple[str, typing.Sequence[str]]] = (),
                   ) -> dict[str, object]:
    """The shared snapshot header; see the module docstring for fields."""
    envelope: dict[str, object] = {
        "schema": ENVELOPE_SCHEMA,
        "benchmark": benchmark,
        "git_sha": git_sha(cwd),
        "generated_at": _utc_now(),
        "n": n,
        "repeats": repeats,
    }
    if campaign is not None:
        envelope["campaign"] = dict(campaign)
    if headline:
        envelope["headline"] = [{"claim": claim, "metrics": list(metrics)}
                                for claim, metrics in headline]
    return envelope


def write_bench_snapshot(benchmark: str, payload: dict[str, object],
                         path: str | pathlib.Path, *,
                         n: int | None = None, repeats: int | None = None,
                         trajectory_path: str | pathlib.Path | None = None,
                         campaign: typing.Mapping[str, int] | None = None,
                         headline: typing.Sequence[
                             tuple[str, typing.Sequence[str]]] = (),
                         ) -> dict[str, object]:
    """Write one ``BENCH_*.json`` and append its trajectory line.

    ``payload`` carries the benchmark's figures; the envelope goes under
    ``"envelope"`` plus a top-level ``"benchmark"`` key.  ``headline``
    lists ``(claim, metric paths)`` pairs for the report.  The
    trajectory line lands in ``BENCH_trajectory.jsonl`` beside the
    snapshot unless ``trajectory_path`` overrides it.  Returns the full
    snapshot dict.
    """
    path = pathlib.Path(path)
    snapshot: dict[str, object] = {
        "benchmark": benchmark,
        "envelope": bench_envelope(benchmark, n=n, repeats=repeats,
                                   cwd=path.parent, campaign=campaign,
                                   headline=headline),
    }
    snapshot.update(payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    if trajectory_path is None:
        trajectory_path = path.parent / "BENCH_trajectory.jsonl"
    line = {key: value for key, value in snapshot["envelope"].items()
            if key != "headline"}
    line["metrics"] = numeric_leaves(payload)
    with open(trajectory_path, "a", encoding="utf-8", newline="\n") as log:
        log.write(json.dumps(line, sort_keys=True,
                             separators=(",", ":")) + "\n")
    return snapshot


# ----------------------------------------------------------------------
# read side
# ----------------------------------------------------------------------
def load_snapshots(root: str | pathlib.Path
                   ) -> dict[str, dict[str, object]]:
    """Every ``BENCH_*.json`` under ``root`` keyed by benchmark name.

    Files that fail to parse are skipped (a half-written snapshot must
    not take the whole report down); the trajectory log is excluded by
    the ``.json`` pattern.
    """
    snapshots: dict[str, dict[str, object]] = {}
    for path in sorted(pathlib.Path(root).glob("BENCH_*.json")):
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(data, dict):
            snapshots[str(data.get("benchmark", path.stem))] = data
    return snapshots


def _jsonl_dicts(path: pathlib.Path) -> list[dict[str, object]]:
    """The dict rows of a JSONL file; blank and broken lines skipped."""
    rows: list[dict[str, object]] = []
    with open(path, encoding="utf-8") as source:
        for line in source:
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(row, dict):
                rows.append(row)
    return rows


def trajectory_entries(path: str | pathlib.Path
                       ) -> list[dict[str, object]]:
    """Parse ``BENCH_trajectory.jsonl`` (missing file → empty list)."""
    path = pathlib.Path(path)
    return _jsonl_dicts(path) if path.exists() else []


def trajectory_by_benchmark(entries: typing.Iterable[dict[str, object]]
                            ) -> dict[str, list[dict[str, object]]]:
    """Group trajectory lines by benchmark, preserving append order."""
    grouped: dict[str, list[dict[str, object]]] = {}
    for entry in entries:
        grouped.setdefault(str(entry.get("benchmark", "?")), []).append(entry)
    return grouped


def numeric_leaves(obj: object, prefix: str = "") -> dict[str, float]:
    """Flatten every numeric leaf to a dotted path → value mapping.

    Booleans count as 0/1 (gate flags like
    ``prophet_beats_epidemic_in_every_run`` must not silently flip);
    strings and ``None`` are ignored; wall-clock and envelope keys are
    skipped.
    """
    leaves: dict[str, float] = {}
    if isinstance(obj, dict):
        items = ((str(key), value) for key, value in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((str(index), value) for index, value in enumerate(obj))
    else:
        if isinstance(obj, (bool, int, float)):
            leaves[prefix] = float(obj)
        return leaves
    for key, value in items:
        if key in SKIP_KEYS or any(mark in key
                                   for mark in SKIP_KEY_SUBSTRINGS):
            continue
        leaves.update(numeric_leaves(value, f"{prefix}.{key}" if prefix
                                     else key))
    return leaves


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class GateFailure:
    """One metric that differs from its baseline (or is missing)."""

    benchmark: str
    metric: str
    baseline: float | None
    fresh: float | None
    rel_delta: float | None          #: None when the metric vanished

    def describe(self) -> str:
        if self.fresh is None:
            return (f"{self.benchmark}: {self.metric} vanished "
                    f"(baseline {self.baseline:g})")
        return (f"{self.benchmark}: {self.metric} drifted "
                f"{self.rel_delta:+.1%} ({self.baseline:g} -> "
                f"{self.fresh:g})")


class SizeMismatch(ValueError):
    """A fresh snapshot was measured at another ``n``/``repeats`` than
    its baseline, so its figures cannot be compared."""


def compare_snapshots(benchmark: str, baseline: dict,
                      fresh: dict) -> list[GateFailure]:
    """Gate one fresh snapshot against its baseline: every shared
    metric must equal it.

    A failure reports the relative delta
    ``(fresh - baseline) / max(|baseline|, 1e-9)``.
    """
    fresh_leaves = numeric_leaves(fresh)
    failures: list[GateFailure] = []
    for metric, base_value in sorted(numeric_leaves(baseline).items()):
        if metric not in fresh_leaves:
            failures.append(GateFailure(benchmark, metric, base_value,
                                        None, None))
            continue
        fresh_value = fresh_leaves[metric]
        if fresh_value != base_value:
            rel = (fresh_value - base_value) / max(abs(base_value), 1e-9)
            failures.append(GateFailure(benchmark, metric, base_value,
                                        fresh_value, rel))
    return failures


def _size(snapshot: dict) -> str:
    envelope = snapshot.get("envelope")
    if not isinstance(envelope, dict):
        envelope = {}
    return f"N={envelope.get('n')} repeats={envelope.get('repeats')}"


def gate_directories(baseline_dir: str | pathlib.Path,
                     fresh_dir: str | pathlib.Path
                     ) -> tuple[list[GateFailure], list[str]]:
    """Gate every benchmark present in *both* directories.

    Returns ``(failures, compared_benchmark_names)``.  A baseline with
    no fresh counterpart is skipped (a smoke run may not run every
    bench); an empty intersection returns ``([], [])``.  Raises
    :class:`SizeMismatch` naming both sizes when any shared benchmark
    was measured at another size than its baseline.
    """
    baselines = load_snapshots(baseline_dir)
    fresh = load_snapshots(fresh_dir)
    compared = sorted(set(baselines) & set(fresh))
    unlike = [f"{name}: fresh {_size(fresh[name])}, baseline "
              f"{_size(baselines[name])}" for name in compared
              if _size(fresh[name]) != _size(baselines[name])]
    if unlike:
        raise SizeMismatch("\n".join(unlike))
    failures: list[GateFailure] = []
    for name in compared:
        failures.extend(compare_snapshots(name, baselines[name],
                                          fresh[name]))
    return failures, compared


def format_failures(failures: typing.Sequence[GateFailure]) -> str:
    """Human-readable failure list, one line per metric."""
    return "\n".join(failure.describe() for failure in failures)


def gate(baseline_dir: str, fresh_dir: str) -> int:
    """The ``gate`` command: 0 pass, 1 drift, 2 nothing comparable."""
    try:
        failures, compared = gate_directories(baseline_dir, fresh_dir)
    except SizeMismatch as unlike:
        print(f"gate refused: snapshots measured at other sizes than "
              f"their baselines in {baseline_dir}:\n{unlike}\n"
              "Run the benches at the baseline sizes first.",
              file=sys.stderr)
        return 2
    if not compared:
        print(f"gate compared nothing: no benchmark present in both "
              f"{baseline_dir} and {fresh_dir}", file=sys.stderr)
        return 2
    print(f"gated {len(compared)} benchmark(s) at equality: "
          + ", ".join(compared))
    if failures:
        print(f"\n{len(failures)} metric(s) differ from the baseline:\n"
              + format_failures(failures) + "\n\nIf the drift is "
              "intended, regenerate the baseline snapshots and commit "
              "them with the change.", file=sys.stderr)
        return 1
    print("all shared metrics equal their baselines")
    return 0


# ----------------------------------------------------------------------
# the report (GitHub-flavoured markdown)
# ----------------------------------------------------------------------
def _cell(value: object) -> str:
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return (str(int(value)) if value.is_integer()
                else f"{round(value, 4):g}")
    return str(value)


def _table(headers: typing.Sequence[str],
           rows: typing.Iterable[typing.Sequence[object]]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join(" --- " for _ in headers) + "|"]
    lines.extend("| " + " | ".join(_cell(cell) for cell in row) + " |"
                 for row in rows)
    return "\n".join(lines)


def _headline(snapshot: dict) -> list[dict]:
    envelope = snapshot.get("envelope")
    rows = envelope.get("headline") if isinstance(envelope, dict) else None
    return rows if isinstance(rows, list) else []


def _claim_rows(snapshots: dict[str, dict]) -> list[list[object]]:
    """One row per headline claim whose every metric is present (a
    half-empty claim is no claim)."""
    rows: list[list[object]] = []
    for name, snapshot in sorted(snapshots.items()):
        leaves = numeric_leaves(snapshot)
        for claim in _headline(snapshot):
            values = [leaves.get(path) for path in claim["metrics"]]
            if values and None not in values:
                rows.append([claim["claim"], " vs ".join(claim["metrics"]),
                             " vs ".join(map(_cell, values)), name])
    return rows


def _envelope_line(snapshot: dict) -> str:
    envelope = snapshot.get("envelope")
    if not isinstance(envelope, dict):
        return "no envelope (pre-pipeline snapshot)"
    bits = [f"git {envelope.get('git_sha', '?')}",
            f"generated {envelope.get('generated_at', '?')}"]
    bits.extend(f"{label}={envelope[key]}" for key, label in
                (("n", "N"), ("repeats", "repeats"))
                if envelope.get(key) is not None)
    return ", ".join(bits)


def _sweep_section(sweep_dir: pathlib.Path) -> list[str]:
    """One sweep's ``runs.jsonl`` as mean pivots + the full aggregate."""
    jsonl_path = sweep_dir / "runs.jsonl"
    if not jsonl_path.exists():
        return []
    from repro.experiments import report as exp_report
    from repro.experiments import runner as exp_runner
    records = exp_runner.read_jsonl(jsonl_path)
    rows = exp_report.aggregate(records)
    parts = [f"### sweep: {sweep_dir.name}",
             f"{len(records)} runs in {jsonl_path.as_posix()}, "
             f"{len(rows)} configurations."]
    # One row per configuration, one column per *_delivery_ratio mean:
    # the delivery-vs-rate view of DTN and fault sweeps.
    ratios = sorted({metric for row in rows for metric in row.metrics
                     if metric.endswith("delivery_ratio")})
    if ratios:
        parts.append(_table(
            ["scenario", "params", "runs"] + [
                m.replace("_delivery_ratio", "") + " mean"
                for m in ratios],
            [[row.scenario, row.params_json, row.runs] + [
                row.metrics[m].mean if m in row.metrics else None
                for m in ratios] for row in rows]))
    parts.append("```\n" + exp_report.aggregate_table(
        f"{sweep_dir.name}: full aggregate (mean ± CI95 per metric)",
        rows).rstrip("\n") + "\n```")
    return parts


def _telemetry_section(sweep_dirs: typing.Sequence[pathlib.Path]
                       ) -> list[str]:
    parts: list[str] = []
    for sweep_dir in sweep_dirs:
        path = sweep_dir / "telemetry.jsonl"
        if not path.exists():
            continue
        counts: dict[str, int] = {}
        for row in _jsonl_dicts(path):
            kind = str(row.get("type", "?"))
            if kind == "span":
                kind = f"span/{row.get('kind', '?')}"
            counts[kind] = counts.get(kind, 0) + 1
        if counts:
            parts += [f"{path.as_posix()}: recorded rows by type.",
                      _table(["row type", "rows"], sorted(counts.items()))]
    return ["## Telemetry"] + parts if parts else []


def _trajectory_section(path: pathlib.Path,
                        snapshots: dict[str, dict]) -> list[str]:
    grouped = trajectory_by_benchmark(trajectory_entries(path))
    if not grouped:
        return []
    rows: list[list[object]] = []
    for benchmark in sorted(grouped):
        claims = _headline(snapshots.get(benchmark, {}))
        metric = claims[0]["metrics"][0] if claims else None
        for entry in grouped[benchmark][-5:]:
            metrics = entry.get("metrics")
            value = (metrics.get(metric)
                     if isinstance(metrics, dict) and metric else None)
            rows.append([benchmark, entry.get("git_sha"),
                         entry.get("generated_at"), entry.get("n"),
                         metric, value])
    return ["## Perf trajectory",
            f"Appended on every bench run ({path.name}); last 5 entries "
            "per benchmark, newest last.  The headline metric is the "
            "first one its snapshot names.",
            _table(["benchmark", "git", "generated", "N",
                    "headline metric", "value"], rows)]


def build_report(root: str | pathlib.Path = ".",
                 sweep_dirs: typing.Sequence[str | pathlib.Path] | None
                 = None) -> str:
    """The full markdown report for the repo at ``root``.

    ``sweep_dirs`` defaults to every ``results/*/`` directory under
    ``root``; those holding a ``runs.jsonl`` render as sweeps.
    """
    root = pathlib.Path(root)
    if sweep_dirs is None:
        results = root / "results"
        dirs = (sorted(d for d in results.iterdir() if d.is_dir())
                if results.is_dir() else [])
    else:
        dirs = [pathlib.Path(d) for d in sweep_dirs]
    snapshots = load_snapshots(root)

    parts = ["# Reproduction results & perf report",
             f"Rendered at {_utc_now()} from git {git_sha(root)}. "
             "Sources: committed BENCH_*.json snapshots, sweep "
             "runs.jsonl files, BENCH_trajectory.jsonl."]
    claims = _claim_rows(snapshots)
    if claims:
        parts += ["## Headline claims",
                  _table(["claim", "metric", "measured", "benchmark"],
                         claims)]
    parts.append("## Benchmark snapshots")
    if not snapshots:
        parts.append("No BENCH_*.json snapshots found.")
    for name, snapshot in sorted(snapshots.items()):
        parts += [f"### {name}", _envelope_line(snapshot)]
        leaves = numeric_leaves(snapshot)
        if leaves:
            parts.append(_table(["metric", "value"], sorted(leaves.items())))
    parts.append("## Sweep results")
    sweeps = [part for sweep_dir in dirs
              for part in _sweep_section(sweep_dir)]
    parts += sweeps or ["No sweep runs.jsonl found under results/."]
    parts += _telemetry_section(dirs)
    parts += _trajectory_section(root / "BENCH_trajectory.jsonl", snapshots)
    return "\n\n".join(parts) + "\n"


def write_report(markdown: str, out_dir: str | pathlib.Path
                 ) -> pathlib.Path:
    """Write ``REPORT.md`` under ``out_dir``; returns its path."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    md_path = out_dir / "REPORT.md"
    md_path.write_text(markdown, encoding="utf-8")
    return md_path


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/ledger.py",
        description="Gate BENCH_*.json snapshots or render the report.")
    commands = parser.add_subparsers(dest="command", required=True)
    report_parser = commands.add_parser(
        "report", help="render BENCH_*.json + sweeps to REPORT.md")
    report_parser.add_argument("--root", default=".",
                               help="repo root holding BENCH_*.json "
                                    "and results/ (default .)")
    report_parser.add_argument("--out", default="results/report",
                               help="output directory for REPORT.md "
                                    "(default results/report)")
    report_parser.add_argument("--sweep", action="append", default=[],
                               help="sweep directory containing "
                                    "runs.jsonl (repeatable; default: "
                                    "every results/* directory)")
    gate_parser = commands.add_parser(
        "gate", help="fail when a fresh snapshot's metric differs from "
                     "its baseline")
    gate_parser.add_argument("--baseline", required=True,
                             help="directory of committed baseline "
                                  "BENCH_*.json snapshots")
    gate_parser.add_argument("--fresh", default=".",
                             help="directory of freshly measured "
                                  "snapshots (default .)")
    args = parser.parse_args(argv)
    if args.command == "gate":
        return gate(args.baseline, args.fresh)
    md_path = write_report(
        build_report(args.root, sweep_dirs=args.sweep or None), args.out)
    print(f"wrote {md_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

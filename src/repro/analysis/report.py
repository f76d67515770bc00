"""Render bench snapshots + sweep results into one versioned report.

``python -m repro.analysis report`` builds a :class:`Document` — a tiny
format-neutral block model (headings, paragraphs, tables, preformatted
text) rendered to both GitHub-flavoured markdown and standalone HTML —
from four source kinds:

* every ``BENCH_*.json`` snapshot at the root (benchmark-specific
  sections: delivery tables, wakeup/byte breakdowns, plus a generic
  metric dump so unknown snapshots still render);
* a **paper-comparison table** assembling the stack's headline claims
  (grid reduction, wakeup reductions, PRoPHET vs epidemic, fault
  degradation) from whichever snapshots are present;
* each sweep directory's ``runs.jsonl``, folded through the experiment
  aggregator (:mod:`repro.experiments.report`) into mean±CI pivots —
  the committed ``results/fault_sweep/`` is the worked example;
* the ``BENCH_trajectory.jsonl`` log, summarised per benchmark so the
  perf trajectory across PRs is visible in the report itself.

The report is *versioned*: its header records the git SHA and UTC
timestamp it was rendered at.  Rendering is pure read-side work — no
simulator import, no RNG, safe to run anywhere.
"""

from __future__ import annotations

import datetime
import html
import json
import pathlib
import typing

from repro.analysis.gates import numeric_leaves
from repro.analysis.snapshots import (git_sha, load_snapshots,
                                      trajectory_by_benchmark,
                                      trajectory_entries)

Cell = object
Rows = typing.Sequence[typing.Sequence[Cell]]

_HTML_STYLE = """\
body { font-family: sans-serif; max-width: 72rem; margin: 2rem auto;
       padding: 0 1rem; color: #1a1a1a; }
table { border-collapse: collapse; margin: 1rem 0; }
th, td { border: 1px solid #bbb; padding: 0.25rem 0.6rem;
         text-align: left; }
th { background: #f0f0f0; }
pre { background: #f6f6f6; padding: 0.75rem; overflow-x: auto; }
h1, h2, h3 { line-height: 1.2; }
"""


class Document:
    """Ordered blocks rendered to markdown or HTML.

    Blocks are plain tuples so tests can assert on structure without
    parsing either output format.
    """

    def __init__(self, title: str) -> None:
        self.title = title
        self.blocks: list[tuple] = [("heading", 1, title)]

    def heading(self, level: int, text: str) -> None:
        self.blocks.append(("heading", level, text))

    def paragraph(self, text: str) -> None:
        self.blocks.append(("paragraph", text))

    def table(self, headers: typing.Sequence[str], rows: Rows) -> None:
        self.blocks.append(("table", tuple(headers),
                            tuple(tuple(row) for row in rows)))

    def preformatted(self, text: str) -> None:
        self.blocks.append(("pre", text))

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    @staticmethod
    def _cell(value: Cell) -> str:
        if value is None:
            return "—"
        if isinstance(value, float):
            return f"{value:g}"
        return str(value)

    def to_markdown(self) -> str:
        out: list[str] = []
        for block in self.blocks:
            if block[0] == "heading":
                _, level, text = block
                out.append("#" * level + " " + text)
            elif block[0] == "paragraph":
                out.append(block[1])
            elif block[0] == "table":
                _, headers, rows = block
                lines = ["| " + " | ".join(headers) + " |",
                         "|" + "|".join(" --- " for _ in headers) + "|"]
                lines.extend("| " + " | ".join(
                    self._cell(cell) for cell in row) + " |"
                    for row in rows)
                out.append("\n".join(lines))
            elif block[0] == "pre":
                out.append("```\n" + block[1].rstrip("\n") + "\n```")
        return "\n\n".join(out) + "\n"

    def to_html(self) -> str:
        out: list[str] = [
            "<!DOCTYPE html>", "<html><head>",
            '<meta charset="utf-8">',
            f"<title>{html.escape(self.title)}</title>",
            f"<style>{_HTML_STYLE}</style>",
            "</head><body>"]
        for block in self.blocks:
            if block[0] == "heading":
                _, level, text = block
                out.append(f"<h{level}>{html.escape(text)}</h{level}>")
            elif block[0] == "paragraph":
                out.append(f"<p>{html.escape(block[1])}</p>")
            elif block[0] == "table":
                _, headers, rows = block
                parts = ["<table>", "<tr>"]
                parts.extend(f"<th>{html.escape(str(h))}</th>"
                             for h in headers)
                parts.append("</tr>")
                for row in rows:
                    parts.append("<tr>")
                    parts.extend(
                        f"<td>{html.escape(self._cell(cell))}</td>"
                        for cell in row)
                    parts.append("</tr>")
                parts.append("</table>")
                out.append("".join(parts))
            elif block[0] == "pre":
                out.append(f"<pre>{html.escape(block[1])}</pre>")
        out.append("</body></html>")
        return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# snapshot sections
# ----------------------------------------------------------------------
def _fmt(value: object, digits: int = 4) -> object:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return round(value, digits)
    return value


def _envelope_line(snapshot: dict) -> str:
    envelope = snapshot.get("envelope")
    if not isinstance(envelope, dict):
        return "no envelope (pre-pipeline snapshot)"
    bits = [f"git {envelope.get('git_sha', '?')}",
            f"generated {envelope.get('generated_at', '?')}"]
    if envelope.get("n") is not None:
        bits.append(f"N={envelope['n']}")
    if envelope.get("repeats") is not None:
        bits.append(f"repeats={envelope['repeats']}")
    return ", ".join(bits)


def _section_scale(doc: Document, snap: dict) -> None:
    rows = snap.get("rows")
    if not isinstance(rows, list):
        return
    doc.table(
        ["N", "grid checks/round", "brute checks/round", "reduction",
         "grid ms/round", "brute ms/round"],
        [[r.get("n"), r.get("grid_distance_checks_per_round"),
          r.get("brute_distance_checks_per_round"), r.get("reduction"),
          r.get("grid_ms_per_round"), r.get("brute_ms_per_round")]
         for r in rows if isinstance(r, dict)])


def _polling_vs_event(doc: Document, snap: dict,
                      reduction_keys: typing.Sequence[str]) -> None:
    polling = snap.get("polling")
    event = snap.get("event_driven")
    if isinstance(polling, dict) and isinstance(event, dict):
        keys = sorted(k for k in set(polling) & set(event)
                      if isinstance(polling.get(k), (int, float))
                      and not isinstance(polling.get(k), bool))
        doc.table(["metric", "polling", "event-driven"],
                  [[k, _fmt(polling[k]), _fmt(event[k])] for k in keys])
    reductions = [[k, _fmt(snap[k])] for k in reduction_keys if k in snap]
    if reductions:
        doc.table(["reduction gate", "measured"], reductions)


def _section_dtn(doc: Document, snap: dict) -> None:
    sweep = snap.get("sweep")
    if isinstance(sweep, dict) and isinstance(
            sweep.get("mean_delivery_ratio"), dict):
        doc.table(["router", "mean delivery ratio"],
                  [[name, _fmt(value)] for name, value in sorted(
                      sweep["mean_delivery_ratio"].items())])
    _polling_vs_event(doc, snap, ["wakeup_reduction"])


def _section_event(doc: Document, snap: dict) -> None:
    _polling_vs_event(doc, snap,
                      ["wakeup_reduction", "kernel_event_reduction"])


def _section_capacity(doc: Document, snap: dict) -> None:
    sweep = snap.get("sweep")
    if isinstance(sweep, dict):
        if isinstance(sweep.get("mean_delivery_ratio"), dict):
            doc.table(["router", "mean delivery ratio (budgeted)"],
                      [[name, _fmt(value)] for name, value in sorted(
                          sweep["mean_delivery_ratio"].items())])
        flag = sweep.get("prophet_beats_epidemic_in_every_run")
        if flag is not None:
            doc.paragraph(
                f"PRoPHET ≥ epidemic in every run: {_fmt(bool(flag))}.")
    constrained = snap.get("constrained")
    infinite = snap.get("infinite")
    if isinstance(constrained, dict) and isinstance(infinite, dict):
        keys = sorted(k for k in set(constrained) & set(infinite)
                      if isinstance(constrained.get(k), (int, float))
                      and not isinstance(constrained.get(k), bool))
        doc.table(["metric", "budgeted contacts", "infinite contacts"],
                  [[k, _fmt(constrained[k]), _fmt(infinite[k])]
                   for k in keys])


def _section_fault(doc: Document, snap: dict) -> None:
    means = snap.get("mean_delivery_ratio")
    if isinstance(means, dict):
        # {router: {rate: ratio}} — pivot to rate rows × router columns.
        routers = sorted(means)
        rates: list[str] = sorted(
            {rate for table in means.values()
             if isinstance(table, dict) for rate in table},
            key=lambda r: float(r))
        if rates:
            doc.table(
                ["crash rate"] + routers,
                [[rate] + [_fmt(means[router].get(rate))
                           for router in routers] for rate in rates])
    for key in ("zero_rate", "workers_identical"):
        if key in snap:
            doc.paragraph(f"{key}: {_fmt(snap[key])}")


_SECTION_RENDERERS = {
    "scale_neighbors": _section_scale,
    "dtn_delivery": _section_dtn,
    "event_handover": _section_event,
    "contact_capacity": _section_capacity,
    "fault_tolerance": _section_fault,
}


def _section_generic(doc: Document, snap: dict) -> None:
    leaves = numeric_leaves({k: v for k, v in snap.items()
                             if k not in ("benchmark", "envelope")})
    if leaves:
        doc.table(["metric", "value"],
                  [[name, _fmt(leaves[name])] for name in sorted(leaves)])


def _snapshot_sections(doc: Document, snapshots: dict[str, dict]) -> None:
    doc.heading(2, "Benchmark snapshots")
    if not snapshots:
        doc.paragraph("No BENCH_*.json snapshots found.")
        return
    for name in sorted(snapshots):
        snap = snapshots[name]
        doc.heading(3, name)
        doc.paragraph(_envelope_line(snap))
        renderer = _SECTION_RENDERERS.get(name)
        if renderer is not None:
            renderer(doc, snap)
        else:
            _section_generic(doc, snap)


# ----------------------------------------------------------------------
# paper-comparison table
# ----------------------------------------------------------------------
def _dig(snapshot: dict | None, *path: str) -> object:
    node: object = snapshot
    for key in path:
        if not isinstance(node, dict):
            return None
        node = node.get(key)
    return node


def _comparison_rows(snapshots: dict[str, dict]) -> list[list[object]]:
    scale = snapshots.get("scale_neighbors")
    event = snapshots.get("event_handover")
    dtn = snapshots.get("dtn_delivery")
    capacity = snapshots.get("contact_capacity")
    fault = snapshots.get("fault_tolerance")
    scale_rows = _dig(scale, "rows")
    reduction = None
    if isinstance(scale_rows, list) and scale_rows:
        last = scale_rows[-1]
        if isinstance(last, dict):
            reduction = last.get("reduction")
    rows = [
        ["spatial grid beats O(N²) discovery (PR 1)",
         "distance-check reduction at top N", _fmt(reduction),
         "BENCH_scale_neighbors.json"],
        ["event-driven handover beats polling (PR 3)",
         "monitor-wakeup reduction",
         _fmt(_dig(event, "wakeup_reduction")),
         "BENCH_event_handover.json"],
        ["event-driven DTN forwarder beats polling (PR 4)",
         "forwarder-wakeup reduction",
         _fmt(_dig(dtn, "wakeup_reduction")),
         "BENCH_dtn_delivery.json"],
        ["epidemic beats direct delivery (PR 4)",
         "mean delivery ratio epidemic vs direct",
         _versus(dtn, "epidemic", "direct"),
         "BENCH_dtn_delivery.json"],
        ["PRoPHET beats epidemic under byte budgets (PR 5)",
         "mean delivery ratio prophet vs epidemic",
         _versus(capacity, "prophet", "epidemic"),
         "BENCH_contact_capacity.json"],
        ["redundant routers degrade gracefully under crashes (PR 6)",
         "zero-rate runs byte-identical to fault-free",
         _fmt(_dig(fault, "zero_rate", "identical")),
         "BENCH_fault_tolerance.json"],
    ]
    return [row for row in rows if row[2] is not None]


def _versus(snapshot: dict | None, left: str, right: str) -> str | None:
    """``"<left> vs <right>"`` mean delivery ratios, or None if either
    side is missing (a half-empty claim is no claim)."""
    ratios = [_dig(snapshot, "sweep", "mean_delivery_ratio", router)
              for router in (left, right)]
    if None in ratios:
        return None
    return " vs ".join(str(_fmt(ratio)) for ratio in ratios)


# ----------------------------------------------------------------------
# sweep sections
# ----------------------------------------------------------------------
def _sweep_section(doc: Document, sweep_dir: pathlib.Path) -> bool:
    """Render one sweep's ``runs.jsonl``; returns False when absent."""
    jsonl_path = sweep_dir / "runs.jsonl"
    if not jsonl_path.exists():
        return False
    from repro.experiments import report as exp_report
    from repro.experiments import runner as exp_runner
    records = exp_runner.read_jsonl(jsonl_path)
    rows = exp_report.aggregate(records)
    doc.heading(3, f"sweep: {sweep_dir.name}")
    doc.paragraph(f"{len(records)} runs in {jsonl_path.as_posix()}, "
                  f"{len(rows)} configurations.")
    # Pivot: one row per configuration, one column per *_delivery_ratio
    # metric (mean) — the delivery-vs-rate view for DTN/fault sweeps.
    ratio_metrics = sorted({metric for row in rows
                            for metric in row.metrics
                            if metric.endswith("delivery_ratio")})
    if ratio_metrics:
        doc.table(
            ["scenario", "params", "runs"] + [
                m.replace("_delivery_ratio", "") + " mean"
                for m in ratio_metrics],
            [[row.scenario, row.params_json, row.runs] + [
                _fmt(row.metrics[m].mean) if m in row.metrics else None
                for m in ratio_metrics] for row in rows])
    doc.preformatted(exp_report.aggregate_table(
        f"{sweep_dir.name}: full aggregate (mean ± CI95 per metric)",
        rows))
    return True


def _telemetry_section(doc: Document,
                       sweep_dirs: typing.Sequence[pathlib.Path]) -> None:
    shown = False
    for sweep_dir in sweep_dirs:
        path = sweep_dir / "telemetry.jsonl"
        if not path.exists():
            continue
        counts: dict[str, int] = {}
        with open(path, encoding="utf-8") as source:
            for line in source:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    continue
                kind = str(row.get("type", "?"))
                if kind == "span":
                    kind = f"span/{row.get('kind', '?')}"
                counts[kind] = counts.get(kind, 0) + 1
        if not counts:
            continue
        if not shown:
            doc.heading(2, "Telemetry")
            shown = True
        doc.paragraph(f"{path.as_posix()}: recorded rows by type.")
        doc.table(["row type", "rows"],
                  [[kind, counts[kind]] for kind in sorted(counts)])


# ----------------------------------------------------------------------
# trajectory section
# ----------------------------------------------------------------------
#: The one metric per benchmark the trajectory table tracks.
HEADLINE_METRICS = {
    "scale_neighbors": "rows.2.reduction",
    "event_handover": "wakeup_reduction",
    "dtn_delivery": "wakeup_reduction",
    "contact_capacity": "sweep.mean_delivery_ratio.prophet",
    "fault_tolerance": "mean_delivery_ratio.prophet.0.2",
}


def _trajectory_section(doc: Document, path: pathlib.Path) -> None:
    grouped = trajectory_by_benchmark(trajectory_entries(path))
    if not grouped:
        return
    doc.heading(2, "Perf trajectory")
    doc.paragraph(
        f"Appended on every bench run ({path.name}); last 5 entries per "
        "benchmark, newest last.  The headline metric is "
        "benchmark-specific.")
    rows: list[list[object]] = []
    for benchmark in sorted(grouped):
        headline = HEADLINE_METRICS.get(benchmark)
        for entry in grouped[benchmark][-5:]:
            metrics = entry.get("metrics")
            value = (metrics.get(headline)
                     if isinstance(metrics, dict) and headline else None)
            rows.append([benchmark, entry.get("git_sha"),
                         entry.get("generated_at"), entry.get("n"),
                         headline or "—", _fmt(value)])
    doc.table(["benchmark", "git", "generated", "N",
               "headline metric", "value"], rows)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def build_report(root: str | pathlib.Path = ".",
                 sweep_dirs: typing.Sequence[str | pathlib.Path] | None
                 = None) -> Document:
    """Assemble the full report document from ``root``.

    ``sweep_dirs`` defaults to every ``results/*/`` directory under
    ``root`` that contains a ``runs.jsonl`` (the committed
    ``results/fault_sweep/`` worked example included).
    """
    root = pathlib.Path(root)
    if sweep_dirs is None:
        results = root / "results"
        dirs = (sorted(d for d in results.iterdir() if d.is_dir())
                if results.is_dir() else [])
    else:
        dirs = [pathlib.Path(d) for d in sweep_dirs]
    snapshots = load_snapshots(root)

    doc = Document("Reproduction results & perf report")
    stamp = datetime.datetime.now(
        datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    doc.paragraph(f"Rendered at {stamp} from git {git_sha(root)}. "
                  "Sources: committed BENCH_*.json snapshots, sweep "
                  "runs.jsonl files, BENCH_trajectory.jsonl.")

    comparison = _comparison_rows(snapshots)
    if comparison:
        doc.heading(2, "Headline claims")
        doc.table(["claim", "gate metric", "measured", "source"],
                  comparison)

    _snapshot_sections(doc, snapshots)

    rendered_any = False
    doc.heading(2, "Sweep results")
    for sweep_dir in dirs:
        rendered_any |= _sweep_section(doc, sweep_dir)
    if not rendered_any:
        doc.paragraph("No sweep runs.jsonl found under results/.")

    _telemetry_section(doc, dirs)
    _trajectory_section(doc, root / "BENCH_trajectory.jsonl")
    return doc


def write_report(doc: Document, out_dir: str | pathlib.Path
                 ) -> tuple[pathlib.Path, pathlib.Path]:
    """Write ``REPORT.md`` + ``REPORT.html``; returns both paths."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    md_path = out_dir / "REPORT.md"
    html_path = out_dir / "REPORT.html"
    md_path.write_text(doc.to_markdown(), encoding="utf-8")
    html_path.write_text(doc.to_html(), encoding="utf-8")
    return md_path, html_path

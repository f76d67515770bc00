"""Tests for the results pipeline (:mod:`repro.analysis`).

Covers the shared bench-snapshot envelope, the perf-trajectory ledger,
the numeric-leaf flattener and tolerance-band regression gate, the
dependency-free Document renderer, and — the acceptance criterion —
``build_report`` on the real repo root rendering every committed
``BENCH_*.json`` plus the bundled ``results/fault_sweep`` campaign.
"""

import json
import pathlib

import pytest

from repro.analysis import (
    DEFAULT_TOLERANCE,
    Document,
    bench_envelope,
    build_report,
    compare_snapshots,
    format_failures,
    gate_directories,
    git_sha,
    load_snapshots,
    numeric_leaves,
    trajectory_by_benchmark,
    trajectory_entries,
    write_bench_snapshot,
    write_report,
)
from repro.analysis import cli

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# snapshot envelope + trajectory ledger
# ----------------------------------------------------------------------
def test_envelope_carries_provenance_fields():
    envelope = bench_envelope("demo", n=12, repeats=3, cwd=REPO_ROOT)
    assert envelope["schema"] == 1
    assert envelope["benchmark"] == "demo"
    assert envelope["n"] == 12
    assert envelope["repeats"] == 3
    assert envelope["git_sha"] not in ("", "unknown")
    assert envelope["generated_at"].endswith("Z")


def test_git_sha_degrades_to_unknown_outside_a_repo(tmp_path):
    assert git_sha(cwd=tmp_path) == "unknown"


def test_write_bench_snapshot_and_trajectory_roundtrip(tmp_path):
    path = tmp_path / "BENCH_demo.json"
    payload = {"score": 2.0, "nested": {"hits": 3}, "wall_s": 9.9}
    snapshot = write_bench_snapshot("demo", payload, path, n=7, repeats=2)
    assert snapshot["benchmark"] == "demo"
    assert snapshot["score"] == 2.0
    on_disk = json.loads(path.read_text())
    assert on_disk == snapshot
    assert on_disk["envelope"]["n"] == 7

    # A second write appends a second trajectory line beside it.
    write_bench_snapshot("demo", payload, path, n=7, repeats=2)
    ledger = tmp_path / "BENCH_trajectory.jsonl"
    entries = trajectory_entries(ledger)
    assert len(entries) == 2
    by_bench = trajectory_by_benchmark(entries)
    assert set(by_bench) == {"demo"}
    metrics = entries[0]["metrics"]
    assert metrics["score"] == 2.0
    assert metrics["nested.hits"] == 3.0
    assert "wall_s" not in metrics          # wall-clock never gated

    assert trajectory_entries(tmp_path / "absent.jsonl") == []


def test_load_snapshots_keys_by_benchmark_and_skips_junk(tmp_path):
    write_bench_snapshot("alpha", {"x": 1}, tmp_path / "BENCH_alpha.json")
    (tmp_path / "BENCH_broken.json").write_text("{nope")
    (tmp_path / "unrelated.json").write_text("{}")
    snapshots = load_snapshots(tmp_path)
    assert set(snapshots) == {"alpha"}


# ----------------------------------------------------------------------
# numeric-leaf flattening + the regression gate
# ----------------------------------------------------------------------
def test_numeric_leaves_flattens_and_skips_ungated_keys():
    leaves = numeric_leaves({
        "a": 1, "flag": True,
        "nested": {"b": 2.5, "wall_s": 1.0, "note": "text"},
        "rows": [{"c": 3}, {"c": 4}],
        "envelope": {"n": 9}, "git_sha": "abc", "poll_ms_budget": 7,
    })
    assert leaves == {"a": 1.0, "flag": 1.0, "nested.b": 2.5,
                      "rows.0.c": 3.0, "rows.1.c": 4.0}


def test_compare_snapshots_tolerance_band():
    baseline = {"ratio": 0.80, "count": 100}
    assert compare_snapshots("b", baseline, {"ratio": 0.80, "count": 105}) \
        == []
    # 12% drift on count: outside the 10% band, either direction.
    for fresh_count in (88, 112):
        [failure] = compare_snapshots(
            "b", baseline, {"ratio": 0.80, "count": fresh_count})
        assert failure.metric == "count"
        assert abs(failure.rel_delta) == pytest.approx(0.12)
        assert "b" in failure.describe() and "count" in failure.describe()
    # A custom tolerance widens the band.
    assert compare_snapshots("b", baseline, {"ratio": 0.8, "count": 112},
                             tolerance=0.2) == []
    assert DEFAULT_TOLERANCE == 0.1


def test_compare_snapshots_vanished_vs_new_metrics():
    [failure] = compare_snapshots("b", {"kept": 1, "gone": 2}, {"kept": 1})
    assert failure.metric == "gone"
    assert failure.fresh is None
    # New metrics in fresh output are fine — growth, not regression.
    assert compare_snapshots("b", {"kept": 1}, {"kept": 1, "new": 9}) == []


def _snapshot_dir(tmp_path, name, score):
    root = tmp_path / name
    root.mkdir()
    write_bench_snapshot("demo", {"score": score},
                         root / "BENCH_demo.json",
                         trajectory_path=root / "unused.jsonl")
    return root


def test_gate_directories_passes_and_fails(tmp_path):
    baseline = _snapshot_dir(tmp_path, "baseline", score=10.0)
    matching = _snapshot_dir(tmp_path, "same", score=10.5)
    drifted = _snapshot_dir(tmp_path, "drift", score=13.0)

    failures, compared = gate_directories(baseline, matching)
    assert failures == [] and compared == ["demo"]

    failures, compared = gate_directories(baseline, drifted)
    assert compared == ["demo"]
    assert [f.metric for f in failures] == ["score"]
    assert "demo" in format_failures(failures)

    # Fresh dir missing the benchmark entirely: nothing compared.
    empty = tmp_path / "empty"
    empty.mkdir()
    assert gate_directories(baseline, empty) == ([], [])


def test_gate_cli_exit_codes(tmp_path, capsys):
    baseline = _snapshot_dir(tmp_path, "b", score=10.0)
    good = _snapshot_dir(tmp_path, "g", score=10.2)
    bad = _snapshot_dir(tmp_path, "x", score=20.0)
    empty = tmp_path / "e"
    empty.mkdir()

    assert cli.main(["gate", "--baseline", str(baseline),
                     "--fresh", str(good)]) == 0
    assert cli.main(["gate", "--baseline", str(baseline),
                     "--fresh", str(bad)]) == 1
    assert "regenerate" in capsys.readouterr().err.lower()
    assert cli.main(["gate", "--baseline", str(baseline),
                     "--fresh", str(empty)]) == 2


# ----------------------------------------------------------------------
# document rendering
# ----------------------------------------------------------------------
def test_document_renders_markdown_and_html():
    doc = Document("Demo Report")
    doc.heading(2, "Section")
    doc.paragraph("Some *prose*.")
    doc.table(["name", "value"], [["a", 1], ["b", 2.5]])
    doc.preformatted("raw <text>")
    md = doc.to_markdown()
    assert md.startswith("# Demo Report")
    assert "## Section" in md
    assert "| name | value |" in md
    assert "| --- | --- |" in md
    assert "| a | 1 |" in md and "| b | 2.5 |" in md
    assert "```\nraw <text>\n```" in md
    html = doc.to_html()
    assert "<h1>Demo Report</h1>" in html
    assert "<td>2.5</td>" in html
    assert "raw &lt;text&gt;" in html       # pre blocks are escaped


# ----------------------------------------------------------------------
# build_report on the real repository (the acceptance criterion)
# ----------------------------------------------------------------------
def test_build_report_covers_all_benchmarks_and_the_sweep(tmp_path):
    doc = build_report(root=REPO_ROOT)
    md = doc.to_markdown()
    for benchmark in ("scale_neighbors", "event_handover", "dtn_delivery",
                      "contact_capacity", "fault_tolerance"):
        assert benchmark in md, f"report missing {benchmark} section"
    assert "fault_sweep" in md              # the bundled campaign renders
    assert "Headline claims" in md

    md_path, html_path = write_report(doc, tmp_path)
    assert md_path.read_text(encoding="utf-8") == md
    assert html_path.read_text(encoding="utf-8").startswith("<!DOCTYPE")


@pytest.mark.parametrize("ratios, claim", [
    ({"epidemic": 0.9, "direct": 0.4}, "| 0.9 vs 0.4 |"),
    ({"epidemic": 0.9}, None),             # direct missing: no half row
])
def test_headline_comparison_needs_both_sides(tmp_path, ratios, claim):
    snapshot = {"benchmark": "dtn_delivery", "wakeup_reduction": 3.0,
                "sweep": {"mean_delivery_ratio": ratios}}
    (tmp_path / "BENCH_dtn_delivery.json").write_text(json.dumps(snapshot))
    md = build_report(root=tmp_path).to_markdown()
    assert "forwarder-wakeup reduction" in md
    assert "None" not in md
    if claim is None:
        assert "epidemic vs direct" not in md
    else:
        assert claim in md


def test_report_cli_writes_both_artifacts(tmp_path, capsys):
    out = tmp_path / "report"
    assert cli.main(["report", "--root", str(REPO_ROOT),
                     "--out", str(out)]) == 0
    assert (out / "REPORT.md").exists()
    assert (out / "REPORT.html").exists()
    printed = capsys.readouterr().out
    assert "REPORT.md" in printed

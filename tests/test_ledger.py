"""Tests for the benchmark ledger (``benchmarks/ledger.py``).

Covers the shared bench-snapshot envelope, the perf-trajectory log, the
numeric-leaf flattener and exact regression gate (including
its refusal to compare snapshots measured at different sizes), and
``build_report`` on the real repo root rendering every committed
``BENCH_*.json`` plus the bundled ``results/fault_sweep`` campaign.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_TOOL = REPO_ROOT / "benchmarks" / "ledger.py"
_spec = importlib.util.spec_from_file_location("ledger", _TOOL)
ledger = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("ledger", ledger)   # dataclasses resolve it
_spec.loader.exec_module(ledger)

bench_envelope = ledger.bench_envelope
build_report = ledger.build_report
compare_snapshots = ledger.compare_snapshots
format_failures = ledger.format_failures
gate_directories = ledger.gate_directories
git_sha = ledger.git_sha
load_snapshots = ledger.load_snapshots
numeric_leaves = ledger.numeric_leaves
trajectory_by_benchmark = ledger.trajectory_by_benchmark
trajectory_entries = ledger.trajectory_entries
write_bench_snapshot = ledger.write_bench_snapshot
write_report = ledger.write_report


# ----------------------------------------------------------------------
# snapshot envelope + trajectory log
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
    ledger_log = tmp_path / "BENCH_trajectory.jsonl"
    entries = trajectory_entries(ledger_log)
    assert len(entries) == 2
    by_bench = trajectory_by_benchmark(entries)
    assert set(by_bench) == {"demo"}
    metrics = entries[0]["metrics"]
    assert metrics["score"] == 2.0
    assert metrics["nested.hits"] == 3.0
    assert "wall_s" not in metrics          # wall-clock never gated

    assert trajectory_entries(tmp_path / "absent.jsonl") == []


def test_trajectory_line_keeps_its_format_without_the_headline(tmp_path):
    path = tmp_path / "BENCH_demo.json"
    snapshot = write_bench_snapshot(
        "demo", {"score": 2}, path, n=3, repeats=1,
        headline=[("demo scores", ["score"])])
    assert snapshot["envelope"]["headline"] == [
        {"claim": "demo scores", "metrics": ["score"]}]
    line = (tmp_path / "BENCH_trajectory.jsonl").read_text()
    envelope = {k: v for k, v in snapshot["envelope"].items()
                if k != "headline"}
    assert line == json.dumps({**envelope, "metrics": {"score": 2.0}},
                              sort_keys=True,
                              separators=(",", ":")) + "\n"


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


def test_compare_snapshots_holds_every_metric_at_equality():
    baseline = {"ratio": 0.80, "count": 100}
    assert compare_snapshots("b", baseline, {"ratio": 0.80, "count": 100}) \
        == []
    # Any drift fails, in either direction, however small.
    for fresh_count in (99, 101, 100.001):
        [failure] = compare_snapshots(
            "b", baseline, {"ratio": 0.80, "count": fresh_count})
        assert failure.metric == "count"
        assert failure.rel_delta == pytest.approx((fresh_count - 100) / 100)
        assert "b" in failure.describe() and "count" in failure.describe()
    [failure] = compare_snapshots("b", baseline,
                                  {"ratio": 0.8000001, "count": 100})
    assert failure.metric == "ratio"


def test_compare_snapshots_vanished_vs_new_metrics():
    [failure] = compare_snapshots("b", {"kept": 1, "gone": 2}, {"kept": 1})
    assert failure.metric == "gone"
    assert failure.fresh is None
    # New metrics in fresh output are fine — growth, not regression.
    assert compare_snapshots("b", {"kept": 1}, {"kept": 1, "new": 9}) == []


def _snapshot_dir(tmp_path, name, score, n=None):
    root = tmp_path / name
    root.mkdir()
    write_bench_snapshot("demo", {"score": score},
                         root / "BENCH_demo.json", n=n,
                         trajectory_path=root / "unused.jsonl")
    return root


def test_gate_directories_passes_and_fails(tmp_path):
    baseline = _snapshot_dir(tmp_path, "baseline", score=10.0)
    matching = _snapshot_dir(tmp_path, "same", score=10.0)
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
    good = _snapshot_dir(tmp_path, "g", score=10.0)
    bad = _snapshot_dir(tmp_path, "x", score=10.2)
    empty = tmp_path / "e"
    empty.mkdir()

    assert ledger.main(["gate", "--baseline", str(baseline),
                        "--fresh", str(good)]) == 0
    assert ledger.main(["gate", "--baseline", str(baseline),
                        "--fresh", str(bad)]) == 1
    assert "regenerate" in capsys.readouterr().err.lower()
    assert ledger.main(["gate", "--baseline", str(baseline),
                        "--fresh", str(empty)]) == 2


def test_gate_refuses_snapshots_measured_at_another_size(tmp_path, capsys):
    baseline = _snapshot_dir(tmp_path, "b", score=10.0, n=60)
    full_size = _snapshot_dir(tmp_path, "f", score=30.0, n=500)
    with pytest.raises(ledger.SizeMismatch, match="N=500.*N=60"):
        gate_directories(baseline, full_size)
    assert ledger.main(["gate", "--baseline", str(baseline),
                        "--fresh", str(full_size)]) == 2
    err = capsys.readouterr().err
    assert "fresh N=500 repeats=None, baseline N=60 repeats=None" in err
    assert "drifted" not in err


# ----------------------------------------------------------------------
# build_report on the real repository
# ----------------------------------------------------------------------
def test_build_report_covers_all_benchmarks_and_the_sweep(tmp_path):
    md = build_report(root=REPO_ROOT)
    for benchmark in ("scale_neighbors", "event_handover", "dtn_delivery",
                      "contact_capacity", "fault_tolerance"):
        assert benchmark in md, f"report missing {benchmark} section"
    assert "fault_sweep" in md              # the bundled campaign renders
    assert "Headline claims" in md

    md_path = write_report(md, tmp_path)
    assert md_path.read_text(encoding="utf-8") == md


@pytest.mark.parametrize("ratios, claim", [
    ({"epidemic": 0.9, "direct": 0.4}, "| 0.9 vs 0.4 |"),
    ({"epidemic": 0.9}, None),             # direct missing: no half row
])
def test_headline_comparison_needs_both_sides(tmp_path, ratios, claim):
    write_bench_snapshot(
        "dtn_delivery",
        {"wakeup_reduction": 3.0, "sweep": {"mean_delivery_ratio": ratios}},
        tmp_path / "BENCH_dtn_delivery.json",
        headline=[("forwarder-wakeup reduction", ["wakeup_reduction"]),
                  ("epidemic vs direct delivery",
                   ["sweep.mean_delivery_ratio.epidemic",
                    "sweep.mean_delivery_ratio.direct"])])
    md = build_report(root=tmp_path)
    assert "forwarder-wakeup reduction" in md
    assert "None" not in md
    if claim is None:
        assert "epidemic vs direct" not in md
    else:
        assert claim in md


def test_report_cli_writes_report_md(tmp_path, capsys):
    out = tmp_path / "report"
    assert ledger.main(["report", "--root", str(REPO_ROOT),
                        "--out", str(out)]) == 0
    assert (out / "REPORT.md").exists()
    printed = capsys.readouterr().out
    assert "REPORT.md" in printed

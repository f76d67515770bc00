"""Crash/resume, incrementality and failure-isolation tests for campaigns.

The load-bearing property: a campaign's final ``runs.jsonl`` +
``summary.csv`` bytes depend only on the spec — not on worker count,
not on how many times execution was interrupted and resumed, not on
which cells came from the cache.  These tests prove it differentially:
every interrupted/resumed/grown/cached variant is compared byte-for-
byte against an uninterrupted reference run, and workload calls are
counted through a test-only dispatch wrapper so "resumed execution
performs exactly n−k calls" is an assertion, not a hope.
"""

import json

import pytest

from repro.experiments import ExperimentSpec
from repro.experiments import campaign as campaign_mod
from repro.experiments.cache import CampaignCache, point_key
from repro.experiments.campaign import (
    CampaignError,
    run_campaign,
)
from repro.experiments.dispatch import (
    DispatchBackend,
    SerialBackend,
    make_backend,
)
from repro.experiments.runner import execute_point_outcome
from repro.experiments.workloads import (
    register_workload,
    workload_fingerprint,
    workload_names,
)

# ----------------------------------------------------------------------
# test doubles
# ----------------------------------------------------------------------
if "campaign_probe" not in workload_names():
    @register_workload("campaign_probe")
    def _campaign_probe(point):
        """Fast synthetic workload: deterministic metrics, no world.

        Raises on cells whose ``count`` matches the ``poison`` setting
        — the poisoned-cell isolation fixture.  Serial-backend only
        (worker processes import the real registry, not this module).
        """
        if point.params.get("count") == point.settings.get("poison"):
            raise ValueError(f"poisoned cell count="
                             f"{point.params['count']}")
        return {"value": (point.seed % 9973) / 9973.0,
                "count": point.params["count"]}


class SimulatedCrash(BaseException):
    """Raised by CrashingBackend; BaseException so nothing absorbs it."""


class CountingBackend(DispatchBackend):
    """Counts workload calls actually performed by the inner backend."""

    def __init__(self, inner: DispatchBackend):
        self.inner = inner
        self.calls = 0

    def dispatch(self, fn, payloads):
        for result in self.inner.dispatch(fn, payloads):
            self.calls += 1
            yield result


class CrashingBackend(DispatchBackend):
    """Kills the campaign after ``after`` cells have been committed.

    The crash lands *after* the consumer processed (cached) the k-th
    result and *before* the next one — the worst honest moment,
    equivalent to SIGKILL between two cache writes.
    """

    def __init__(self, inner: DispatchBackend, after: int):
        self.inner = inner
        self.after = after

    def dispatch(self, fn, payloads):
        done = 0
        for result in self.inner.dispatch(fn, payloads):
            yield result
            done += 1
            if done >= self.after:
                raise SimulatedCrash(f"crash after {done} cells")


def _probe_spec(**overrides):
    base = dict(
        name="probe", workload="campaign_probe",
        scenarios=("line_topology",), axes={"count": (2, 3, 4)},
        repeats=2, master_seed=17, settings={})
    base.update(overrides)
    return ExperimentSpec(**base)


def _discovery_spec(**overrides):
    """A tiny real-workload spec, picklable into worker processes."""
    base = dict(
        name="tinydisc", workload="discovery",
        scenarios=("line_topology",), axes={"count": (2, 3)},
        repeats=2, master_seed=5, settings={"settle_s": 40.0})
    base.update(overrides)
    return ExperimentSpec(**base)


def _campaign_bytes(out_dir):
    return ((out_dir / "runs.jsonl").read_bytes(),
            (out_dir / "summary.csv").read_bytes())


def _cache_entries(out_dir):
    """Finished cells stored in ``out_dir``'s default cache."""
    return sorted((out_dir / "cache").glob("*/*.json"))


def _entry_path(out_dir, spec, point):
    key = point_key(point, workload_fingerprint(spec.workload),
                    version=spec.version)
    return CampaignCache(out_dir / "cache")._path(key)


def test_campaign_stats_and_default_cache(tmp_path):
    spec = _probe_spec()
    result = run_campaign(spec, tmp_path / "camp")
    assert result.stats.as_dict() == {
        "total": 6, "executed": 6, "cache_hits": 0, "failures": 0}
    assert len(_cache_entries(tmp_path / "camp")) == spec.size()
    # campaign.json mirrors the stats, deterministically
    stats = json.loads((tmp_path / "camp" / "campaign.json").read_text())
    assert stats == result.stats.as_dict()


# ----------------------------------------------------------------------
# crash/resume differential: kill after k commits, resume, compare
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [1, 3, 5])    # 1, mid, n-1 of n=6 cells
def test_crash_after_k_commits_resumes_byte_identical(tmp_path, k):
    spec = _probe_spec()
    n = spec.size()
    clean = run_campaign(spec, tmp_path / "clean")
    assert clean.stats.executed == n

    crashed_dir = tmp_path / "crashed"
    with pytest.raises(SimulatedCrash):
        run_campaign(spec, crashed_dir,
                     backend=CrashingBackend(SerialBackend(), after=k))
    assert len(_cache_entries(crashed_dir)) == k
    assert not (crashed_dir / "runs.jsonl").exists()

    counting = CountingBackend(SerialBackend())
    resumed = run_campaign(spec, crashed_dir, backend=counting)
    assert counting.calls == n - k, \
        "resume must execute exactly the uncommitted cells"
    assert resumed.stats.cache_hits == k
    assert resumed.stats.executed == n - k
    assert _campaign_bytes(crashed_dir) == _campaign_bytes(
        tmp_path / "clean")


def test_double_crash_then_resume(tmp_path):
    """Interruption is re-entrant: crash, crash again, then finish."""
    spec = _probe_spec()
    n = spec.size()
    clean = run_campaign(spec, tmp_path / "clean")
    out = tmp_path / "flaky"
    for after in (2, 2):    # second crash commits cells 3..4
        with pytest.raises(SimulatedCrash):
            run_campaign(spec, out, backend=CrashingBackend(
                SerialBackend(), after=after))
    counting = CountingBackend(SerialBackend())
    resumed = run_campaign(spec, out, backend=counting)
    assert counting.calls == n - 4
    assert resumed.stats.cache_hits == 4
    assert _campaign_bytes(out) == _campaign_bytes(tmp_path / "clean")
    assert clean.records == resumed.records


@pytest.mark.parametrize("workers", [1, 2])
def test_crash_resume_differential_with_real_workload(tmp_path, workers):
    """Acceptance gate: interrupted-then-resumed ≡ uninterrupted, at 1
    and 2 workers, on a real simulation workload."""
    spec = _discovery_spec()
    n = spec.size()
    k = n // 2
    backend = make_backend(workers=workers)
    run_campaign(spec, tmp_path / "clean", backend=backend)

    out = tmp_path / f"resumed_w{workers}"
    with pytest.raises(SimulatedCrash):
        run_campaign(spec, out,
                     backend=CrashingBackend(make_backend(
                         workers=workers), after=k))
    counting = CountingBackend(make_backend(workers=workers))
    resumed = run_campaign(spec, out, backend=counting)
    assert counting.calls == n - k
    assert resumed.stats.cache_hits == k
    assert _campaign_bytes(out) == _campaign_bytes(tmp_path / "clean")


# ----------------------------------------------------------------------
# grown-sweep incrementality: only new cells execute
# ----------------------------------------------------------------------
def test_grown_sweep_executes_only_new_cells(tmp_path):
    cache_dir = tmp_path / "cache"
    small = _probe_spec(axes={"count": (2, 3)}, repeats=2)
    first = run_campaign(small, tmp_path / "small", cache_dir=cache_dir)
    assert first.stats.executed == small.size() == 4

    # Grow the grid: a new axis value AND an extra repeat.
    grown = _probe_spec(axes={"count": (2, 3, 4)}, repeats=3)
    counting = CountingBackend(SerialBackend())
    second = run_campaign(grown, tmp_path / "grown",
                          cache_dir=cache_dir, backend=counting)
    assert second.stats.cache_hits == small.size()
    assert counting.calls == second.stats.executed \
        == grown.size() - small.size()

    # Cache-state byte identity: the grown run equals a from-scratch
    # run of the same grown spec (position-independent seeds pinned).
    fresh = run_campaign(grown, tmp_path / "fresh")
    assert fresh.stats.executed == grown.size()
    assert _campaign_bytes(tmp_path / "grown") \
        == _campaign_bytes(tmp_path / "fresh")


def test_cache_hit_restamps_moved_grid_index(tmp_path):
    """A cached cell adopted at a *different* grid position carries the
    new position's ``run`` index (records stay grid-consistent)."""
    cache_dir = tmp_path / "cache"
    run_campaign(_probe_spec(axes={"count": (3,)}, repeats=1),
                 tmp_path / "a", cache_dir=cache_dir)
    grown = _probe_spec(axes={"count": (2, 3)}, repeats=1)
    result = run_campaign(grown, tmp_path / "b", cache_dir=cache_dir)
    assert result.stats.cache_hits == 1
    records = result.records
    assert [r["run"] for r in records] == [0, 1]
    assert records[1]["params"]["count"] == 3    # the adopted cell


def test_full_cache_rerun_executes_nothing(tmp_path):
    spec = _probe_spec()
    cache_dir = tmp_path / "cache"
    run_campaign(spec, tmp_path / "one", cache_dir=cache_dir)
    counting = CountingBackend(SerialBackend())
    again = run_campaign(spec, tmp_path / "two", cache_dir=cache_dir,
                         backend=counting)
    assert counting.calls == 0
    assert again.stats.cache_hits == spec.size()
    assert _campaign_bytes(tmp_path / "one") \
        == _campaign_bytes(tmp_path / "two")


def test_edited_workload_fingerprint_invalidates_cache(tmp_path,
                                                       monkeypatch):
    """Cells cached by different workload code are never adopted."""
    spec = _probe_spec()
    out = tmp_path / "out"
    run_campaign(spec, out)
    monkeypatch.setattr(campaign_mod, "workload_fingerprint",
                        lambda name: "0" * 64)
    counting = CountingBackend(SerialBackend())
    rerun = run_campaign(spec, out, backend=counting)
    assert counting.calls == spec.size()
    assert rerun.stats.cache_hits == 0


def test_torn_cache_entry_is_recomputed_on_resume(tmp_path):
    """A crash that tore the last cache entry mid-write costs exactly
    that cell: resume recomputes it and the bytes match a clean run."""
    spec = _probe_spec()
    n, k = spec.size(), 3
    out = tmp_path / "out"
    with pytest.raises(SimulatedCrash):
        run_campaign(spec, out, backend=CrashingBackend(
            SerialBackend(), after=k))
    torn = _entry_path(out, spec, spec.expand()[k - 1])
    assert torn.exists()
    torn.write_text("{torn", encoding="utf-8")
    run_campaign(spec, tmp_path / "clean")
    counting = CountingBackend(SerialBackend())
    resumed = run_campaign(spec, out, backend=counting)
    assert counting.calls == resumed.stats.executed == n - k + 1
    assert resumed.stats.cache_hits == k - 1
    assert json.loads(torn.read_text())["record"]["run"] == k - 1
    assert _campaign_bytes(out) == _campaign_bytes(tmp_path / "clean")


# ----------------------------------------------------------------------
# poisoned cells: loud, isolated, retryable
# ----------------------------------------------------------------------
def test_poisoned_cell_fails_loudly_without_losing_results(tmp_path):
    spec = _probe_spec(axes={"count": (2, 3, 4)}, repeats=1,
                       settings={"poison": 3})
    out = tmp_path / "out"
    with pytest.raises(CampaignError, match="1 of 3 cells failed") \
            as exc_info:
        run_campaign(spec, out)
    assert len(_cache_entries(out)) == 2
    [failure] = exc_info.value.result.stats.failures
    assert "ValueError" in failure["error"]
    assert "poisoned cell count=3" in failure["error"]
    assert len(failure["key"]) == 64
    assert "count\":3" in failure["label"].replace(" ", "")
    # the healthy cells' results were written, not lost
    records = [json.loads(l) for l in
               (out / "runs.jsonl").read_text().splitlines()]
    assert [r["params"]["count"] for r in records] == [2, 4]
    stats = json.loads((out / "campaign.json").read_text())
    assert stats["failures"] == 1

    # resume retries exactly the poisoned cell, and fails loudly again
    counting = CountingBackend(SerialBackend())
    with pytest.raises(CampaignError):
        run_campaign(spec, out, backend=counting)
    assert counting.calls == 1


def test_failure_timings_surface_on_the_side_channel():
    spec = _probe_spec(axes={"count": (3,)}, repeats=1,
                       settings={"poison": 3})
    [point] = spec.expand()
    outcome = execute_point_outcome(point.as_dict())
    assert outcome["ok"] is False
    assert outcome["error_type"] == "ValueError"
    assert "poisoned" in outcome["error"]
    assert outcome["timings"]["wall_s"] >= 0.0


def test_campaign_error_carries_partial_result(tmp_path):
    spec = _probe_spec(axes={"count": (2, 3, 4)}, repeats=2,
                       settings={"poison": 4})
    with pytest.raises(CampaignError) as exc_info:
        run_campaign(spec, tmp_path / "out")
    result = exc_info.value.result
    assert len(result.records) == 4
    assert len(result.stats.failures) == 2
    assert all(f["error"].startswith("ValueError")
               for f in result.stats.failures)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
def test_cli_run_is_a_campaign(tmp_path, capsys, monkeypatch):
    from repro.experiments import cli as cli_mod
    monkeypatch.setattr(cli_mod, "get_spec", lambda name: _probe_spec())
    out = tmp_path / "out"
    args = ["run", "probe", "--out", str(out),
            "--cache-dir", str(tmp_path / "cache")]
    assert cli_mod.main(args + ["--progress"]) == 0
    captured = capsys.readouterr()
    assert ("campaign: total=6 executed=6 cache_hits=0 "
            "failures=0") in captured.out
    # re-running the same command is a no-op resume: all cache hits
    assert cli_mod.main(args) == 0
    assert "executed=0 cache_hits=6" in capsys.readouterr().out
    # a fresh out-dir sharing the cache executes nothing
    assert cli_mod.main(
        ["run", "probe", "--out", str(tmp_path / "out2"),
         "--cache-dir", str(tmp_path / "cache")]) == 0
    assert "cache_hits=6" in capsys.readouterr().out
    assert (tmp_path / "out2" / "runs.jsonl").read_bytes() \
        == (out / "runs.jsonl").read_bytes()


def test_cli_run_failure_exit_code_and_stderr(tmp_path, capsys,
                                              monkeypatch):
    from repro.experiments import cli as cli_mod
    monkeypatch.setattr(
        cli_mod, "get_spec",
        lambda name: _probe_spec(axes={"count": (2, 3, 4)}, repeats=1,
                                 settings={"poison": 3}))
    assert cli_mod.main(
        ["run", "probe", "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "campaign failed" in captured.err
    assert "ValueError" in captured.err
    assert "failures=1" in captured.out
    # the healthy cells still reached runs.jsonl
    lines = (tmp_path / "out" / "runs.jsonl").read_text().splitlines()
    assert len(lines) == 2


# ----------------------------------------------------------------------
# telemetry through the cache
# ----------------------------------------------------------------------
def test_telemetry_rows_survive_cache_adoption(tmp_path):
    """Telemetry-bearing entries cache under a separate key and replay
    their rows byte-identically (re-stamped to the grid index)."""
    from repro.experiments.runner import write_telemetry
    spec = _discovery_spec(axes={"count": (2,)}, repeats=1)
    cache_dir = tmp_path / "cache"
    first = run_campaign(spec, tmp_path / "one", cache_dir=cache_dir,
                         telemetry=True)
    counting = CountingBackend(SerialBackend())
    second = run_campaign(spec, tmp_path / "two", cache_dir=cache_dir,
                          telemetry=True, backend=counting)
    assert counting.calls == 0
    paths_one = write_telemetry(first.results, tmp_path / "one")
    paths_two = write_telemetry(second.results, tmp_path / "two")
    assert paths_one[0].read_bytes() == paths_two[0].read_bytes()
    assert paths_one[1].read_bytes() == paths_two[1].read_bytes()
    # a bare (telemetry-less) run must NOT adopt the bare cache entry
    # for its telemetry twin — distinct key dimension
    bare = run_campaign(spec, tmp_path / "bare", cache_dir=cache_dir)
    assert bare.stats.cache_hits == 0 and bare.stats.executed == 1

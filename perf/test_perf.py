"""Smoke tests of the benchmark itself (seconds; part of tier-1)."""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import tempfile
import time

from perf import compare, run, tracer as tracing, workloads
from perf.workloads import Repetition, Workload
from repro.sim.kernel import Simulator

#: Every workload at a size that runs in well under a second.
TINY = {
    "ferry_epidemic": functools.partial(workloads.ferry_epidemic, count=12),
    "plaza_discovery": functools.partial(workloads.plaza_discovery,
                                         count=10),
    "festival_lossy": functools.partial(workloads.festival_lossy, count=8),
    "campaign_sweeps": functools.partial(workloads.campaign_sweeps,
                                         spec_names=("coverage_sweep",)),
}


def tiny(name: str) -> Workload:
    return Workload(TINY[name], workloads.WORKLOADS[name].check)


def test_every_workload_runs_and_checks_at_a_tiny_size(tmp_path,
                                                      monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    handler = signal.getsignal(signal.SIGALRM)
    assert set(TINY) == set(workloads.WORKLOADS)
    for name in TINY:
        first = run.repeat(tiny(name), seed=3, traced=False)
        second = run.repeat(tiny(name), seed=3, traced=False)
        assert first["ok"] and first["digest"] == second["digest"], name
        assert {"setup_s", "run_s", "wall_s", "host_wall_s",
                "tick_ms"} <= set(first["values"])
        assert 0 < first["values"]["wall_s"]
    assert not any(tmp_path.iterdir())
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_every_benchmark_metric_is_emitted_with_its_unit():
    bench = run.load_benchmark()
    untraced = run.repeat(tiny("ferry_epidemic"), seed=1, traced=False)
    traced = run.repeat(tiny("ferry_epidemic"), seed=1, traced=True)
    assert traced["digest"] == untraced["digest"]
    untraced["world"] = traced["world"] = 0
    record = run.summarize({"reps": [untraced, untraced], "traced": traced,
                            "digests": {0: traced["digest"]}}, bench)
    assert {name: stat["unit"] for name, stat in record["metrics"].items()} \
        == {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert {name: layer["unit"] for name, layer in record["layers"].items()} \
        == {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert record["layers"]["dtn.routing.exchanges"]["value"] > 0
    assert record["layers"]["core.device_storage.analyze_calls"]["value"] == 0
    line = run.result_line({"ferry_epidemic": record}, trace=True)
    assert line["correct"] and line["attempted"] == 3
    assert set(line["metrics"]) == {m["name"] for m in bench["per_layer"]}


class _Tree:
    def outer(self):
        _busy(0.004)
        self.middle()
        self.middle()

    def middle(self):
        _busy(0.002)
        self.leaf()

    def leaf(self):
        _busy(0.003)


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_tracer_self_times_add_up_to_the_wall_time():
    tracer = tracing.Tracer()
    for name in ("outer", "middle", "leaf"):
        tracer.patch_method(_Tree, name, label=name)
    start = time.perf_counter_ns()
    tracer.enter(tracing.ROOT)
    _Tree().outer()
    wall = tracer.exit()
    outside = time.perf_counter_ns() - start
    tracer.restore()
    assert sum(tracer.self_ns.values()) == wall <= outside
    assert tracer.self_ns["leaf"] >= 2 * 3_000_000
    assert tracer.self_ns["middle"] >= 2 * 2_000_000
    assert tracer.self_ns["outer"] >= 4_000_000
    assert tracer.inclusive_ns["_Tree.outer"] >= 14_000_000
    assert _Tree.__dict__["outer"].__name__ == "outer"


def _namespaces() -> list:
    spaces = []
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            spaces.append(module)
            spaces.extend(value for value in vars(module).values()
                          if isinstance(value, type))
    return spaces


def _callables(spaces: list) -> list[dict]:
    return [{k: v for k, v in vars(space).items() if callable(v)}
            for space in spaces]


def test_a_traced_run_restores_every_patched_attribute():
    spaces = _namespaces()
    before = _callables(spaces)
    step = Simulator.step
    assert run.repeat(tiny("festival_lossy"), seed=2, traced=True)["ok"]
    assert _callables(spaces) == before
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert Simulator.step is not step
    finally:
        tracer.restore()
    assert _callables(spaces) == before


def _fake(outputs) -> Repetition:
    start = time.perf_counter()
    return Repetition({"start": start, "ready": start + 0.001,
                       "ran": start + 0.002, "done": start + 0.003}, outputs)


def _boom(seed: int) -> Repetition:
    raise RuntimeError("forced failure")


def test_failed_repetitions_are_counted_in_failed_frac():
    bench = run.load_benchmark()
    fakes = {
        "steady": Workload(lambda seed: _fake({"seed": seed}),
                           lambda outputs: None),
        "boom": Workload(_boom, lambda outputs: None),
        "drifting": Workload(lambda seed: _fake({"pid": os.getpid()}),
                             lambda outputs: None),
    }
    runs = run.measure(fakes, seed=1, seconds=0.0, trace=False,
                       min_reps=2 * run.WORLDS)
    records = {name: run.summarize(r, bench) for name, r in runs.items()}
    assert records["steady"]["failed_frac"] == 0.0
    assert records["boom"]["failed_frac"] == 1.0
    assert "forced failure" in records["boom"]["errors"][0]
    assert records["drifting"]["failed_frac"] == 0.5
    assert not run.result_line(records, trace=False)["correct"]


def test_compare_flags_breaches_noise_failures_and_mismatches(tmp_path,
                                                               capsys):
    bench = run.load_benchmark()

    def result(run_s: float, failed: int = 0, spread: float = 0.0,
               seed: int = 1) -> dict:
        metrics = {m["name"]: {"value": 1.0, "worlds": {"0": 1.0, "1": 1.0}}
                   for m in bench["end_to_end"]}
        metrics["run_s"] = {"value": run_s,
                            "worlds": {"0": run_s - spread,
                                       "1": run_s + spread}}
        return {"fingerprint": {"nproc": 2}, "seed": seed, "seconds": 10,
                "trace": False,
                "workloads": {"w": {"failed": failed, "attempted": 5,
                                    "digest": "d", "metrics": metrics}}}

    paths = {}
    for label, value in (("a", result(1.0)), ("near", result(1.05)),
                         ("slow", result(1.5)), ("bad", result(1.0, 1)),
                         ("uneven", result(1.0, spread=0.5)),
                         ("seed2", result(1.0, seed=2))):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(value))
    verdicts = {label: compare.main([str(paths["a"]), str(path)])
                for label, path in paths.items()}
    assert verdicts == {"a": 0, "near": 0, "slow": 1, "bad": 1, "uneven": 1,
                        "seed2": 1}
    out = capsys.readouterr().out
    assert "BREACH" in out and "unresolved" in out
    assert "seed differs" in out

"""Run the benchmark and print every metric with its unit.

    python3 perf/run.py [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace 0|1] [--out FILE]

Repetitions of the selected workloads (default: all four, in
``BENCHMARK.json`` order) run round-robin, each in a fresh child
process forked after every import, one child at a time, so a slow
spell on a shared machine hits every workload alike.  Rounds continue
until ``--seconds`` per workload have passed and at least
``MIN_REPS`` rounds ran.  Phase times are corrected for the machine's
speed during the repetition (``perf/speed.py``).  Each end-to-end
metric is the median of each world's successful repetitions, averaged
over the worlds, printed with the quartiles and count of all its
repetitions and next to the median raw host wall time.

``--trace 1`` adds one traced repetition per workload (see
``perf/tracer.py``) and prints the per-layer metrics instead.  Every
repetition's simulated outputs are checked and digested: an exception,
a broken invariant or a digest that differs from the first repetition
of the same world marks the repetition failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (``{"value", "unit"}`` per
metric; with several workloads each name is prefixed ``<workload>/``).
``--out`` also writes the full result, with the machine fingerprint,
for ``perf/compare.py``.  Scratch files (the campaign's outputs) go to a
``.perf-scratch-*`` directory in the checkout, removed before exit.
"""

from __future__ import annotations

import os
import pathlib
import sys

# One BLAS thread: numpy then starts no thread pool, and forking a
# child per repetition is safe only in a process without threads.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

ROOT = pathlib.Path(__file__).resolve().parent.parent
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

from perf import speed, tracer as tracing  # noqa: E402
from perf.workloads import (  # noqa: E402
    PHASES, WORKLOADS, Workload, derive_seed)

#: Worlds per workload.  Round ``r`` runs world ``r % WORLDS``, whose
#: seed is derived from the benchmark seed, so a run's metrics average
#: over several inputs: across seeds, one festival world's host time
#: spreads 9% between quartiles and its peak memory 6%.
WORLDS = 5

#: Rounds run even when ``--seconds`` has already passed: every world
#: runs at least once.
MIN_REPS = WORLDS

#: A repetition still running after this long is killed and failed.
REP_TIMEOUT_S = 150.0


def load_benchmark() -> dict:
    """``BENCHMARK.json`` from the checkout root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def digest(outputs: dict) -> str:
    """SHA-256 of a repetition's simulated outputs (canonical JSON)."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# one repetition, in a child process
# ----------------------------------------------------------------------
def repeat(workload: Workload, seed: int, traced: bool) -> dict:
    """Run, check and digest one repetition in this process.

    An untraced repetition runs under a :class:`speed.SpeedProbe`: its
    phases are corrected times, its raw ones are kept as ``host_*``.  A
    traced repetition has host times only; it feeds no end-to-end metric.
    """
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.enter(tracing.ROOT)
        try:
            rep = workload.run(seed)
        finally:
            wall_ns = tracer.exit()
            tracer.restore()
    else:
        with speed.SpeedProbe() as probe:
            rep = workload.run(seed)
    workload.check(rep.outputs)
    values = {}
    for phase, (first, last) in PHASES.items():
        if first in rep.marks and last in rep.marks:
            begin, end = rep.marks[first], rep.marks[last]
            values["host_" + phase] = end - begin
            values[phase] = (end - begin if traced
                             else probe.corrected(begin, end))
    if not traced:
        values["tick_ms"] = probe.mean_tick() * 1e3
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values["peak_rss_mb"] = peak_kib / 1024.0
    return {
        "ok": True,
        "values": values,
        "digest": digest(rep.outputs),
        "layers": (tracing.layer_metrics(tracer, wall_ns)
                   if tracer is not None else None),
    }


def _child(conn, workload: Workload, seed: int, traced: bool) -> None:
    try:
        result = repeat(workload, seed, traced)
    except Exception:
        result = {"ok": False, "error": traceback.format_exc()}
    conn.send(result)
    conn.close()


def run_repetition(workload: Workload, seed: int, traced: bool) -> dict:
    """One repetition in a freshly forked child; waits for it to end."""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_child,
                            args=(sender, workload, seed, traced))
    child.start()
    sender.close()
    try:
        if receiver.poll(REP_TIMEOUT_S):
            result = receiver.recv()
        else:
            result = {"ok": False,
                      "error": f"no result within {REP_TIMEOUT_S:g} s"}
    except EOFError:
        result = {"ok": False, "error": "child exited without a result"}
    finally:
        receiver.close()
        child.join(10.0)
        if child.is_alive():
            child.kill()
            child.join()
    return result


# ----------------------------------------------------------------------
# the measurement loop
# ----------------------------------------------------------------------
def measure(workloads: dict[str, Workload], seed: int, seconds: float,
            trace: bool, min_reps: int = MIN_REPS) -> dict[str, dict]:
    """Round-robin repetitions; returns ``{name: {"reps", "traced"}}``.

    Each repetition records the world it ran; the traced one runs world
    0.  Digests are checked here: a repetition whose digest differs from
    the first successful one of its workload and world is marked failed.
    """
    worlds = [derive_seed(seed, f"world/{index}") for index in range(WORLDS)]
    runs = {name: {"reps": [], "traced": None} for name in workloads}
    start = time.perf_counter()
    rounds = 0
    while rounds < min_reps or (time.perf_counter() - start
                                < seconds * len(workloads)):
        world = rounds % WORLDS
        for name, workload in workloads.items():
            rep = run_repetition(workload, worlds[world], traced=False)
            rep["world"] = world
            runs[name]["reps"].append(rep)
            _progress(name, rep)
        rounds += 1
    if trace:
        for name, workload in workloads.items():
            rep = run_repetition(workload, worlds[0], traced=True)
            rep["world"] = 0
            runs[name]["traced"] = rep
            _progress(name + " (traced)", rep)
    for run in runs.values():
        reference = {}
        for rep in _attempts(run):
            if not rep["ok"]:
                continue
            first = reference.setdefault(rep["world"], rep["digest"])
            if rep["digest"] != first:
                rep.update(ok=False, error=f"digest {rep['digest']} != "
                                           f"{first} of the first "
                                           f"repetition of its world")
        run["digests"] = reference
    return runs


def _attempts(run: dict) -> list[dict]:
    return run["reps"] + ([run["traced"]] if run["traced"] else [])


def _progress(name: str, rep: dict) -> None:
    if rep["ok"]:
        print(f"{name}: wall {rep['values']['wall_s']:.3f} s "
              f"(host {rep['values']['host_wall_s']:.3f} s)",
              file=sys.stderr)
    else:
        print(f"{name}: FAILED\n{rep['error']}", file=sys.stderr)


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
def aggregate(reps: list[dict], name: str) -> dict:
    """One metric over a run's repetitions.

    ``value`` is the median of each world's repetitions (robust to a
    slow moment of the machine), averaged over the worlds (which differ
    in their input); ``worlds`` holds the per-world medians, and ``q1``,
    ``q3`` and ``n`` describe all the repetitions.
    """
    by_world = collections.defaultdict(list)
    for rep in reps:
        by_world[rep["world"]].append(rep["values"][name])
    worlds = {str(world): statistics.median(values)
              for world, values in sorted(by_world.items())}
    values = [rep["values"][name] for rep in reps]
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (values[0], values[0]))
    return {"value": statistics.fmean(worlds.values()), "q1": q1, "q3": q3,
            "n": len(values), "worlds": worlds, "values": values}


def summarize(run: dict, bench: dict) -> dict:
    """One workload's record: failure accounting, end-to-end metrics
    and, for a traced run, the per-layer metrics."""
    attempts = _attempts(run)
    good = [rep for rep in run["reps"] if rep["ok"]]
    failed = sum(not rep["ok"] for rep in attempts)
    record = {
        "attempted": len(attempts),
        "failed": failed,
        "failed_frac": failed / len(attempts),
        "digest": digest({str(world): value for world, value
                          in run["digests"].items()}),
        "errors": [rep["error"] for rep in attempts if not rep["ok"]],
        "metrics": {},
    }
    if not good:
        return record
    for metric in bench["end_to_end"]:
        record["metrics"][metric["name"]] = {
            "unit": metric["unit"], **aggregate(good, metric["name"])}
    record["host_wall_s"] = statistics.median(
        rep["values"]["host_wall_s"] for rep in good)
    record["tick_ms"] = statistics.median(
        rep["values"]["tick_ms"] for rep in good)
    traced = run["traced"]
    if traced is not None and traced["ok"]:
        untraced = [rep for rep in good
                    if rep["world"] == traced["world"]] or good
        median = {name: statistics.median(rep["values"].get(name, 0.0)
                                          for rep in untraced)
                  for name in ("run_s", "warm_s", "host_wall_s")}
        layers = dict(traced["layers"])
        events = layers["sim.events"]
        layers["sim.host_us_per_event"] = (
            median["run_s"] / events * 1e6 if events else 0.0)
        layers["experiments.rerun_s"] = median["warm_s"]
        layers["trace.overhead_frac"] = (
            traced["values"]["host_wall_s"] / median["host_wall_s"] - 1.0)
        record["layers"] = {
            metric["name"]: {"value": layers[metric["name"]],
                             "unit": metric["unit"]}
            for metric in bench["per_layer"]}
    return record


def machine_fingerprint() -> dict:
    """Where the numbers came from."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse",
                 "HEAD"], capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha,
            "loadavg_1m": os.getloadavg()[0]}


def print_report(records: dict[str, dict], fingerprint: dict) -> None:
    print("# " + ", ".join(f"{k}={v}" for k, v in fingerprint.items()))
    print(f"{'workload':<16} {'metric':<38} {'unit':<9} {'value':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>3}")
    for name, record in records.items():
        for metric, stat in record["metrics"].items():
            print(f"{name:<16} {metric:<38} {stat['unit']:<9} "
                  f"{stat['value']:>12.6g} {stat['q1']:>12.6g} "
                  f"{stat['q3']:>12.6g} {stat['n']:>3}")
        for metric, layer in record.get("layers", {}).items():
            print(f"{name:<16} {metric:<38} {layer['unit']:<9} "
                  f"{layer['value']:>12.6g}")
        if "tick_ms" in record:
            print(f"{name:<16} host_wall_s={record['host_wall_s']:.6g} "
                  f"tick_ms={record['tick_ms']:.4g}")
        print(f"{name:<16} ops_attempted={record['attempted']} "
              f"ops_failed={record['failed']} "
              f"failed_frac={record['failed_frac']:g} "
              f"digest={record['digest']}")
        for error in record["errors"]:
            print(f"{name:<16} error: {error.strip().splitlines()[-1]}")


def result_line(records: dict[str, dict], trace: bool) -> dict:
    """The closing JSON object (see the module docstring)."""
    metrics = {}
    for name, record in records.items():
        prefix = "" if len(records) == 1 else name + "/"
        if trace:
            chosen = record["layers"]
        else:
            chosen = {metric: {"value": stat["value"],
                               "unit": stat["unit"]}
                      for metric, stat in record["metrics"].items()}
        metrics.update({prefix + metric: value
                        for metric, value in chosen.items()})
    failed = sum(record["failed"] for record in records.values())
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS),
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path,
                        help="write the full result JSON here")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    seconds = (bench["run_seconds"] if args.seconds is None
               else args.seconds)
    fingerprint = machine_fingerprint()
    names = args.workload or list(WORKLOADS)
    scratch = tempfile.mkdtemp(prefix=".perf-scratch-", dir=ROOT)
    tempfile.tempdir = scratch
    try:
        runs = measure({name: WORKLOADS[name] for name in names},
                       args.seed, seconds, bool(args.trace))
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
    records = {name: summarize(run, bench) for name, run in runs.items()}
    print_report(records, fingerprint)
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"fingerprint": fingerprint, "seed": args.seed,
             "seconds": seconds, "trace": bool(args.trace),
             "workloads": records}, indent=2) + "\n", encoding="utf-8")
    wanted = "layers" if args.trace else "metrics"
    if not all(record.get(wanted) for record in records.values()):
        print("no successful repetition to report", file=sys.stderr)
        return 1
    print(json.dumps(result_line(records, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

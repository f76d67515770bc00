"""Which ``src/repro`` functions does any run reach?

Each target runs in its own interpreter under a ``sys.settrace`` hook
recording every ``src/repro`` code object entered (campaigns run
serially, in that interpreter).  Every function under ``src/repro`` is
classed by the first set reaching it: production (bundled specs, some
with ``--telemetry``; the CLI's ``list`` and ``report``; the ledger
report; perf workloads; examples), gates (benches at CI size,
``tests/paper``), unit (tier-1) or nothing.  Exits 1 when an untagged
function is reached by unit tests alone or by nothing, and 2 when a
target fails, since a failed run reaches too little to class anything.
``python tools/reach_audit.py [TARGET]`` (about 6 min; a script, ``-m
module args`` or ``-c code`` TARGET forms the one set ``given``).
"""

import ast
import json
import os
import pathlib
import runpy
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SPECS = ("demo_sweep", "delay_sweep", "coverage_sweep", "handover_decay",
         "contact_sweep", "dtn_sweep", "bandwidth_sweep", "fault_sweep",
         "phy_sweep", "scale_sweep")
#: Fault outages, contact bytes and handover spans each record on one.
TELEMETRY = ("fault_sweep", "bandwidth_sweep", "handover_decay")
WORKLOADS = ("from perf.workloads import WORKLOADS\n"
             "for w in WORKLOADS.values(): w.check(w.run(1).outputs)")
CI_SIZES = {"BENCH_EVENT_N": "60", "BENCH_DTN_N": "60", "BENCH_CAP_N": "24",
            "BENCH_FAULT_REPEATS": "1", "BENCH_PHY_REPEATS": "1"}
#: Name prefixes kept though no bundled run or gate reaches them, each
#: with its reason: an oracle, or a production path no bundled run takes.
DAEMON_EXIT = "daemon exit: failure tests kill a server or relay (§5.2)"
KEEP = {"experiments/cli.py:_worker_count": "--workers (cells run serially)",
        "dtn/forwarder.py:PollingDtnOverlay": "oracle",
        "radio/world.py:World.neighbors_brute_force": "oracle",
        "radio/contacts.py:distance_crossings": "oracle",
        "radio/phy.py:PhyPlane.loss_probability": "oracle",
        "radio/bus.py:ConnectivityBus.watch_links_batch": "perf tracer",
        "dtn/capacity.py:BandwidthDtnOverlay.on_crash": "crash_rate > 0",
        "radio/spatial.py:SpatialGrid.remove": "crash on a grid world",
        "core/node.py:PeerHoodNode.stop": DAEMON_EXIT,
        "core/daemon.py:Daemon.stop": DAEMON_EXIT,
        "core/bridge.py:BridgeService.close_all": DAEMON_EXIT,
        "core/engine.py:Engine.close_all": DAEMON_EXIT,
        "core/protocol.py:NeighbourEntry.wire_size":
            "Frame interface (size summed once, when built)",
        "experiments/spec.py:RunPoint.label": "a failed cell's record"}


def record(out: str, argv: list[str]) -> None:
    """Run one target in this interpreter; write the reached code keys."""
    seen, prefix = set(), str(SRC)

    def hook(frame, event, arg):    # the global hook sees 'call' only
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            seen.add((code.co_filename, code.co_firstlineno))
    sys.settrace(hook)
    try:
        if argv[0] == "-c":
            exec(argv[1], {"__name__": "__main__"})
        elif argv[0] == "-m":
            sys.argv = argv[1:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = argv
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as stop:
        if stop.code not in (None, 0):
            raise
    finally:
        sys.settrace(None)
        pathlib.Path(out).write_text(json.dumps(sorted(seen)))


def functions() -> dict:
    """(file, first line) -> (name, lines, tag) for every def."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            name = f"{path.relative_to(SRC).as_posix()}:{prefix}{child.name}"
            body = [s for s in child.body if not isinstance(s, ast.Expr)]
            abstract = len(body) == 1 and isinstance(body[0], ast.Raise)
            tag = ("dunder" if child.name.startswith("__") else
                   "abstract" if abstract else
                   next((why for key, why in KEEP.items()
                         if name.startswith(key)), ""))
            lines = child.end_lineno - first + 1
            found[(str(path), first)] = (name, lines, tag)
            walk(child, path, f"{prefix}{child.name}.<locals>.")
    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return found


def reach(targets: list[list[str]], work: pathlib.Path) -> set:
    """The code keys any of ``targets`` enters."""
    env = dict(os.environ, **CI_SIZES,
               PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}")
    reached = set()
    for index, argv in enumerate(targets):
        out = work / f"reach-{index}.json"
        done = subprocess.run(
            [sys.executable, __file__, "--record", str(out), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        if done.returncode:
            print(done.stdout, f"reach_audit: target {' '.join(argv)!r} "
                  f"exited {done.returncode}", sep="", file=sys.stderr)
            raise SystemExit(2)
        reached |= {tuple(key) for key in json.loads(out.read_text())}
    return reached


def main(argv: list[str]) -> int:
    if argv[:1] == ["--record"]:
        record(argv[1], argv[2:])
        return 0
    work = pathlib.Path(tempfile.mkdtemp(prefix="reach-"))
    cli = ["-m", "repro.experiments"]
    run = [*cli, "run"]
    pytest = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
    # The benches write BENCH_*.json beside their directory: run a copy.
    benches = shutil.copytree(ROOT / "benchmarks", work / "benchmarks")
    sets = {"given": [argv]} if argv else {
        "production": [run + [s, "--verbose", "--progress", "--out",
                              str(work / s)] for s in SPECS]
        + [run + [s, "--telemetry", "--out", str(work / f"{s}-t")]
           for s in TELEMETRY]
        + [[*cli, "list"],
           [*cli, "report", SPECS[0], "--out", str(work / SPECS[0])],
           [str(ROOT / "benchmarks" / "ledger.py"), "report",
            "--out", str(work / "report")],
           ["-c", WORKLOADS]]
        + [[str(p)] for p in sorted((ROOT / "examples").glob("*.py"))],
        "gates": [pytest + sorted(map(str, benches.glob("bench_*.py"))),
                  pytest + ["tests/paper"]],
        "unit": [pytest]}
    try:
        reached = {name: reach(group, work) for name, group in sets.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    table, untagged = functions(), 0
    for name in [*sets, "nothing"]:
        rows = sorted(table.pop(key) for key in list(table)
                      if name == "nothing" or key in reached[name])
        print(f"== {name}: {len(rows)} functions, "
              f"{sum(row[1] for row in rows)} lines")
        for qual, lines, tag in rows:
            print(f"  {qual}  {lines}" + (f"  [{tag}]" if tag else ""))
            untagged += name in ("unit", "nothing") and not tag and not argv
    return 1 if untagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

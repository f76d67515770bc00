"""Interrupt/resume differential smoke: SIGTERM a sweep, resume, diff.

The CI-facing end-to-end check of the campaign layer's two headline
guarantees, exercised through the real CLI as separate OS processes:

1. **Crash/resume byte identity** — a campaign SIGTERM-killed
   mid-flight and then resumed produces ``runs.jsonl`` +
   ``summary.csv`` byte-identical to an uninterrupted run, and the
   resume executes exactly the cells the kill left uncached (asserted
   against ``campaign.json`` using the cache's entry count at the
   moment of death).
2. **Cache-hit rate** — re-running the sweep against the clean run's
   cache executes zero cells (100% hits) and still emits identical
   bytes.

The kill is synchronised on the run cache itself: the driver polls
``<out>/cache`` until at least one ``*.json`` entry has landed (entries
appear atomically, via ``os.replace``), then terminates the child — a
deterministic "mid-flight", not a sleep race.
If the sweep finishes before the signal lands (fast hardware), the
run degrades to a resume-is-a-no-op check and says so.

Usage: ``python tools/resume_smoke.py [--spec delay_sweep]``
(run from the repo root; ``make resume-smoke``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    return env


def _cmd(spec: str, out: pathlib.Path, cache: pathlib.Path,
         workers: int) -> list[str]:
    return [sys.executable, "-m", "repro.experiments", "run", spec,
            "--workers", str(workers), "--out", str(out),
            "--cache-dir", str(cache)]


def _run(cmd: list[str]) -> None:
    proc = subprocess.run(cmd, env=_env(), cwd=REPO_ROOT)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")


def _cached_cells(cache: pathlib.Path) -> int:
    """Finished cells in a run cache (in-flight temp files don't count)."""
    return sum(1 for _ in cache.glob("*/*.json"))


def _stats(out: pathlib.Path) -> dict:
    return json.loads((out / "campaign.json").read_text(encoding="utf-8"))


def _assert_same_bytes(a: pathlib.Path, b: pathlib.Path) -> None:
    for name in ("runs.jsonl", "summary.csv"):
        if (a / name).read_bytes() != (b / name).read_bytes():
            sys.exit(f"FAIL: {name} differs between {a} and {b}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", default="delay_sweep",
                        help="bundled spec to sweep (default delay_sweep)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="seconds to wait for the first cached cell")
    args = parser.parse_args()

    base = pathlib.Path(tempfile.mkdtemp(prefix="resume_smoke_"))
    clean, interrupted, hits = base / "clean", base / "resumed", base / "hits"
    print(f"resume smoke for spec {args.spec!r} under {base}")

    # --- reference: uninterrupted, 2 workers, fresh cache ------------
    _run(_cmd(args.spec, clean, clean / "cache", workers=2))
    total = _stats(clean)["total"]

    # --- interrupted leg: SIGTERM after the first cached cell -------
    cache = interrupted / "cache"
    child = subprocess.Popen(
        _cmd(args.spec, interrupted, cache, workers=1),
        env=_env(), cwd=REPO_ROOT)
    deadline = time.monotonic() + args.timeout
    while (child.poll() is None and _cached_cells(cache) < 1
           and time.monotonic() < deadline):
        time.sleep(0.02)
    if child.poll() is None:
        child.send_signal(signal.SIGTERM)
        child.wait(timeout=120)
        print(f"sent SIGTERM after {_cached_cells(cache)} cached cells "
              f"(child exited {child.returncode})")
    else:
        print("note: sweep finished before SIGTERM landed; "
              "checking resume-as-no-op instead")
    committed = _cached_cells(cache)

    # --- resume: must execute exactly the uncached cells -------------
    _run(_cmd(args.spec, interrupted, cache, workers=1))
    stats = _stats(interrupted)
    if stats["cache_hits"] != committed:
        sys.exit(f"FAIL: resume adopted {stats['cache_hits']} cells, "
                 f"cache held {committed}")
    if stats["executed"] != total - committed:
        sys.exit(f"FAIL: resume executed {stats['executed']} cells, "
                 f"expected {total - committed} of {total}")
    _assert_same_bytes(clean, interrupted)
    print(f"resume ok: {committed} cached before kill, "
          f"{stats['executed']} executed on resume, bytes identical")

    # --- cache-hit rate: clean cache serves the whole sweep ----------
    _run(_cmd(args.spec, hits, clean / "cache", workers=1))
    stats = _stats(hits)
    if stats["executed"] != 0 or stats["cache_hits"] != total:
        sys.exit(f"FAIL: cached re-run was not 100% hits: {stats}")
    _assert_same_bytes(clean, hits)
    print(f"cache ok: {stats['cache_hits']}/{total} hits, "
          f"0 executed, bytes identical")
    print("resume smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

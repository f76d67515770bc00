"""Compare two ``perf/run.py --out`` result files against the bounds.

    python3 perf/compare.py A.json B.json

For every workload and end-to-end metric of ``BENCHMARK.json`` the
value of B is printed against A's, with the relative delta and the
metric's bound.  The change allowed is the bound times A's value — for
a metric in seconds at least ``ABS_FLOOR_S``, so a millisecond phase
cannot breach on timer noise.  B breaches when it is worse than A by
more than that.

Runs with the same seed run the same worlds, so each world gives a
paired ratio B/A of its medians.  The interquartile range of those
ratios over the square root of their number, times A's value, is the
spread of the change; a metric whose spread is wider than the allowed
change is unresolved: the runs are too noisy to tell a breach from
none.

Exits 1 on any breach, any unresolved metric, any failed repetition in
either file, or when A and B were not run with the same seed, seconds
and trace setting.  Warns when the machine fingerprints differ, and
when the same seed gave different simulated outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Smallest change in a metric in seconds that counts as a breach.
ABS_FLOOR_S = 0.05

#: Fingerprint fields that must match for timings to be comparable.
FINGERPRINT_KEYS = ("cpu_model", "nproc", "python", "numpy")


def compare(a: dict, b: dict, bench: dict) -> list[str]:
    """Print the comparison table; return one line per problem."""
    problems = [f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}"
                for key in ("seed", "seconds", "trace")
                if a.get(key) != b.get(key)]
    for key in FINGERPRINT_KEYS:
        if a["fingerprint"].get(key) != b["fingerprint"].get(key):
            print(f"warning: fingerprint {key} differs: "
                  f"{a['fingerprint'].get(key)!r} vs "
                  f"{b['fingerprint'].get(key)!r}")
    print(f"{'workload':<16} {'metric':<12} {'unit':<5} {'A':>11} "
          f"{'B':>11} {'delta':>8} {'bound':>6}  verdict")
    for name, left in a["workloads"].items():
        right = b["workloads"].get(name)
        if right is None:
            problems.append(f"{name}: missing from B")
            continue
        for side, record in (("A", left), ("B", right)):
            if record["failed"]:
                problems.append(f"{name}: {record['failed']} of "
                                f"{record['attempted']} repetitions failed "
                                f"in {side}")
        same_seed = a.get("seed") == b.get("seed")
        if same_seed and left["digest"] != right["digest"]:
            print(f"warning: {name}: simulated outputs differ "
                  f"(digest {left['digest']} vs {right['digest']})")
        for metric in bench["end_to_end"]:
            metric_name = metric["name"]
            if (metric_name not in left["metrics"]
                    or metric_name not in right["metrics"]):
                problems.append(f"{name}: {metric_name} missing")
                continue
            stat_a = left["metrics"][metric_name]
            stat_b = right["metrics"][metric_name]
            base, new = stat_a["value"], stat_b["value"]
            worse = new - base if metric["better"] == "lower" else base - new
            allowed = metric["bound"] * abs(base)
            if metric["unit"] == "s":
                allowed = max(allowed, ABS_FLOOR_S)
            ratios = [stat_b["worlds"][world] / stat_a["worlds"][world]
                      for world in stat_a["worlds"]
                      if world in stat_b["worlds"]]
            if len(ratios) > 1:
                q1, _, q3 = statistics.quantiles(ratios, n=4)
                spread = (q3 - q1) * abs(base) / math.sqrt(len(ratios))
            else:
                spread = float("inf")
            if worse > allowed:
                verdict = "BREACH"
            elif spread > allowed:
                verdict = "unresolved"
            else:
                verdict = "ok"
            delta = (new - base) / base if base else float("inf")
            print(f"{name:<16} {metric_name:<12} {metric['unit']:<5} "
                  f"{base:>11.5g} {new:>11.5g} {delta:>+8.1%} "
                  f"{metric['bound']:>6.0%}  {verdict}")
            if verdict == "BREACH":
                problems.append(f"{name}: {metric_name} worse by "
                                f"{delta:+.1%} (bound {metric['bound']:.0%})")
            elif verdict == "unresolved":
                problems.append(f"{name}: {metric_name} spread "
                                f"{spread:.5g} across worlds is wider than "
                                f"the allowed change {allowed:.5g}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=pathlib.Path, help="baseline result")
    parser.add_argument("b", type=pathlib.Path, help="candidate result")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = compare(json.loads(args.a.read_text(encoding="utf-8")),
                       json.loads(args.b.read_text(encoding="utf-8")), bench)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

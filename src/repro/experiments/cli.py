"""The experiments CLI: ``python -m repro.experiments list|run|report``.

* ``list`` — bundled specs, registered scenarios (with schemas) and
  workloads;
* ``run SPEC`` — expand the grid, execute it as a *campaign* (``--
  workers N``) memoized through a content-addressed run cache (default
  ``<out>/cache``, so an interrupted run resumes where it stopped — just
  re-run the same command; share one with ``--cache-dir`` so grown
  sweeps only compute new cells), writing ``runs.jsonl`` + aggregated
  ``summary.csv`` + ``campaign.json`` stats under ``--out`` (default
  ``results/<spec>/``) and printing the aggregate table;
* ``report SPEC`` — re-aggregate an existing ``runs.jsonl`` without
  re-running anything.

``runs.jsonl`` and ``summary.csv`` are byte-identical for any
``--workers`` value, across interruptions and across cache states —
see :mod:`repro.experiments.campaign` for the contract.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.experiments import campaign as campaign_mod
from repro.experiments import report as report_mod
from repro.experiments import runner as runner_mod
from repro.experiments.registry import get_scenario, scenario_names
from repro.experiments.specs import get_spec, spec_names
from repro.experiments.workloads import workload_names
from repro.metrics.tables import print_table


def _out_dir(args) -> pathlib.Path:
    if args.out is not None:
        return pathlib.Path(args.out)
    return pathlib.Path("results") / args.spec


def cmd_list(_args) -> int:
    rows = []
    for name in spec_names():
        spec = get_spec(name)
        rows.append([name, spec.workload, spec.size(), spec.description])
    print_table("Bundled experiment specs",
                ["spec", "workload", "runs", "description"], rows)
    rows = []
    for name in scenario_names():
        entry = get_scenario(name)
        schema = ", ".join(
            f"{p.name}:{p.kind.__name__}={p.default!r}"
            for p in entry.params) or "-"
        rows.append([name, schema, entry.summary])
    print_table("Registered scenarios",
                ["scenario", "parameters", "summary"], rows)
    print_table("Registered workloads", ["workload"],
                [[name] for name in workload_names()])
    return 0


def _campaign_progress_printer(verbose: bool, show_eta: bool):
    """Build the campaign's ``progress`` callback.

    Progress is *presentation only*: it prints to stderr from the
    collecting (parent) process in grid order, driven by wall-clock —
    none of it can reach ``runs.jsonl``/``telemetry.jsonl``, so the
    byte-identity contract is untouched.  ETA extrapolates over
    *executed* cells only (cache hits are near-free and would skew the
    rate).
    """
    import time
    started = time.perf_counter()
    hits = [0]
    executed = [0]

    def progress(event):
        total = event["total"]
        width = len(str(total))
        source = event["source"]
        if source == "cache":
            hits[0] += 1
            if not verbose:
                return    # hits are silent unless asked for
        else:
            executed[0] += 1
        parts = [f"[{event['done']:>{width}}/{total}]"]
        if hits[0]:
            parts.append(f"hits {hits[0]}")
        if show_eta and executed[0]:
            elapsed = time.perf_counter() - started
            remaining_cells = total - event["done"]
            rate = elapsed / executed[0]
            parts.append(f"eta {rate * remaining_cells:5.1f}s"
                         if remaining_cells else f"done {elapsed:5.1f}s")
        record = event["record"]
        if verbose:
            parts.append(
                f"{record['scenario']} {record['params']} "
                f"rep{record['repeat']} [{source}]"
                if record is not None else f"[{source}]")
        print("  " + " ".join(parts), file=sys.stderr)

    return progress


def _print_campaign(spec, result, args, out_dir) -> None:
    stats = result.stats
    print(f"campaign: total={stats.total} executed={stats.executed} "
          f"cache_hits={stats.cache_hits} "
          f"failures={len(stats.failures)}")
    records = result.records
    rows = report_mod.aggregate(records)
    wall = sum(r.timings.get("wall_s", 0.0) for r in result.results)
    print(report_mod.aggregate_table(
        f"{spec.name}: {len(records)} runs "
        f"(total simulated work {wall:.1f}s of wall-clock)", rows))
    print(f"\nwrote {result.jsonl_path} and {result.csv_path}")
    if args.telemetry:
        telemetry_path, timeline_path = runner_mod.write_telemetry(
            result.results, out_dir)
        print(f"wrote {telemetry_path} and {timeline_path}")


def cmd_run(args) -> int:
    spec = get_spec(args.spec)
    if args.seed is not None:
        import dataclasses
        spec = dataclasses.replace(spec, master_seed=args.seed)
    out_dir = _out_dir(args)
    total = spec.size()
    print(f"spec {spec.name!r}: {total} runs, workload "
          f"{spec.workload!r}, {args.workers} worker(s) -> {out_dir}"
          + (f" (cache {args.cache_dir})" if args.cache_dir else ""))

    progress = None
    if args.verbose or args.progress:
        progress = _campaign_progress_printer(verbose=args.verbose,
                                              show_eta=args.progress)

    try:
        result = campaign_mod.run_campaign(
            spec, out_dir, workers=args.workers, cache_dir=args.cache_dir,
            telemetry=args.telemetry, progress=progress)
    except campaign_mod.CampaignError as error:
        result = error.result
        _print_campaign(spec, result, args, out_dir)
        print(f"\ncampaign failed: {error}", file=sys.stderr)
        for failure in result.stats.failures:
            print(f"  {failure['label']}: {failure['error']}",
                  file=sys.stderr)
        print("(completed cells are cached — re-run the same command to "
              "retry only the failures)", file=sys.stderr)
        return 1
    _print_campaign(spec, result, args, out_dir)
    return 0


def cmd_report(args) -> int:
    out_dir = _out_dir(args)
    jsonl_path = out_dir / "runs.jsonl"
    if not jsonl_path.exists():
        print(f"no results at {jsonl_path}; run the spec first:\n"
              f"  python -m repro.experiments run {args.spec}",
              file=sys.stderr)
        return 1
    records = runner_mod.read_jsonl(jsonl_path)
    rows = report_mod.aggregate(records)
    csv_path = report_mod.write_csv(rows, out_dir / "summary.csv")
    print(report_mod.aggregate_table(
        f"{args.spec}: {len(records)} recorded runs", rows))
    print(f"\nwrote {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Declarative simulation sweeps: list, run, report.")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "list", help="show bundled specs, scenarios and workloads")

    run_parser = commands.add_parser(
        "run", help="execute a bundled spec and write JSONL + CSV")
    run_parser.add_argument("spec", help="bundled spec name")
    run_parser.add_argument("--workers", type=int, default=1,
                            help="worker processes (default 1; output is "
                                 "identical at any value)")
    run_parser.add_argument("--out", default=None,
                            help="output directory "
                                 "(default results/<spec>/)")
    run_parser.add_argument("--cache-dir", default=None,
                            help="content-addressed run cache (default "
                                 "<out>/cache; share one directory so "
                                 "grown sweeps only compute new cells)")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override the spec's master seed")
    run_parser.add_argument("--verbose", action="store_true",
                            help="print per-run progress to stderr")
    run_parser.add_argument("--progress", action="store_true",
                            help="print completed/total with ETA to "
                                 "stderr (never into recorded output)")
    run_parser.add_argument("--telemetry", action="store_true",
                            help="attach passive recorders and write "
                                 "telemetry.jsonl + timeline.csv next "
                                 "to runs.jsonl (recorded metrics are "
                                 "unchanged)")

    report_parser = commands.add_parser(
        "report", help="re-aggregate an existing runs.jsonl")
    report_parser.add_argument("spec", help="bundled spec name")
    report_parser.add_argument("--out", default=None,
                               help="results directory "
                                    "(default results/<spec>/)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"list": cmd_list, "run": cmd_run,
               "report": cmd_report}[args.command]
    return handler(args)

"""Experiment orchestration: declarative sweeps over the simulation.

The paper's evaluation is a *campaign* — discovery latency, handover
success and routing overhead measured across topologies, radio mixes and
node counts.  This package turns such campaigns into data:

* :mod:`~repro.experiments.registry` — scenario names → factories with
  typed parameter schemas;
* :mod:`~repro.experiments.spec` — :class:`ExperimentSpec`, a parameter
  grid (scenario × params × repeats) with per-run seeds derived from
  ``(master_seed, run label)``, independent of execution order;
* :mod:`~repro.experiments.workloads` — what a single run measures
  (discovery convergence, handover decay, scale rounds, …);
* :mod:`~repro.experiments.dispatch` — *where* cells execute:
  :class:`DispatchBackend` (inline serial, local process pool; the
  seam for SSH/cluster fan-out);
* :mod:`~repro.experiments.runner` — one cell's execution
  (``execute_point_outcome``) and the JSONL/telemetry sinks;
* :mod:`~repro.experiments.cache` — the content-addressed run cache
  (cell identity + package code fingerprint → finished record,
  cross-campaign), the only record of finished cells;
* :mod:`~repro.experiments.campaign` — ``run_campaign``, the one way to
  execute a spec: memoized, resumable, byte-identical JSONL output at
  any worker count;
* :mod:`~repro.experiments.report` — fold repeats into
  :class:`~repro.metrics.stats.Summary` rows, render tables and CSV;
* :mod:`~repro.experiments.specs` — the bundled campaigns
  (``demo_sweep`` and the benchmark-backing sweeps);
* :mod:`~repro.experiments.cli` — ``python -m repro.experiments
  list|run|report``.

Dataflow: spec → expand (grid of seeded run points) → campaign (cache
lookup per cell) → dispatch backend (workload per pending cell) →
cache put → JSONL sink → aggregate → CSV/tables.
"""

from repro.experiments.cache import CampaignCache, cache_key
from repro.experiments.campaign import (
    CampaignError,
    CampaignResult,
    CampaignStats,
    run_campaign,
)
from repro.experiments.dispatch import (
    DispatchBackend,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from repro.experiments.registry import (
    Param,
    ScenarioEntry,
    build_scenario,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.experiments.report import (
    AggregateRow,
    aggregate,
    aggregate_csv,
    aggregate_table,
    write_csv,
)
from repro.experiments.runner import (
    RunResult,
    execute_point_outcome,
    read_jsonl,
    write_jsonl,
)
from repro.experiments.spec import ExperimentSpec, RunPoint, run_label
from repro.experiments.specs import get_spec, register_spec, spec_names
from repro.experiments.workloads import (
    get_workload,
    register_workload,
    workload_names,
)

__all__ = [
    "AggregateRow",
    "CampaignCache",
    "CampaignError",
    "CampaignResult",
    "CampaignStats",
    "DispatchBackend",
    "ExperimentSpec",
    "Param",
    "ProcessPoolBackend",
    "RunPoint",
    "RunResult",
    "ScenarioEntry",
    "SerialBackend",
    "aggregate",
    "aggregate_csv",
    "aggregate_table",
    "build_scenario",
    "cache_key",
    "execute_point_outcome",
    "get_scenario",
    "get_spec",
    "get_workload",
    "make_backend",
    "read_jsonl",
    "register_scenario",
    "register_spec",
    "register_workload",
    "run_campaign",
    "run_label",
    "scenario_names",
    "spec_names",
    "workload_names",
    "write_csv",
    "write_jsonl",
]

"""The four benchmark workloads, driven through the public API.

Each workload function takes a seed (the runner passes one per world,
derived from the benchmark seed) and returns a :class:`Repetition`:
host-clock marks between its phases plus the *simulated* outputs the
repetition produced.  Everything the simulation sees — scenario seeds,
traffic, campaign ``master_seed``\\ s — is derived from that one seed,
so the same seed gives the same outputs (the runner digests them).
Host time is the only thing the benchmark measures; ``check``
functions hold the invariants that must be true for any seed.

Sizes are chosen so one repetition takes 1–8 host-seconds on a 2-core
machine, so that five or more fit one timed run.  Library calls go
through module attributes (``dtn.DtnOverlay``,
``experiments.run_campaign``) so the tracer's patches see them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import pathlib
import shutil
import statistics
import tempfile
import time
import typing

from repro import dtn, experiments
from repro.experiments import registry

#: Campaign outputs go to a fresh ``perf-campaign-*`` directory under
#: ``tempfile``'s directory, removed after every repetition.
WORK_PREFIX = "perf-campaign-"

#: Bundles injected by each DTN workload (``created`` must equal it).
MESSAGES = 40

#: The campaign specs ``campaign_sweeps`` runs: 53 cells.  ``phy_sweep``
#: is left out (``festival_lossy`` covers the PHY) and ``demo_sweep``
#: too (``plaza_discovery`` covers discovery).
CAMPAIGN_SPECS = ("dtn_sweep", "bandwidth_sweep", "fault_sweep",
                  "delay_sweep", "coverage_sweep", "handover_decay",
                  "contact_sweep")

#: PeerHood plaza density, people per square metre (the city_day one).
PLAZA_DENSITY = 500.0 / (120.0 * 120.0)


class InvariantError(ValueError):
    """A repetition's simulated outputs broke an invariant."""


@dataclasses.dataclass
class Repetition:
    """One repetition: ``perf_counter`` marks and simulated outputs.

    ``marks`` always holds ``start``, ``ready`` (set up), ``ran`` (run
    and detached) and ``done`` (outputs collected); the campaign adds
    ``warmed`` after its warm pass.  :data:`PHASES` turns them into
    host times.  ``outputs`` is JSON-safe and a pure function of the
    seed.
    """

    marks: dict[str, float]
    outputs: dict


#: Host-time phase -> the marks it lies between.
PHASES = {"setup_s": ("start", "ready"), "run_s": ("ready", "ran"),
          "warm_s": ("ran", "warmed"), "wall_s": ("start", "done")}


class Workload(typing.NamedTuple):
    """A workload function and the invariant check for its outputs."""

    run: typing.Callable[[int], Repetition]
    check: typing.Callable[[dict], None]


def derive_seed(seed: int, label: str) -> int:
    """A 32-bit seed for ``label``, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantError(message)


# ----------------------------------------------------------------------
# DTN workloads
# ----------------------------------------------------------------------
def _dtn_run(scenario_name: str, seed: int, params: dict, make_plane,
             size_bytes: int, ttl_s: float, window: tuple[float, float],
             until: float) -> Repetition:
    start = time.perf_counter()
    scenario = registry.build_scenario(scenario_name, seed, params)
    plane = make_plane(scenario)
    injections = dtn.generate_traffic(
        scenario.sim.rng("perf/traffic"), plane.live_nodes(), "uniform",
        MESSAGES, window=window, size_bytes=size_bytes, ttl_s=ttl_s)
    dtn.schedule_traffic(plane, injections)
    ready = time.perf_counter()
    scenario.run(until=until)
    plane.detach()
    ran = time.perf_counter()
    phy = scenario.world.phy
    outputs = {
        "counters": plane.counters.as_dict(),
        "deliveries": [[r.bundle_id, r.custodian, r.delivered_at]
                       for r in plane.delivered.values()],
        "phy": phy.counters.as_dict() if phy is not None else None,
    }
    return Repetition({"start": start, "ready": ready, "ran": ran,
                       "done": time.perf_counter()}, outputs)


def ferry_epidemic(seed: int, count: int = 150) -> Repetition:
    """Epidemic DTN over ``island_hopping_ferry``: cascade-bound."""
    return _dtn_run(
        "island_hopping_ferry", derive_seed(seed, "ferry_epidemic"),
        {"count": count},
        lambda scenario: dtn.DtnOverlay(
            scenario.world, dtn.make_router("epidemic"),
            meter=scenario.meter),
        size_bytes=512, ttl_s=300.0, window=(10.0, 240.0), until=480.0)


def festival_lossy(seed: int, count: int = 48) -> Repetition:
    """Bandwidth-limited epidemic DTN over ``lossy_festival``:
    event-bound (transfer legs, PHY decisions, mobility)."""
    return _dtn_run(
        "lossy_festival", derive_seed(seed, "festival_lossy"),
        {"count": count},
        lambda scenario: dtn.BandwidthDtnOverlay(
            scenario.world, dtn.make_router("epidemic"),
            meter=scenario.meter),
        size_bytes=200_000, ttl_s=480.0, window=(120.0, 300.0),
        until=600.0)


def check_dtn(outputs: dict) -> None:
    counters = outputs["counters"]
    _require(counters["created"] == MESSAGES,
             f"created {counters['created']} != {MESSAGES}")
    _require(counters["delivered"] <= counters["created"],
             "delivered more bundles than were created")
    _require(counters["delivered"] > 0, "delivery ratio is 0")


def check_festival(outputs: dict) -> None:
    check_dtn(outputs)
    phy = outputs["phy"]
    _require(phy is not None, "lossy_festival installed no PHY plane")
    _require(phy["offered"] >= phy["delivered"] + phy["lost_fading"]
             + phy["lost_collision"], "PHY resolved more than offered")
    _require(phy["captured"] <= phy["delivered"],
             "PHY captured more than delivered")


# ----------------------------------------------------------------------
# PeerHood discovery
# ----------------------------------------------------------------------
def plaza_discovery(seed: int, count: int = 100) -> Repetition:
    """PeerHood discovery (the paper's mechanism) on a dense plaza."""
    start = time.perf_counter()
    scenario = registry.build_scenario(
        "dense_plaza", derive_seed(seed, "plaza_discovery"),
        {"count": count, "area": math.sqrt(count / PLAZA_DENSITY)})
    scenario.start_all()
    ready = time.perf_counter()
    scenario.run(until=180.0)
    ran = time.perf_counter()
    outputs = {
        "awareness": [scenario.awareness_fraction(name)
                      for name in sorted(scenario.nodes)],
        "discovery_messages": scenario.meter.messages(category="discovery"),
        "discovery_bytes": scenario.meter.bytes(category="discovery"),
    }
    return Repetition({"start": start, "ready": ready, "ran": ran,
                       "done": time.perf_counter()}, outputs)


def check_plaza(outputs: dict) -> None:
    awareness = outputs["awareness"]
    _require(all(0.0 <= a <= 1.0 for a in awareness),
             "awareness fraction outside [0, 1]")
    _require(statistics.fmean(awareness) > 0.0, "mean awareness is 0")


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------
def campaign_sweeps(seed: int,
                    spec_names: typing.Sequence[str] = CAMPAIGN_SPECS
                    ) -> Repetition:
    """Bundled specs through ``run_campaign``: a cold pass, then a warm
    pass into fresh output directories that the shared cache serves."""
    start = time.perf_counter()
    work = pathlib.Path(tempfile.mkdtemp(prefix=WORK_PREFIX))
    try:
        specs = [dataclasses.replace(experiments.get_spec(name),
                                     master_seed=derive_seed(seed, name))
                 for name in spec_names]
        backend = experiments.SerialBackend()
        ready = time.perf_counter()
        cold = [experiments.run_campaign(
                    spec, work / "cold" / spec.name, backend=backend,
                    cache_dir=work / "cache") for spec in specs]
        ran = time.perf_counter()
        warm = [experiments.run_campaign(
                    spec, work / "warm" / spec.name, backend=backend,
                    cache_dir=work / "cache") for spec in specs]
        warmed = time.perf_counter()
        outputs = {}
        for spec, first, second in zip(specs, cold, warm):
            runs = first.jsonl_path.read_bytes()
            outputs[spec.name] = {
                "runs_sha256": hashlib.sha256(runs).hexdigest(),
                "warm_identical": second.jsonl_path.read_bytes() == runs,
                "cold": first.stats.as_dict(),
                "warm": second.stats.as_dict(),
            }
        done = time.perf_counter()
    finally:
        shutil.rmtree(work)
    return Repetition({"start": start, "ready": ready, "ran": ran,
                       "warmed": warmed, "done": done}, outputs)


def check_campaign(outputs: dict) -> None:
    for name, spec in outputs.items():
        cold, warm = spec["cold"], spec["warm"]
        _require(cold["failures"] == 0, f"{name}: cold pass had failures")
        _require(cold["executed"] == cold["total"],
                 f"{name}: cold pass executed {cold['executed']} of "
                 f"{cold['total']} cells")
        _require(warm["cache_hits"] == warm["total"],
                 f"{name}: warm pass hit the cache {warm['cache_hits']} of "
                 f"{warm['total']} times")
        _require(spec["warm_identical"],
                 f"{name}: warm runs.jsonl differs from the cold one")


#: Benchmark order; the runner visits them round-robin in this order.
WORKLOADS: dict[str, Workload] = {
    "ferry_epidemic": Workload(ferry_epidemic, check_dtn),
    "plaza_discovery": Workload(plaza_discovery, check_plaza),
    "festival_lossy": Workload(festival_lossy, check_festival),
    "campaign_sweeps": Workload(campaign_sweeps, check_campaign),
}

"""Bundled experiment specs: the campaigns shipped with the repo.

``demo_sweep`` is the reference campaign (the CLI quickstart and the
``make sweep`` target); the others back the paper-figure tests in
``tests/paper/`` and the benchmarks, which execute them through the
runner instead of hand-rolled loops.  Specs are plain data — copy one and edit the axes to make a
new campaign, or register your own via :func:`register_spec`.
"""

from __future__ import annotations

from repro.experiments.spec import ExperimentSpec

_SPECS: dict[str, ExperimentSpec] = {}


def register_spec(spec: ExperimentSpec) -> ExperimentSpec:
    """Register a spec under its own name; duplicates are an error."""
    if spec.name in _SPECS:
        raise ValueError(f"spec {spec.name!r} already registered")
    _SPECS[spec.name] = spec
    return spec


def spec_names() -> list[str]:
    """Registered spec names, sorted."""
    return sorted(_SPECS)


def get_spec(name: str) -> ExperimentSpec:
    """Look up a bundled spec; ``KeyError`` with the valid names."""
    try:
        return _SPECS[name]
    except KeyError:
        raise KeyError(f"unknown spec {name!r}; "
                       f"bundled: {spec_names()}") from None


#: The E2/E8-style discovery-and-handover sweep at multiple N:
#: 2 scenarios × 2 node counts × 2 radio mixes × 3 repeats = 24 runs.
register_spec(ExperimentSpec(
    name="demo_sweep",
    workload="discovery_handover",
    scenarios=("random_disc", "dense_plaza"),
    axes={
        "count": (16, 28),
        "technologies": (("bluetooth",), ("bluetooth", "wlan")),
    },
    repeats=3,
    master_seed=7,
    settings={"settle_s": 180.0, "messages": 20},
    description=("discovery convergence + a monitored stream, swept "
                 "over topology, N and radio mix")))

#: E4 (Fig. 3.10): change-notification delay vs jump count.
register_spec(ExperimentSpec(
    name="delay_sweep",
    workload="line_delay",
    scenarios=("line_topology",),
    axes={"count": (2, 3, 4)},
    repeats=3,
    master_seed=40,
    settings={"settle_s": 240.0},
    description="max change-notification delay along settled chains"))

#: E5b: discovery-scheme awareness on random discs.
register_spec(ExperimentSpec(
    name="coverage_sweep",
    workload="awareness_schemes",
    scenarios=("random_disc",),
    axes={"count": (10,), "mobility_class": ("static",)},
    repeats=3,
    master_seed=50,
    settings={"settle_s": 300.0},
    description="awareness fraction per discovery scheme (§3.1)"))

#: E8 (Fig. 5.8): the quality-decay handover campaign.
register_spec(ExperimentSpec(
    name="handover_decay",
    workload="handover_decay",
    scenarios=("fig_5_8_handover",),
    repeats=8,
    master_seed=80,
    settings={"settle_s": 200.0, "messages": 50},
    description="decay-driven routing handover, repeated Fig. 5.8 runs"))

#: The contact-trace scenario family: record pairwise LinkUp/LinkDown
#: streams across density regimes, purely event-driven (zero polling).
register_spec(ExperimentSpec(
    name="contact_sweep",
    workload="contact_trace",
    scenarios=("sparse_highway", "dense_plaza"),
    axes={"count": (12, 24), "technologies": (("wlan",),)},
    repeats=2,
    master_seed=90,
    settings={"duration_s": 120.0, "tech": "wlan"},
    description=("pairwise contact traces from the analytic crossing "
                 "solver, recorded without polling")))

#: The store-carry-forward campaign: every routing baseline on the DTN
#: scenario family, paired per run (same seed = same mobility and the
#: same injection schedule for each router).  The bench gates "epidemic
#: beats direct-delivery on delivery ratio" on this spec.
register_spec(ExperimentSpec(
    name="dtn_sweep",
    workload="dtn",
    scenarios=("commuter_corridor", "island_hopping_ferry"),
    axes={"count": (8, 14)},
    repeats=2,
    master_seed=130,
    settings={"duration_s": 480.0, "messages": 14, "ttl_s": 300.0,
              "routers": ("direct", "epidemic", "spray"),
              "spray_copies": 6},
    description=("DTN delivery ratio/latency/overhead: direct vs "
                 "epidemic vs spray-and-wait on partitioned worlds")))

#: The bandwidth-limited campaign: routers compared where contact
#: *duration* prices the byte budget.  Contacts run at a constrained
#: 24 kB/s effective rate moving 200 kB bundles (the §6 picture
#: payload), so each bus dwell carries only a handful of bundles per
#: villager — the regime where epidemic flooding wastes window bytes
#: and PRoPHET's predictability ranking pays.  The capacity bench
#: gates "PRoPHET ≥ epidemic on delivery ratio" on every run of this
#: grid.
register_spec(ExperimentSpec(
    name="bandwidth_sweep",
    workload="dtn_bandwidth",
    scenarios=("rural_bus_dtn",),
    axes={"count": (9, 12), "dwell_s": (20.0, 30.0)},
    repeats=2,
    master_seed=170,
    settings={"duration_s": 600.0, "messages": 24, "ttl_s": 480.0,
              "size_bytes": 200_000, "rate_Bps": 24_000.0,
              "routers": ("epidemic", "spray", "prophet"),
              "spray_copies": 6},
    description=("bandwidth-limited DTN delivery: epidemic vs spray vs "
                 "PRoPHET under per-contact byte budgets")))

#: The fault-tolerance campaign: the hostile corridor swept over the
#: crash-reboot rate with the remaining fault models at their hostile
#: defaults.  Traffic is uniform (the spared terminals would understate
#: the damage), so the axis measures how gracefully each routing
#: policy's delivery degrades as custodians die mid-carry.  The fault
#: bench gates zero-rate equivalence, monotone degradation and
#: "redundancy beats direct under crashes" on this spec.
register_spec(ExperimentSpec(
    name="fault_sweep",
    workload="dtn_faults",
    scenarios=("hostile_corridor",),
    axes={"crash_rate": (0.0, 0.2, 0.5)},
    repeats=3,
    master_seed=210,
    settings={"duration_s": 480.0, "messages": 14, "ttl_s": 300.0,
              "routers": ("direct", "spray", "prophet"),
              "spray_copies": 6, "pattern": "uniform"},
    description=("fault-injected DTN delivery: direct vs spray vs "
                 "PRoPHET as the crash-reboot rate rises")))

#: The lossy-PHY campaign: the crowded festival swept over the
#: shadowing sigma with collision/capture on.  The sigma axis measures
#: how epidemic's flooding advantage erodes when fading eats copies
#: and its own parallel sessions contend at shared receivers (the
#: zero-sigma column isolates pure collision loss).  The PHY params
#: enter the cache key by value like any other scenario axis, so each
#: sigma value has its own cached cells; the PHY bench's
#: zero-rate identity leg instead runs ``dtn_phy`` with *all* knobs at
#: zero (no plane installed) and byte-compares it to ``dtn_bandwidth``.
register_spec(ExperimentSpec(
    name="phy_sweep",
    workload="dtn_phy",
    scenarios=("crowded_festival",),
    axes={"shadowing_sigma_db": (0.0, 4.0, 8.0),
          "phy_collisions": (1,)},
    repeats=2,
    master_seed=250,
    settings={"duration_s": 480.0, "messages": 10, "ttl_s": 300.0,
              "size_bytes": 60_000, "rate_Bps": 24_000.0,
              "routers": ("epidemic", "spray"), "spray_copies": 6},
    description=("lossy-PHY DTN delivery: epidemic vs spray as "
                 "shadowing and collisions erode the radio channel")))

#: The production-scale gate: grid vs pairwise discovery at growing N.
register_spec(ExperimentSpec(
    name="scale_sweep",
    workload="scale_neighbors",
    scenarios=("dense_plaza",),
    axes={"count": (100, 300, 500)},
    repeats=1,
    master_seed=11,
    settings={"rounds": 3, "step_s": 15.0},
    description="spatial-grid vs O(N²) discovery rounds, constant density"))

"""Measurement workloads: what one run of a sweep actually does.

A workload is a named function executed once per :class:`~repro.
experiments.spec.RunPoint`: it builds the point's scenario (via the
registry, with the point's derived seed), drives the simulation, and
returns a flat dict of JSON-safe metrics.

Determinism contract: a workload's metrics must be a pure function of
the run point — no wall-clock times, object ids or iteration over
unordered containers.  Wall-clock measurements belong in the reserved
``"timings"`` key, which the runner strips from the JSONL record and
reports through the side channel (:attr:`RunResult.timings`), keeping
result files byte-identical across worker counts.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import time
import typing

from repro.baselines.previous_peerhood import (
    DirectOnlyDiscovery,
    FullMeshDiscovery,
    TwoJumpDiscovery,
    mean_awareness,
)
from repro.core.config import HandoverConfig
from repro.core.errors import ConnectionClosedError, PeerHoodError
from repro.core.handover import HandoverThread
from repro.dtn import (
    BandwidthDtnOverlay,
    DtnOverlay,
    generate_traffic,
    make_router,
    schedule_traffic,
)
from repro.experiments.registry import build_scenario
from repro.experiments.spec import RunPoint
from repro.metrics.counters import FaultCounters, PhyCounters
from repro.radio.channel import OutOfRange
from repro.radio.technologies import BLUETOOTH
from repro.scenarios.large_scale import CITY_DENSITY_PER_M2
from repro.scenarios.topologies import LINE_SPACING_M
from repro.scenarios.traces import record_contact_trace, trace_digest

Metrics = typing.Dict[str, object]

_WORKLOADS: dict[str, typing.Callable[[RunPoint], Metrics]] = {}
_SETTINGS: dict[str, frozenset[str]] = {}


def register_workload(name: str, settings: typing.Iterable[str] = ()):
    """Decorator registering a workload function under ``name`` that
    reads the setting names ``settings`` (see :func:`check_settings`)."""
    def decorate(fn):
        if name in _WORKLOADS:
            raise ValueError(f"workload {name!r} already registered")
        _WORKLOADS[name] = fn
        _SETTINGS[name] = frozenset(settings)
        return fn
    return decorate


def workload_names() -> list[str]:
    """Registered workload names, sorted."""
    return sorted(_WORKLOADS)


def get_workload(name: str):
    """Look up a workload; ``KeyError`` with the valid names."""
    try:
        return _WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; "
                       f"registered: {workload_names()}") from None


def check_settings(name: str, settings: typing.Iterable[str]) -> None:
    """``KeyError`` listing the valid names when ``settings`` holds one
    that workload ``name`` never reads (a typo would otherwise run the
    default silently)."""
    get_workload(name)
    unknown = sorted(set(settings) - _SETTINGS[name])
    if unknown:
        raise KeyError(
            f"workload {name!r} has no setting(s) {unknown} "
            f"(has: {sorted(_SETTINGS[name]) or 'none'})")


def _sink_service(node, delivered: list) -> None:
    """Register a 'print'-style sink service collecting messages."""
    def handler(connection):
        def serve(connection=connection):
            while True:
                try:
                    message = yield from connection.read()
                except ConnectionClosedError:
                    return
                delivered.append(message)
        return serve()
    node.library.register_service("sink", handler)


# ----------------------------------------------------------------------
# discovery_handover: the E2/E8-style combined sweep cell
# ----------------------------------------------------------------------
@register_workload("discovery_handover", settings=("settle_s", "messages"))
def discovery_handover(point: RunPoint) -> Metrics:
    """Discovery settle, then a monitored stream over the fabric.

    After awareness converges, the (deterministically) first node opens
    a connection to the first peer in its DeviceStorage, attaches a
    :class:`HandoverThread`, and streams ``messages`` one-per-second —
    the E8 shape, generalised to any scenario.  Metrics cover both
    phases: awareness/overhead plus delivery and handover counts.
    """
    settle_s = float(point.settings.get("settle_s", 180.0))
    message_count = int(point.settings.get("messages", 20))
    scenario = build_scenario(point.scenario, point.seed, point.params)
    delivered: list = []
    for name in sorted(scenario.nodes):
        _sink_service(scenario.nodes[name], delivered)
    scenario.start_all()
    scenario.run(until=settle_s)

    names = sorted(scenario.nodes)
    fractions = [scenario.awareness_fraction(name) for name in names]
    metrics: Metrics = {
        "nodes": len(names),
        "awareness_mean": statistics.fmean(fractions),
        "discovery_messages": scenario.meter.messages(category="discovery"),
        "connected": 0,
        "delivered": 0,
        "handovers": 0,
    }

    client = scenario.nodes[names[0]]
    peers = [d.address for d in client.daemon.storage.devices()]
    if not peers:
        return metrics

    def stream(sim):
        try:
            connection = yield from client.library.connect(
                peers[0], "sink", retries=4)
        except (PeerHoodError, OutOfRange):
            # Expected mobile-world outcomes (no route, target gone,
            # bridge refused, peer drifted out of coverage mid-connect)
            # record as connected=0; genuine bugs propagate and fail
            # the run.
            return None
        thread = HandoverThread(client.library, connection).start()
        for index in range(message_count):
            if not connection.is_open:
                break
            connection.write(f"sweep {index}", 64)
            yield sim.timeout(1.0)
        yield sim.timeout(2.0)
        thread.stop()
        return connection

    connection = scenario.run_process(stream(scenario.sim))
    if connection is not None:
        metrics.update({
            "connected": 1,
            "delivered": len(delivered),
            "handovers": connection.handovers,
        })
    return metrics


# ----------------------------------------------------------------------
# line_delay: E4 — change-notification delay along a settled chain
# ----------------------------------------------------------------------
@register_workload("line_delay", settings=("settle_s",))
def line_delay(point: RunPoint) -> Metrics:
    """Fig. 3.10 cell: when does n0 learn of a far-end newcomer?"""
    settle_s = float(point.settings.get("settle_s", 240.0))
    scenario = build_scenario(point.scenario, point.seed, point.params)
    chain_length = len(scenario.nodes)
    newcomer = scenario.add_node(
        "newcomer",
        position=((chain_length - 1) * LINE_SPACING_M + 6.0, 4.0))
    for name, node in scenario.nodes.items():
        if name != "newcomer":
            node.start()
    scenario.run(until=settle_s)
    appeared_at = scenario.sim.now
    newcomer.start()
    observer = scenario.node("n0")

    def watch(sim):
        deadline = sim.now + 40 * BLUETOOTH.search_cycle_s
        while sim.now < deadline:
            if observer.daemon.storage.get(newcomer.address) is not None:
                return sim.now - appeared_at
            yield sim.timeout(1.0)
        return None

    process = scenario.sim.spawn(watch(scenario.sim))
    delay = scenario.sim.run(until=process)
    return {
        "jumps": chain_length - 1,
        "detected": 1 if delay is not None else 0,
        "delay_s": delay,
    }


# ----------------------------------------------------------------------
# awareness_schemes: E5 — discovery-scheme comparison on one layout
# ----------------------------------------------------------------------
@register_workload("awareness_schemes", settings=("settle_s",))
def awareness_schemes(point: RunPoint) -> Metrics:
    """Awareness fraction under each discovery scheme (§3.1 oracles)."""
    settle_s = float(point.settings.get("settle_s", 300.0))
    scenario = build_scenario(point.scenario, point.seed, point.params)
    names = sorted(scenario.nodes)
    direct = DirectOnlyDiscovery(scenario.world, BLUETOOTH)
    two_jump = TwoJumpDiscovery(scenario.world, BLUETOOTH)
    full = FullMeshDiscovery(scenario.world, BLUETOOTH)
    scenario.start_all()
    scenario.run(until=settle_s)
    return {
        "nodes": len(names),
        "direct_only": mean_awareness(direct.aware_of, names),
        "two_jump": mean_awareness(two_jump.aware_of, names),
        "dynamic_oracle": mean_awareness(full.aware_of, names),
        "dynamic_measured": mean_awareness(scenario.awareness, names),
    }


# ----------------------------------------------------------------------
# handover_decay: E8 — the Fig. 5.8 quality-decay handover run
# ----------------------------------------------------------------------
@register_workload("handover_decay",
                   settings=("settle_s", "messages", "event_driven"))
def handover_decay(point: RunPoint) -> Metrics:
    """One Fig. 5.8 decay run: degrade A–B until handover fires.

    ``settings["event_driven"]`` selects the state-1 monitor mode
    (default True); the equivalence test runs the same spec in both
    modes and asserts the decision metrics match.
    """
    settle_s = float(point.settings.get("settle_s", 200.0))
    message_count = int(point.settings.get("messages", 50))
    event_driven = bool(point.settings.get("event_driven", True))
    scenario = build_scenario(point.scenario, point.seed, point.params)
    server, client = scenario.node("A"), scenario.node("B")
    delivered: list = []
    _sink_service(server, delivered)
    scenario.start_all()
    scenario.run(until=settle_s)
    if not scenario.wait_for_route("B", "A"):
        return {"route_found": 0, "fired": 0}

    def client_run(sim):
        connection = yield from client.library.connect(
            server.address, "sink", retries=6)
        scenario.world.install_linear_decay(
            "A", "B", BLUETOOTH, initial_quality=240)
        thread = HandoverThread(
            client.library, connection,
            config=HandoverConfig(event_driven=event_driven)).start()
        for index in range(message_count):
            connection.write(f"good morning! {index}", 64)
            yield sim.timeout(1.0)
        yield sim.timeout(5.0)
        thread.stop()
        return connection, thread

    connection, thread = scenario.run_process(client_run(scenario.sim))
    handover = scenario.trace.first("routing-handover")
    lows_before = [e for e in scenario.trace.events("signal-low")
                   if handover and e.time <= handover.time]
    return {
        "route_found": 1,
        "fired": 1 if thread.handovers_done >= 1 else 0,
        "duration_s": handover.detail["duration"] if handover else None,
        "lows_before": len(lows_before),
        "delivered": len(delivered),
        "monitor_wakeups": thread.monitor_wakeups,
        "reestablished": scenario.trace.count(
            "connection-reestablished", node="A"),
    }


# ----------------------------------------------------------------------
# contact_trace: record the pairwise connectivity-event stream
# ----------------------------------------------------------------------
@register_workload("contact_trace", settings=("duration_s", "tech"))
def contact_trace(point: RunPoint) -> Metrics:
    """Record a contact trace of the scenario's geometry, zero polling.

    One repeating link watch per node pair; the kernel wakes only at
    predicted crossings.  ``settings``: ``duration_s`` (default 120),
    ``tech`` (default bluetooth).  The digest is a deterministic
    fingerprint of the canonical serialisation.
    """
    duration_s = float(point.settings.get("duration_s", 120.0))
    tech = str(point.settings.get("tech", "bluetooth"))
    scenario = build_scenario(point.scenario, point.seed, point.params)
    rows = record_contact_trace(scenario, tech, until=duration_s)
    kinds = [row["kind"] for row in rows]
    stats = scenario.world.stats.bus
    return {
        "nodes": len(scenario.nodes),
        "events": len(rows),
        "link_ups": kinds.count("link-up"),
        "link_downs": kinds.count("link-down"),
        "digest": trace_digest(rows),
        "bus_scheduled": stats.scheduled,
        "bus_fired": stats.fired,
        "bus_cancelled": stats.cancelled,
        "bus_rescheduled": stats.rescheduled,
    }


# ----------------------------------------------------------------------
# paired DTN: every router on identical mobility + traffic
# ----------------------------------------------------------------------
#: The terminal pair of the ``endpoints`` pattern (the commuter
#: corridor's), which ``auto`` picks when both are plane nodes.
_ENDPOINTS = ("home", "work")


def _resolve_pattern(pattern: str, nodes: typing.Sequence[str]) -> str:
    """``"auto"`` picks the pattern the scenario was built for."""
    if pattern != "auto":
        return pattern
    if set(_ENDPOINTS) <= set(nodes):
        return "endpoints"
    if "source" in nodes:
        return "broadcast"
    return "uniform"


@dataclasses.dataclass(frozen=True)
class DtnPreset:
    """What one registered alias of :func:`paired_dtn` runs and reports.

    ``defaults`` fill every setting a run point leaves out.
    ``inject_start_s`` opens the traffic window, which closes at half
    the run's duration.  ``overlay`` is the data plane each router leg
    attaches, on Bluetooth; the
    bandwidth-limited :class:`~repro.dtn.capacity.BandwidthDtnOverlay`
    also reads ``rate_Bps`` and reports it plus ``*_control_bytes``.
    ``counters`` names the per-router
    :class:`~repro.metrics.counters.DtnCounters` fields to report.
    ``plane`` (``"faults"`` or ``"phy"``) adds that optional plane's
    per-router counter block, all zeros when the scenario installed no
    plane.
    """

    defaults: typing.Mapping[str, object]
    inject_start_s: float
    overlay: type
    counters: tuple[str, ...]
    plane: str | None = None


_DTN_DEFAULTS = {
    "duration_s": 480.0, "messages": 16, "ttl_s": 300.0,
    "size_bytes": 512, "routers": ("direct", "epidemic", "spray"),
    "spray_copies": 6, "pattern": "auto",
}
_BANDWIDTH_DEFAULTS = {
    **_DTN_DEFAULTS, "duration_s": 600.0, "messages": 24,
    "ttl_s": 480.0, "size_bytes": 200_000,
    "routers": ("epidemic", "spray", "prophet"), "rate_Bps": 0.0,
}
_TRANSFER_COUNTERS = ("bytes_offered", "bytes_transferred",
                      "transfers_truncated", "transfers_cancelled")

#: The registered paired-DTN workloads: one function, four presets.
DTN_PRESETS: dict[str, DtnPreset] = {
    # The routing-baseline comparison (``dtn_sweep``).
    "dtn": DtnPreset(_DTN_DEFAULTS, 10.0, DtnOverlay,
                     ("duplicates", "expired", "evicted")),
    # Robustness under repro.faults (``fault_sweep``): the multi-copy
    # and predictive routers are the ones faults should separate, and
    # traffic is uniform because endpoint terminals are never faulted.
    "dtn_faults": DtnPreset(
        {**_DTN_DEFAULTS, "routers": ("direct", "spray", "prophet"),
         "pattern": "uniform"},
        10.0, DtnOverlay, ("duplicates", "expired", "dropped_dead"),
        "faults"),
    # Finite contact byte budgets (``bandwidth_sweep``).
    "dtn_bandwidth": DtnPreset(_BANDWIDTH_DEFAULTS, 120.0,
                               BandwidthDtnOverlay, _TRANSFER_COUNTERS),
    # The lossy PHY (``phy_sweep``): the pair whose gap contention
    # erodes.
    "dtn_phy": DtnPreset(
        {**_BANDWIDTH_DEFAULTS, "routers": ("epidemic", "spray")},
        120.0, BandwidthDtnOverlay, _TRANSFER_COUNTERS, "phy"),
}

#: Optional plane -> (its counters when absent, metric -> counter field).
_PLANE_BLOCKS = {
    "faults": (FaultCounters, {"crashes": "crashes", "reboots": "reboots",
                               "jammed": "jammed_deliveries",
                               "byzantine": "byzantine_beacons"}),
    "phy": (PhyCounters, {f"phy_{field}": field for field in (
        "offered", "delivered", "lost_fading", "lost_collision",
        "captured")}),
}


def paired_dtn(point: RunPoint, preset: DtnPreset) -> Metrics:
    """Paired DTN comparison: every router on identical mobility+traffic.

    For each name in ``settings["routers"]`` the workload rebuilds the
    point's scenario with the *same* seed — identical node paths — and
    replays the *same* deterministic injection schedule through a fresh
    ``preset.overlay``, so router metrics differ only by routing policy
    (a paired comparison, which is what lets the DTN benches gate e.g.
    "epidemic beats direct on delivery ratio" per run rather than
    statistically).  Identical paths mean identical contact geometry,
    so the cell's legs share one
    :attr:`~repro.radio.contacts.ContactSolver.crossings` table, made
    here and dropped when the cell returns: a later leg solves only the
    link crossings no earlier leg asked for.  The point's scenario
    params switch the optional fault and PHY planes on; at zero knobs
    no plane is installed and the metrics two presets share are
    byte-identical.

    ``settings`` (defaults from the preset): ``duration_s``,
    ``messages`` (for the broadcast pattern this is *rounds*),
    ``ttl_s``, ``size_bytes``, ``routers``, ``spray_copies``,
    ``pattern`` (``auto``: endpoints if a terminal pair exists,
    broadcast if ``source`` exists, else uniform) and, on the bandwidth
    overlay, ``rate_Bps`` (0 = the technology's own rate).
    """
    settings = {**preset.defaults, **point.settings}
    duration_s = float(settings["duration_s"])
    messages = int(settings["messages"])
    ttl_s = float(settings["ttl_s"])
    size_bytes = int(settings["size_bytes"])
    spray_copies = int(settings["spray_copies"])
    pattern = str(settings["pattern"])
    window = (preset.inject_start_s, duration_s / 2.0)
    overlay_kwargs: dict[str, object] = {}
    bandwidth = issubclass(preset.overlay, BandwidthDtnOverlay)
    if bandwidth:
        overlay_kwargs["data_rate_Bps"] = (
            float(settings["rate_Bps"]) or None)
    metrics: Metrics = {}
    crossings: dict = {}
    for router_name in list(settings["routers"]):
        scenario = build_scenario(point.scenario, point.seed, point.params)
        scenario.world.contacts.crossings = crossings
        plane = preset.overlay(
            scenario.world,
            make_router(router_name, spray_copies=spray_copies),
            meter=scenario.meter, **overlay_kwargs)
        nodes = plane.live_nodes()
        resolved = _resolve_pattern(pattern, nodes)
        injections = generate_traffic(
            scenario.sim.rng("dtn/traffic"), nodes, resolved, messages,
            window=window, size_bytes=size_bytes,
            ttl_s=ttl_s, source="source" if "source" in nodes else None,
            endpoints=_ENDPOINTS if resolved == "endpoints" else None)
        schedule_traffic(plane, injections)
        scenario.run(until=duration_s)
        plane.detach()

        latencies = plane.latencies()
        counters = plane.counters
        metrics.update({
            "nodes": len(nodes),
            "pattern_" + resolved: 1,
            "created": counters.created,
            f"{router_name}_delivery_ratio": plane.delivery_ratio(),
            f"{router_name}_delivered": counters.delivered,
            f"{router_name}_latency_mean":
                statistics.fmean(latencies) if latencies else None,
            f"{router_name}_transmissions": counters.transmissions,
            f"{router_name}_overhead": plane.overhead_ratio(),
            f"{router_name}_wakeups": plane.wakeups,
        })
        for field in preset.counters:
            metrics[f"{router_name}_{field}"] = getattr(counters, field)
        if bandwidth:
            metrics["rate_Bps"] = plane.data_rate_Bps
            metrics[f"{router_name}_control_bytes"] = scenario.meter.bytes(
                category="dtn-control")
        if preset.plane is not None:
            installed = getattr(scenario.world, preset.plane)
            absent, block = _PLANE_BLOCKS[preset.plane]
            plane_counters = (installed.counters if installed is not None
                              else absent())
            for key, field in block.items():
                metrics[f"{router_name}_{key}"] = getattr(plane_counters,
                                                          field)
            if preset.plane == "faults":
                metrics["fault_events"] = (
                    len(installed.schedule) if installed is not None
                    else 0)
    return metrics


for _name, _preset in DTN_PRESETS.items():
    register_workload(_name, settings=_preset.defaults)(
        functools.partial(paired_dtn, preset=_preset))


# ----------------------------------------------------------------------
# scale_neighbors: grid vs pairwise discovery rounds at constant density
# ----------------------------------------------------------------------
@register_workload("scale_neighbors", settings=("rounds", "step_s"))
def scale_neighbors(point: RunPoint) -> Metrics:
    """Full discovery rounds, spatial grid vs the O(N²) baseline.

    The plaza's area is derived from
    :data:`~repro.scenarios.large_scale.CITY_DENSITY_PER_M2` so each
    node's true neighbour count stays flat while N grows.  Distance-check
    counts are deterministic metrics; per-implementation wall-clock
    goes in ``"timings"`` (stripped from result records).
    """
    rounds = int(point.settings.get("rounds", 3))
    step_s = float(point.settings.get("step_s", 15.0))
    count = int(point.params["count"])
    params = dict(point.params)
    params["area"] = (count / CITY_DENSITY_PER_M2) ** 0.5
    scenario = build_scenario(point.scenario, point.seed, params)
    world = scenario.world
    grid_checks = brute_checks = 0
    grid_seconds = brute_seconds = 0.0
    for _ in range(rounds):
        scenario.sim.timeout(step_s)
        scenario.sim.run()
        ids = world.node_ids()

        world.stats.reset()
        started = time.perf_counter()
        grid_round = [world.neighbors(node_id, BLUETOOTH)
                      for node_id in ids]
        grid_seconds += time.perf_counter() - started
        grid_checks += world.stats.distance_checks

        world.stats.reset()
        started = time.perf_counter()
        brute_round = [world.neighbors_brute_force(node_id, BLUETOOTH)
                       for node_id in ids]
        brute_seconds += time.perf_counter() - started
        brute_checks += world.stats.distance_checks

        if grid_round != brute_round:
            raise AssertionError(
                f"grid and pairwise neighbor sets diverged at N={count}")
    return {
        "nodes": count,
        "rounds": rounds,
        "grid_checks": grid_checks // rounds,
        "brute_checks": brute_checks // rounds,
        "timings": {
            "grid_ms": 1000.0 * grid_seconds / rounds,
            "brute_ms": 1000.0 * brute_seconds / rounds,
        },
    }

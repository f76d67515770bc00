"""Outside-in layer tracing: spans around calls into each layer.

Nothing under ``src/`` knows about this module.  For one traced
repetition :func:`install` patches the public functions of every layer
on their class or module, and :meth:`Tracer.restore` puts every original
back.  Spans live on an in-memory stack timed with ``perf_counter_ns``;
a span's self time is its duration minus its child spans, summed per
layer, so the per-layer self times add up to the traced wall time.

Callbacks handed to the kernel (``Simulator.call_at``), process
generators (``Simulator.spawn``, one span per resumption) and bus watch
callbacks are wrapped too, each span labelled with the layer of the
module that *defines* the callback.  DTN cascade work fired from a bus
event is therefore billed to ``dtn.*``, not to ``radio.bus``.

Wrappers change no behaviour: they return what the original returns,
never materialise an iterator and do not reorder anything, so a traced
repetition's simulated outputs equal an untraced one's (the runner
checks the digests).  Hot one-line queries are not timed: some are not
wrapped at all and counted at a coarser boundary (``Bundle.expired``
through ``dtn.store.entries_scanned``), ``MobilityModel.position`` is
counted without a span.  Their time bills to the caller's layer.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time
import typing

from repro.core.daemon import Daemon
from repro.core.device_storage import DeviceStorage
from repro.dtn.forwarder import DtnOverlay, DtnPlane
from repro.dtn.routing import Router
from repro.dtn.store import MessageStore
from repro.dtn.traffic import generate_traffic, schedule_traffic
from repro.experiments.cache import CampaignCache
from repro.experiments.campaign import run_campaign
from repro.experiments.registry import build_scenario
from repro.experiments.runner import execute_point_outcome
from repro.faults.plane import FaultPlane
from repro.mobility.base import MobilityModel
from repro.radio.bus import ConnectivityBus
from repro.radio.contacts import ContactSolver
from repro.radio.phy import PhyPlane
from repro.radio.world import World
from repro.scenarios.builder import Scenario
from repro.sim.kernel import Simulator

_now_ns = time.perf_counter_ns

#: Label of the benchmark's own root span (time outside every layer).
ROOT = "perf"

#: Layers finer than a top-level package, most specific first.  Any
#: other ``repro.<package>...`` module belongs to layer ``<package>``.
LAYERS = ("core.device_storage", "dtn.routing", "dtn.store",
          "dtn.forwarder", "dtn.capacity", "radio.bus", "radio.contacts",
          "radio.world", "radio.phy")

Tally = typing.Callable[[collections.Counter, tuple, dict, object], None]


def layer_of(module: str | None) -> str:
    """The layer a ``repro`` module belongs to (``"other"`` outside)."""
    if not module or not module.startswith("repro."):
        return "other"
    path = module[len("repro."):]
    for layer in LAYERS:
        if path == layer or path.startswith(layer + "."):
            return layer
    return path.split(".")[0]


def _key(fn) -> str:
    """The probe key of a module function."""
    return f"{fn.__module__}.{fn.__qualname__}"


class Tracer:
    """Span stack, per-layer self time, inclusive time and counts."""

    def __init__(self) -> None:
        #: layer → summed self time, ns
        self.self_ns: collections.Counter = collections.Counter()
        #: probe key → inclusive time of its outermost calls, ns
        self.inclusive_ns: collections.Counter = collections.Counter()
        #: counter name → count
        self.counts: collections.Counter = collections.Counter()
        #: every World built while tracing (its stats are read at the end)
        self.worlds: list[World] = []
        self._stack: list[list] = []     # [label, start_ns, child_ns]
        self._outer: set[str] = set()    # probe keys with a call open
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------
    def enter(self, label: str) -> None:
        self._stack.append([label, _now_ns(), 0])

    def exit(self) -> int:
        """Close the innermost span; returns its duration in ns."""
        label, start, child = self._stack.pop()
        elapsed = _now_ns() - start
        self.self_ns[label] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    def probe(self, fn, label: str, key: str,
              tally: Tally | None = None):
        """``fn`` wrapped in a span.  Nested calls under the same ``key``
        (a subclass override calling ``super()``) open spans but count
        and add inclusive time only once, at the outermost call."""
        enter, exit_, outer = self.enter, self.exit, self._outer
        inclusive, counts = self.inclusive_ns, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            first = key not in outer
            if first:
                outer.add(key)
            enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = exit_()
                if first:
                    outer.discard(key)
                    inclusive[key] += elapsed
            if first and tally is not None:
                tally(counts, args, kwargs, result)
            return result
        return wrapper

    def traced(self, target):
        """A callback or generator wrapped so each call or resumption is
        a span of the layer that defines it.  Anything else (``None``)
        passes through unchanged."""
        if inspect.isgenerator(target):
            frame = target.gi_frame
            module = frame.f_globals.get("__name__") if frame else None
            return _TracedGenerator(target, layer_of(module), self)
        if not callable(target):
            return target
        inner = target.func if isinstance(target, functools.partial) \
            else target
        label = layer_of(getattr(inner, "__module__", None))
        enter, exit_, counts = self.enter, self.exit, self.counts

        def callback(*args, **kwargs):
            counts[label + ".callbacks"] += 1
            enter(label)
            try:
                return target(*args, **kwargs)
            finally:
                exit_()
        return callback

    # -- patching -------------------------------------------------------
    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def patch_method(self, cls: type, name: str, label: str | None = None,
                     tally: Tally | None = None) -> None:
        """Probe ``name`` on ``cls`` and on every subclass defining it."""
        key = f"{cls.__qualname__}.{name}"
        for owner in _family(cls):
            original = vars(owner).get(name)
            if inspect.isfunction(original):
                self._set(owner, name, self.probe(
                    original, label or layer_of(original.__module__), key,
                    tally))

    def count_method(self, cls: type, name: str, counter: str) -> None:
        """Count calls of ``name`` on ``cls`` and its subclasses without
        a span: for hot one-line methods, whose time a span would
        mostly replace with its own.  Their time bills to the caller."""
        counts = self.counts
        for owner in _family(cls):
            original = vars(owner).get(name)
            if inspect.isfunction(original):
                self._set(owner, name, _counted(original, counts, counter))

    def patch_function(self, fn, label: str | None = None,
                       tally: Tally | None = None) -> None:
        """Probe a module function under every ``repro`` name bound to it."""
        wrapper = self.probe(fn, label or layer_of(fn.__module__), _key(fn),
                             tally)
        for module_name, module in list(sys.modules.items()):
            if module_name != "repro" and not module_name.startswith(
                    "repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def wrap_arguments(self, cls: type, name: str, *params: str) -> None:
        """Pass the named callable arguments of ``cls.name`` through
        :meth:`traced` before the original runs."""
        original = vars(cls)[name]
        positions = list(inspect.signature(original).parameters)
        slots = [(positions.index(param), param) for param in params]
        traced = self.traced

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            args = list(args)
            for index, param in slots:
                if param in kwargs:
                    kwargs[param] = traced(kwargs[param])
                elif index < len(args):
                    args[index] = traced(args[index])
            return original(*args, **kwargs)
        self._set(cls, name, wrapper)

    def restore(self) -> None:
        """Put back every patched attribute, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


class _TracedGenerator:
    """A process generator whose every resumption is one span."""

    __slots__ = ("_generator", "_label", "_tracer")

    def __init__(self, generator, label: str, tracer: Tracer):
        self._generator = generator
        self._label = label
        self._tracer = tracer

    def send(self, value):
        self._tracer.enter(self._label)
        try:
            return self._generator.send(value)
        finally:
            self._tracer.exit()

    def throw(self, *exc_info):
        self._tracer.enter(self._label)
        try:
            return self._generator.throw(*exc_info)
        finally:
            self._tracer.exit()

    def __getattr__(self, name):
        return getattr(self._generator, name)


def _counted(fn, counts: collections.Counter, counter: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[counter] += 1
        return fn(*args, **kwargs)
    return wrapper


def _family(cls: type) -> list[type]:
    """``cls`` and all its subclasses, parents first."""
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _family(sub) if c not in found)
    return found


# ----------------------------------------------------------------------
# the probes
# ----------------------------------------------------------------------
def _count(name: str, size=None) -> Tally:
    """Tally adding 1 (or ``size(args, kwargs, result)``) to ``name``."""
    def tally(counts, args, kwargs, result):
        counts[name] += 1 if size is None else size(args, kwargs, result)
    return tally


def _arg(index: int, name: str):
    return lambda args, kwargs: (kwargs[name] if name in kwargs
                                 else args[index])


def _tally_offers(counts, args, kwargs, result) -> None:
    # Routers return lists; len() reads the size without iterating.
    counts["dtn.routing.exchanges"] += 1
    if len(result):
        counts["dtn.routing.useful"] += 1


def _tally_expire(counts, args, kwargs, result) -> None:
    counts["dtn.store.expire_calls"] += 1
    counts["dtn.store.entries_scanned"] += len(args[0]) + len(result)


def _tally_analyze(counts, args, kwargs, result) -> None:
    counts["core.device_storage.analyze_calls"] += 1
    counts["core.device_storage.entries_analyzed"] += len(
        _arg(2, "entries")(args, kwargs))


def _tally_cache_get(counts, args, kwargs, result) -> None:
    if result is not None:
        counts["experiments.cache_hits"] += 1


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics read."""
    pairs = _arg(1, "pairs")
    # Callback attribution first, so the spans below wrap these shims.
    tracer.wrap_arguments(Simulator, "call_at", "callback")
    tracer.wrap_arguments(Simulator, "spawn", "generator")
    for name in ("watch_link", "watch_link_down", "watch_quality_below",
                 "watch_links_batch"):
        tracer.wrap_arguments(ConnectivityBus, name, "callback",
                              "on_cancel")

    tracer.patch_method(Simulator, "run")
    tracer.patch_method(Simulator, "step", tally=_count("sim.events"))

    for name in ("watch_link", "watch_link_down", "watch_quality_below"):
        tracer.patch_method(ConnectivityBus, name,
                            tally=_count("radio.bus.watches"))
    tracer.patch_method(ConnectivityBus, "watch_links_batch", tally=_count(
        "radio.bus.watches", lambda a, k, r: len(pairs(a, k))))
    for name in ("cancel", "cancel_node", "invalidate_pair", "suspend_node",
                 "resume_node"):
        tracer.patch_method(ConnectivityBus, name)

    solves = _count("radio.contacts.solves")
    tracer.patch_method(ContactSolver, "next_link_crossing", tally=solves)
    tracer.patch_method(ContactSolver, "next_quality_crossing", tally=solves)
    tracer.patch_method(ContactSolver, "next_link_crossings_batch",
                        tally=_count("radio.contacts.solves",
                                     lambda a, k, r: len(pairs(a, k))))
    tracer.patch_method(ContactSolver, "pair_settled")

    tracer.patch_method(World, "__init__", tally=lambda c, a, k, r:
                        tracer.worlds.append(a[0]))
    tracer.patch_method(World, "in_range",
                        tally=_count("radio.world.in_range_calls"))
    for name in ("add_node", "remove_node", "suspend_node", "resume_node",
                 "in_range_raw", "neighbors", "position", "distance",
                 "link_quality", "link_quality_at", "set_quality_override",
                 "mark_inquiring", "heard_during_scan",
                 "discoverable_neighbors"):
        tracer.patch_method(World, name)

    for name in ("begin", "resolve", "transmit"):
        tracer.patch_method(PhyPlane, name)

    tracer.count_method(MobilityModel, "position", "mobility.position_calls")
    tracer.patch_method(MobilityModel, "linear_segments",
                        tally=_count("mobility.segment_calls"))
    tracer.patch_method(MobilityModel, "active_piece")

    tracer.patch_method(DtnOverlay, "__init__")
    tracer.patch_method(DtnOverlay, "detach")
    tracer.patch_method(DtnPlane, "contact_up",
                        tally=_count("dtn.forwarder.contact_ups"))
    tracer.patch_method(DtnPlane, "contact_down")
    tracer.patch_method(DtnPlane, "send")
    tracer.patch_method(Router, "offers", tally=_tally_offers)
    tracer.patch_method(Router, "on_contact")
    tracer.patch_method(Router, "after_transmit")
    tracer.patch_method(MessageStore, "expire", tally=_tally_expire)
    tracer.patch_function(generate_traffic)
    tracer.patch_function(schedule_traffic)

    tracer.patch_method(DeviceStorage, "analyze_neighbourhood",
                        tally=_tally_analyze)
    for name in ("update_direct", "mark_responded", "make_older",
                 "snapshot", "find_handover_routes"):
        tracer.patch_method(DeviceStorage, name)
    tracer.patch_method(Daemon, "start")
    tracer.patch_method(Daemon, "handle_discovery_fetch")

    tracer.patch_method(FaultPlane, "can_transmit",
                        tally=_count("faults.gate_calls"))
    for name in ("is_crashed", "advertised_vector", "arm"):
        tracer.patch_method(FaultPlane, name)

    tracer.patch_function(build_scenario, label="scenarios")
    tracer.patch_method(Scenario, "start_all")
    tracer.patch_method(Scenario, "awareness_fraction")
    tracer.patch_function(run_campaign)
    tracer.patch_function(execute_point_outcome,
                          tally=_count("experiments.cells"))
    tracer.patch_method(CampaignCache, "get", tally=_tally_cache_get)
    tracer.patch_method(CampaignCache, "put")


def layer_metrics(tracer: Tracer, wall_ns: int) -> dict[str, float]:
    """The per-layer metrics one traced repetition yields.

    ``wall_ns`` is the traced repetition's wall time.  The three metrics
    that need untraced repetitions (``sim.host_us_per_event``,
    ``experiments.rerun_s``, ``trace.overhead_frac``) are the runner's.
    """
    counts, inclusive = tracer.counts, tracer.inclusive_ns

    def self_s(layer: str) -> float:
        return tracer.self_ns[layer] / 1e9

    def world_sum(read) -> int:
        return sum(read(world) for world in tracer.worlds)

    def phy_sum(field: str) -> int:
        return world_sum(lambda w: getattr(w.phy.counters, field)
                         if w.phy is not None else 0)

    exchanges = counts["dtn.routing.exchanges"]
    cell_ns = inclusive[_key(execute_point_outcome)]
    attributed = sum(ns for layer, ns in tracer.self_ns.items()
                     if layer != ROOT)
    return {
        "dtn.routing.exchanges": exchanges,
        "dtn.routing.useful_frac":
            counts["dtn.routing.useful"] / exchanges if exchanges else 0.0,
        "dtn.routing.self_s": self_s("dtn.routing"),
        "dtn.store.expire_calls": counts["dtn.store.expire_calls"],
        "dtn.store.entries_scanned": counts["dtn.store.entries_scanned"],
        "dtn.store.self_s": self_s("dtn.store"),
        "dtn.forwarder.attach_s":
            inclusive[f"{DtnOverlay.__qualname__}.__init__"] / 1e9,
        "dtn.forwarder.contact_ups": counts["dtn.forwarder.contact_ups"],
        "dtn.forwarder.self_s": self_s("dtn.forwarder"),
        "radio.bus.watches": counts["radio.bus.watches"],
        "radio.bus.scheduled": world_sum(lambda w: w.stats.bus.scheduled),
        "radio.bus.fired": world_sum(lambda w: w.stats.bus.fired),
        "radio.bus.cancelled": world_sum(lambda w: w.stats.bus.cancelled),
        "radio.bus.self_s": self_s("radio.bus"),
        "radio.contacts.solves": counts["radio.contacts.solves"],
        "radio.contacts.self_s": self_s("radio.contacts"),
        "radio.world.neighbor_queries":
            world_sum(lambda w: w.stats.neighbor_queries),
        "radio.world.distance_checks":
            world_sum(lambda w: w.stats.distance_checks),
        "radio.world.in_range_calls": counts["radio.world.in_range_calls"],
        "radio.world.self_s": self_s("radio.world"),
        "dtn.capacity.callbacks": counts["dtn.capacity.callbacks"],
        "dtn.capacity.self_s": self_s("dtn.capacity"),
        "radio.phy.offered": phy_sum("offered"),
        "radio.phy.lost_collision": phy_sum("lost_collision"),
        "radio.phy.self_s": self_s("radio.phy"),
        "mobility.position_calls": counts["mobility.position_calls"],
        "mobility.segment_calls": counts["mobility.segment_calls"],
        "mobility.self_s": self_s("mobility"),
        "sim.events": counts["sim.events"],
        "sim.dispatch_self_s": self_s("sim"),
        "core.device_storage.analyze_calls":
            counts["core.device_storage.analyze_calls"],
        "core.device_storage.entries_analyzed":
            counts["core.device_storage.entries_analyzed"],
        "core.device_storage.self_s": self_s("core.device_storage"),
        "core.self_s": self_s("core"),
        "plugins.self_s": self_s("plugins"),
        "faults.gate_calls": counts["faults.gate_calls"],
        "faults.self_s": self_s("faults"),
        "experiments.cells": counts["experiments.cells"],
        "experiments.cell_s": cell_ns / 1e9,
        "experiments.overhead_s":
            (inclusive[_key(run_campaign)] - cell_ns) / 1e9,
        "experiments.cache_hits": counts["experiments.cache_hits"],
        "scenarios.build_s": inclusive[_key(build_scenario)] / 1e9,
        "trace.coverage": attributed / wall_ns if wall_ns else 0.0,
    }

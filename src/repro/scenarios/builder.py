"""The Scenario facade: one object wiring simulator + world + fabric.

Everything in ``examples/`` and ``benchmarks/`` goes through this::

    scenario = Scenario(seed=7)
    pc = scenario.add_node("pc", position=(0, 0), mobility_class="static")
    phone = scenario.add_node("phone", position=(5, 0))
    scenario.start_all()
    scenario.run(until=120)

Units follow the rest of the stack: positions and distances in metres,
all times in sim-seconds (the simulator's virtual clock).  Nodes may be
added — and, for churn scenarios, removed — while the simulation runs.
"""

from __future__ import annotations

import typing

from repro.core.config import DaemonConfig
from repro.core.fabric import Fabric
from repro.core.node import PeerHoodNode
from repro.metrics.counters import TrafficMeter
from repro.metrics.trace import EventTrace
from repro.mobility.base import MobilityModel
from repro.mobility.static import StaticPosition
from repro.obs import runtime as obs_runtime
from repro.radio.quality import QualityModel
from repro.radio.world import World
from repro.sim.kernel import Simulator


class Scenario:
    """A complete simulation environment with named PeerHood nodes."""

    def __init__(self, seed: int = 0,
                 quality_model: QualityModel | None = None):
        self.sim = Simulator(seed=seed)
        self.world = World(self.sim, quality_model=quality_model)
        self.fabric = Fabric(self.world)
        self.nodes: dict[str, PeerHoodNode] = {}
        #: ``(width, height)`` footprint in metres that the factory's
        #: nodes occupy; mobile jammers roam it.
        self.area: tuple[float, float] | None = None
        # Telemetry adoption: when the experiments runner activated a
        # recording context in this process (--telemetry), every
        # scenario built under it gets a passive recorder.  Recorders
        # observe only — recorded metrics stay byte-identical.
        context = obs_runtime.active()
        if context is not None:
            context.adopt(self)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, name: str,
                 position: tuple[float, float] | None = None,
                 mobility: MobilityModel | None = None,
                 technologies: typing.Sequence[str] = ("bluetooth",),
                 mobility_class: str = "dynamic",
                 config: DaemonConfig | None = None) -> PeerHoodNode:
        """Add a PeerHood device (allowed mid-run for churn scenarios).

        Give either ``position`` (a static point, metres) or ``mobility``
        (any mobility model); ``mobility`` wins when both are supplied.
        The node is registered in the radio world — including any
        already-built spatial grids for its technologies — but its daemon
        is *not* started (call ``node.start()`` or :meth:`start_all`).
        O(1) plus one grid insert per carried technology.
        """
        if mobility is None:
            if position is None:
                raise ValueError(
                    f"node {name!r} needs a position or a mobility model")
            mobility = StaticPosition(*position)
        node = PeerHoodNode(self.fabric, name, mobility,
                            technologies=technologies,
                            mobility_class=mobility_class,
                            config=config)
        self.nodes[name] = node
        return node

    def remove_node(self, name: str) -> None:
        """Power a device off and drop it from the scenario (mid-run safe).

        The daemon stops, the node leaves the fabric registry and the
        radio world (spatial-grid entries and quality overrides naming it
        are evicted — see :meth:`repro.radio.world.World.remove_node`).
        Other nodes simply observe it falling out of range; their storage
        entries age out over the following discovery loops.  O(grids +
        overrides).  Raises ``KeyError`` for an unknown name.
        """
        try:
            node = self.nodes.pop(name)
        except KeyError:
            raise KeyError(f"unknown scenario node: {name!r}") from None
        node.power_off()

    def node(self, name: str) -> PeerHoodNode:
        """Look up a node by name.  O(1); ``KeyError`` if absent."""
        return self.nodes[name]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def start_all(self) -> None:
        """Start every currently-added daemon (idempotent per daemon)."""
        for node in self.nodes.values():
            node.start()

    def run(self, until: float | None = None) -> None:
        """Advance the simulation to ``until`` (absolute sim-seconds), or
        drain the event heap when ``until`` is None."""
        self.sim.run(until=until)

    def run_process(self, generator: typing.Generator,
                    name: str = "scenario-process") -> object:
        """Spawn a process and run until it finishes; returns its value."""
        process = self.sim.spawn(generator, name=name)
        return self.sim.run(until=process)

    def settle_discovery(self, duration: float = 120.0) -> None:
        """Run ``duration`` sim-seconds — long enough, by default, for
        discovery to converge (several Bluetooth inquiry cycles)."""
        self.sim.run(until=self.sim.now + duration)

    def wait_for_route(self, from_name: str, to_name: str,
                       timeout_s: float = 600.0,
                       poll_s: float = 5.0) -> bool:
        """Advance the simulation until ``from_name`` has a route to
        ``to_name`` in its DeviceStorage (what a real application does by
        polling GetDeviceList before connecting).  ``timeout_s`` and
        ``poll_s`` are sim-seconds.  Returns False if the route never
        appeared within the timeout."""
        source = self.nodes[from_name]
        target_address = self.nodes[to_name].address

        def waiter(sim):
            deadline = sim.now + timeout_s
            while sim.now < deadline:
                if source.daemon.storage.get(target_address) is not None:
                    return True
                yield sim.timeout(poll_s)
            return False

        process = self.sim.spawn(waiter(self.sim), name="wait-for-route")
        return bool(self.sim.run(until=process))

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------
    @property
    def trace(self) -> EventTrace:
        """The shared event trace."""
        return self.fabric.trace

    @property
    def meter(self) -> TrafficMeter:
        """The shared traffic meter."""
        return self.fabric.meter

    def awareness(self, name: str) -> set[str]:
        """Node names this node currently knows about (any jump count).

        O(K) for K stored devices (address resolution is O(1) via the
        fabric index).
        """
        node = self.nodes[name]
        known = set()
        for device in node.daemon.storage.devices():
            peer = self.fabric.node_by_address(device.address)
            if peer is not None:
                known.add(peer.node_id)
        return known

    def awareness_fraction(self, name: str) -> float:
        """Fraction of the *other* PeerHood nodes this node knows about
        (1.0 for a singleton scenario).  O(K)."""
        others = len(self.nodes) - 1
        if others <= 0:
            return 1.0
        return len(self.awareness(name)) / others

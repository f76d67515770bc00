"""The radio world: node positions, range queries, link quality.

One :class:`World` instance per simulation holds every radio-equipped node.
Positions come from mobility models evaluated at the simulator clock, so the
world never needs periodic "move" events.  The world also hosts two pieces
of behavioural fault injection used by the paper's experiments:

* *inquiry marking* — Bluetooth devices that are scanning are undiscoverable
  (§3.4.2); plugins mark themselves while inquiring;
* *quality overrides* — the Fig. 5.8 handover simulation artificially decays
  the monitored link quality by one unit per second; overrides replace the
  physical model for chosen pairs.

Scaling: neighbor enumeration is served by per-technology
:class:`~repro.radio.spatial.SpatialGrid` indexes (cell side = coverage
radius), so one discovery round costs O(N · neighbors) distance checks
instead of the seed's O(N²) pairwise scan.  Because positions are pure
functions of virtual time, the grids are refreshed *lazily*: the first
query after the clock advances re-buckets the mobile nodes, and every
further query in the same instant reuses the synced index.  Units
throughout: metres for distance, sim-seconds (virtual seconds) for time.
"""

from __future__ import annotations

import typing

from repro.mobility.base import MobilityModel, Point, distance
from repro.radio.bus import ConnectivityBus
from repro.radio.contacts import ContactSolver, inside_at
from repro.radio.quality import PiecewiseLinearQuality
from repro.radio.spatial import SpatialGrid, WorldStats
from repro.radio.technologies import Technology, get_technology

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

#: Signature of a quality override: virtual time → quality (0–255) or None
#: to fall back to the physical model.
QualityOverride = typing.Callable[[float], typing.Optional[int]]


class WorldNode:
    """A radio-equipped node: identity, mobility and fitted technologies."""

    def __init__(self, node_id: str, mobility: MobilityModel,
                 technologies: frozenset[str]):
        self.node_id = node_id
        self.mobility = mobility
        self.technologies = technologies

    def __repr__(self) -> str:
        techs = ",".join(sorted(self.technologies))
        return f"<WorldNode {self.node_id} [{techs}]>"


class World:
    """Container of nodes plus geometry and link-quality queries.

    The world is the single source of physical truth: every range,
    neighbor and quality question the middleware asks goes through here.
    ``stats`` (a :class:`~repro.radio.spatial.WorldStats`) counts distance
    computations and grid activity for the scale benchmarks.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.quality_model = PiecewiseLinearQuality()
        self._nodes: dict[str, WorldNode] = {}
        self._overrides: dict[tuple[str, str, str], QualityOverride] = {}
        self._inquiring: set[tuple[str, str]] = set()
        # Toggle log per (node, tech): (time, became_inquiring) pairs, used
        # by the interval-overlap discoverability query.  Pruned explicitly
        # on clock advance (see _maybe_prune_history).
        self._inquiry_history: dict[
            tuple[str, str], list[tuple[float, bool]]] = {}
        # One spatial grid per technology name, built lazily on the first
        # neighbor query for that technology and synced to ``_grid_synced``.
        self._grids: dict[str, SpatialGrid] = {}
        self._grid_synced: dict[str, float] = {}
        self._last_history_prune = sim.now
        # Suspended (crashed-but-rebootable) nodes: registered, but out
        # of every grid and every query answer.  See suspend_node.
        self._suspended: set[str] = set()
        #: Installed fault plane, if any (set by
        #: :class:`repro.faults.FaultPlane`; stays ``None`` on a
        #: fault-free world — zero-rate configs never touch it).
        self.faults = None
        #: Installed lossy PHY plane, if any (set by
        #: :class:`repro.radio.phy.PhyPlane`; stays ``None`` on a
        #: lossless world — the all-zero configuration runs the literal
        #: pre-PHY code path, byte-identical to the binary-range model).
        self.phy = None
        #: Attached telemetry recorder, if any (set by
        #: :class:`repro.obs.Telemetry`; stays ``None`` when no recorder
        #: observes this world — producers check before every hook call).
        self.telemetry = None
        self.stats = WorldStats()
        #: Crossing-time solver and connectivity-event bus (PR 3): link
        #: and quality-threshold changes are *predicted and scheduled*
        #: instead of polled.  See :mod:`repro.radio.contacts` /
        #: :mod:`repro.radio.bus`.
        self.contacts = ContactSolver(self)
        self.bus = ConnectivityBus(self)

    # ------------------------------------------------------------------
    # node management
    # ------------------------------------------------------------------
    def add_node(self, node_id: str, mobility: MobilityModel,
                 technologies: typing.Iterable[Technology | str]) -> WorldNode:
        """Register a node.  ``technologies`` may mix names and objects.

        O(G) for G already-built grids (the node is indexed into each
        grid whose technology it carries).  Raises ``ValueError`` on a
        duplicate id or an empty technology set.
        """
        if node_id in self._nodes:
            raise ValueError(f"duplicate node id: {node_id!r}")
        names = frozenset(
            tech if isinstance(tech, str) else tech.name
            for tech in technologies)
        if not names:
            raise ValueError(f"node {node_id!r} needs at least one technology")
        for name in names:
            get_technology(name)  # validate early
        node = WorldNode(node_id, mobility, names)
        self._nodes[node_id] = node
        for tech_name, grid in self._grids.items():
            if tech_name in names:
                grid.insert(node_id, mobility.position(self.sim.now),
                            mobile=mobility.is_mobile())
        return node

    def suspend_node(self, node_id: str) -> None:
        """Take a node dark without removing it (crash-reboot faults).

        The node keeps its identity and mobility but stops
        participating physically: it is out of range of everything,
        absent from every neighbor query, undiscoverable, and its link
        qualities read 0.  Bus watches naming it are *held*, and synthetic
        LinkDown events close its open contacts — see
        :meth:`~repro.radio.bus.ConnectivityBus.suspend_node`.
        Idempotent for an already-suspended node; ``KeyError`` if
        unknown.  O(G + watches naming the node).
        """
        self._node(node_id)  # raise if unknown
        if node_id in self._suspended:
            return
        self._suspended.add(node_id)
        for grid in self._grids.values():
            if node_id in grid:
                grid.remove(node_id)
        self.bus.suspend_node(node_id)

    def resume_node(self, node_id: str) -> None:
        """Bring a suspended node back at its current mobility position.

        The grids re-index the node, held watches re-arm, and synthetic
        LinkUp events reopen contacts already in range — the reboot
        half of crash-reboot fault injection (any state loss is the
        fault plane's business, not the world's).  Idempotent;
        ``KeyError`` if unknown.
        """
        node = self._node(node_id)
        if node_id not in self._suspended:
            return
        self._suspended.discard(node_id)
        now = self.sim.now
        for tech_name, grid in self._grids.items():
            if tech_name in node.technologies and node_id not in grid:
                grid.insert(node_id, node.mobility.position(now),
                            mobile=node.mobility.is_mobile())
        self.bus.resume_node(node_id)

    def is_suspended(self, node_id: str) -> bool:
        """True while the node is suspended (crashed).  O(1)."""
        return node_id in self._suspended

    def node_ids(self) -> list[str]:
        """All registered node ids, sorted for determinism.  O(N log N)."""
        return sorted(self._nodes)

    def has_node(self, node_id: str) -> bool:
        """True if the node exists.  O(1)."""
        return node_id in self._nodes

    def _node(self, node_id: str) -> WorldNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown node: {node_id!r}") from None

    def node(self, node_id: str) -> WorldNode:
        """Public lookup of a node record.  O(1); ``KeyError`` if absent."""
        return self._node(node_id)

    def supports(self, node_id: str, tech: Technology) -> bool:
        """True if the node has the given radio fitted.  O(1)."""
        return tech.name in self._node(node_id).technologies

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def position(self, node_id: str) -> Point:
        """The node's position (metres) at the current virtual time.

        Cost is the mobility model's evaluation at ``sim.now`` — O(1) for
        static/linear models, O(log legs) for random waypoint (its leg
        cache is bisected, never scanned).
        """
        return self._node(node_id).mobility.position(self.sim.now)

    def distance(self, a: str, b: str) -> float:
        """Euclidean distance between two nodes now, in metres.  O(1)."""
        self.stats.distance_checks += 1
        return distance(self.position(a), self.position(b))

    def in_range(self, a: str, b: str, tech: Technology) -> bool:
        """True if both nodes have ``tech`` and are within its radius.

        A pair query — O(1), no grid involved.  A node unknown to the
        world is out of range of everything rather than crashing the
        query.  A *suspended* (crashed) node is likewise out of range
        until it resumes.
        """
        if a in self._suspended or b in self._suspended:
            return False
        return self.in_range_raw(a, b, tech)

    def in_contact(self, a: str, b: str, tech: Technology) -> bool:
        """:meth:`in_range` by the crossing solver's rule at the ring.

        A pair exactly at range counts as in range unless its distance
        is growing (:func:`~repro.radio.contacts.inside_at`) — the state
        the solver predicts from, so a contact seeded from this answer
        always gets its LinkDown.  Contact streams seed their opening
        edges with it, and the bus its synthetic LinkUps at resume.
        """
        if a in self._suspended or b in self._suspended or a == b:
            return False
        if a not in self._nodes or b not in self._nodes:
            return False
        if not (self.supports(a, tech) and self.supports(b, tech)):
            return False
        return inside_at(self._nodes[a].mobility, self._nodes[b].mobility,
                         tech.range_m, self.sim.now)

    def in_range_raw(self, a: str, b: str, tech: Technology) -> bool:
        """:meth:`in_range` ignoring suspension — pre-fault geometry.

        The connectivity bus uses this at the suspension instant to
        decide which pairs were in contact (and therefore owe a
        synthetic LinkDown); everything else wants :meth:`in_range`.
        """
        if a == b:
            return False
        if a not in self._nodes or b not in self._nodes:
            return False
        if not (self.supports(a, tech) and self.supports(b, tech)):
            return False
        return self.distance(a, b) <= tech.range_m

    # ------------------------------------------------------------------
    # spatial index
    # ------------------------------------------------------------------
    def _grid_for(self, tech: Technology) -> SpatialGrid:
        """The synced spatial grid for ``tech``, built on first use.

        Build: O(N).  Refresh after the clock advanced: O(M) for M mobile
        nodes carrying the technology (static nodes are never revisited).
        Same-instant queries: O(1).
        """
        now = self.sim.now
        grid = self._grids.get(tech.name)
        if grid is None:
            grid = SpatialGrid(cell_size=tech.range_m)
            for node in self._nodes.values():
                if (tech.name in node.technologies
                        and node.node_id not in self._suspended):
                    grid.insert(node.node_id,
                                node.mobility.position(now),
                                mobile=node.mobility.is_mobile())
            self._grids[tech.name] = grid
            self._grid_synced[tech.name] = now
            return grid
        if self._grid_synced[tech.name] != now:
            self.stats.grid_refreshes += 1
            nodes = self._nodes
            for node_id in grid.mobile_ids():
                grid.move(node_id, nodes[node_id].mobility.position(now))
            self._grid_synced[tech.name] = now
            self._maybe_prune_history()
        return grid

    def neighbors(self, node_id: str, tech: Technology) -> list[str]:
        """All nodes in range on ``tech`` (ignoring discoverability).

        Grid-backed: O(K log K) for K candidates in the 3 × 3 cells
        around the node — independent of the total node count.  Returns a
        sorted list; an unknown ``node_id`` or one without the radio
        yields ``[]`` (matching :meth:`in_range`'s forgiving semantics).
        """
        node = self._nodes.get(node_id)
        if node is None or tech.name not in node.technologies:
            return []
        if node_id in self._suspended:
            return []  # a dark node sees nothing (and is in no grid)
        self.stats.neighbor_queries += 1
        grid = self._grid_for(tech)
        center = grid.point(node_id)
        range_m = tech.range_m
        stats = self.stats
        found = []
        for other_id in grid.candidates(center, range_m):
            if other_id == node_id:
                continue
            stats.distance_checks += 1
            if distance(center, grid.point(other_id)) <= range_m:
                found.append(other_id)
        return sorted(found)

    def neighbors_brute_force(self, node_id: str,
                              tech: Technology) -> list[str]:
        """Reference O(N) pairwise implementation of :meth:`neighbors`.

        Kept as the verification oracle (the property tests assert it
        always agrees with the grid) and as the baseline the scale
        benchmark measures against.  Semantics are identical, including
        the empty result for unknown or radio-less nodes.
        """
        node = self._nodes.get(node_id)
        if node is None or tech.name not in node.technologies:
            return []
        if node_id in self._suspended:
            return []
        now = self.sim.now
        center = node.mobility.position(now)
        range_m = tech.range_m
        stats = self.stats
        found = []
        for other_id in sorted(self._nodes):
            if other_id == node_id or other_id in self._suspended:
                continue
            other = self._nodes[other_id]
            if tech.name not in other.technologies:
                continue
            stats.distance_checks += 1
            if distance(center, other.mobility.position(now)) <= range_m:
                found.append(other_id)
        return found

    # ------------------------------------------------------------------
    # link quality
    # ------------------------------------------------------------------
    def _override_key(self, a: str, b: str,
                      tech: Technology) -> tuple[str, str, str]:
        first, second = sorted((a, b))
        return (first, second, tech.name)

    def set_quality_override(self, a: str, b: str, tech: Technology,
                             override: QualityOverride | None) -> None:
        """Install (or clear, with None) an artificial quality function.

        The override is symmetric in the pair and keyed per technology;
        O(1).  It survives until cleared.
        """
        key = self._override_key(a, b, tech)
        if override is None:
            self._overrides.pop(key, None)
        else:
            self._overrides[key] = override
        # Outstanding connectivity predictions for the pair were computed
        # against the old quality function; re-predict them.
        self.bus.invalidate_pair(a, b, tech)

    def install_linear_decay(self, a: str, b: str, tech: Technology,
                             initial_quality: int,
                             decay_per_second: float = 1.0,
                             start_time: float | None = None) -> None:
        """The paper's Fig. 5.8 fault injection.

        From ``start_time`` (default: now, in sim-seconds) the reported
        quality for the pair is ``initial_quality - decay_per_second *
        elapsed``, floored at 0.
        """
        t0 = self.sim.now if start_time is None else start_time

        def decayed(t: float) -> int:
            elapsed = max(0.0, t - t0)
            return max(0, round(initial_quality - decay_per_second * elapsed))

        self.set_quality_override(a, b, tech, decayed)

    def has_override(self, a: str, b: str, tech: Technology) -> bool:
        """True if an artificial quality function is installed.  O(1)."""
        return self._override_key(a, b, tech) in self._overrides

    def link_quality(self, a: str, b: str, tech: Technology) -> int:
        """Current link quality (0–255); 0 when out of range or no radio.

        A pair query — O(1): override lookup, then the physical model on
        the pair distance.
        """
        return self.link_quality_at(a, b, tech, self.sim.now)

    def link_quality_at(self, a: str, b: str, tech: Technology,
                        t: float) -> int:
        """Link quality the pair would report at virtual time ``t``.

        Positions are pure functions of time, so quality is too — this
        is what lets the contact solver *predict* threshold crossings.
        Evaluates mobility directly (never the spatial grids, which are
        synced to ``sim.now``).  Same semantics as :meth:`link_quality`:
        overrides first, 0 out of range or for unknown/radio-less nodes.
        A suspended (crashed) node reads 0 even under an override — the
        radio is off, not merely degraded.
        """
        if a in self._suspended or b in self._suspended:
            return 0
        override = self._overrides.get(self._override_key(a, b, tech))
        if override is not None:
            value = override(t)
            if value is not None:
                return max(0, min(255, int(value)))
        if a == b or a not in self._nodes or b not in self._nodes:
            return 0
        if not (self.supports(a, tech) and self.supports(b, tech)):
            return 0
        gap = distance(self._nodes[a].mobility.position(t),
                       self._nodes[b].mobility.position(t))
        if gap > tech.range_m:
            return 0
        return self.quality_model.quality(gap, tech.range_m)

    # ------------------------------------------------------------------
    # discovery support
    # ------------------------------------------------------------------
    #: Toggle-log entries older than this (sim-seconds) are pruned (no scan
    #: looks back further than one inquiry duration).
    _HISTORY_HORIZON_S = 120.0

    def mark_inquiring(self, node_id: str, tech: Technology,
                       inquiring: bool) -> None:
        """Record that a node is running a discovery scan on ``tech``.

        O(1) amortised (toggle logs are pruned once per horizon of clock
        advance).  Idempotent for repeated marks in the same state.
        """
        key = (node_id, tech.name)
        already = key in self._inquiring
        if inquiring == already:
            return
        if inquiring:
            self._inquiring.add(key)
        else:
            self._inquiring.discard(key)
        history = self._inquiry_history.setdefault(key, [])
        history.append((self.sim.now, inquiring))
        self._maybe_prune_history()

    def _maybe_prune_history(self) -> None:
        """Prune the toggle logs once per horizon of clock advance.

        The seed pruned *lazily* — only the marked node's own log, only
        when it exceeded a length watermark — so a node that stopped
        toggling (or kept toggling below the watermark) carried stale
        entries forever.  This hook runs from the clock-advance
        observation points (grid refresh, new toggle marks) and trims
        every log explicitly.
        """
        now = self.sim.now
        if now - self._last_history_prune >= self._HISTORY_HORIZON_S:
            self.prune_inquiry_history()

    def prune_inquiry_history(self) -> int:
        """Drop toggle-log entries older than the horizon; returns count.

        The newest entry at or before the cutoff is kept as the state
        anchor (``max_discoverable_gap`` derives the state at a window
        start from the last preceding toggle), so pruning never changes
        any discoverability answer about the kept horizon.  O(total log
        length).
        """
        cutoff = self.sim.now - self._HISTORY_HORIZON_S
        dropped = 0
        for history in self._inquiry_history.values():
            while len(history) > 1 and history[1][0] <= cutoff:
                history.pop(0)
                dropped += 1
        self._last_history_prune = self.sim.now
        return dropped

    def max_discoverable_gap(self, node_id: str, tech: Technology,
                             window_start: float,
                             window_end: float) -> float:
        """Longest contiguous non-inquiring stretch inside the window.

        Window bounds and the returned gap are sim-seconds; O(H) in the
        (horizon-pruned) toggle-log length.  For technologies that stay
        discoverable while scanning this is the whole window.  For
        Bluetooth it walks the inquiry toggle log: a peer can only answer
        our inquiry during its own idle gaps, and the inquiry protocol
        needs a minimum contiguous gap to complete the exchange
        (``tech.response_window_s``).
        """
        if window_end < window_start:
            raise ValueError("window end before start")
        if tech.discoverable_while_inquiring:
            return window_end - window_start
        key = (node_id, tech.name)
        history = self._inquiry_history.get(key, [])
        # State at window_start: last toggle at or before it (default: not
        # inquiring — nodes boot idle).
        inquiring = False
        for when, became in history:
            if when > window_start:
                break
            inquiring = became
        longest = 0.0
        gap_start = None if inquiring else window_start
        for when, became in history:
            if when <= window_start:
                continue
            if when >= window_end:
                break
            if became and gap_start is not None:
                longest = max(longest, when - gap_start)
                gap_start = None
            elif not became and gap_start is None:
                gap_start = when
        if gap_start is not None:
            longest = max(longest, window_end - gap_start)
        return longest

    def heard_during_scan(self, node_id: str, tech: Technology,
                          window_start: float, window_end: float) -> bool:
        """Would an inquiry over the window (sim-seconds) have heard this
        node?  O(H) in the toggle-log length."""
        gap = self.max_discoverable_gap(node_id, tech, window_start,
                                        window_end)
        return gap >= tech.response_window_s

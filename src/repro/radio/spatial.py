"""Uniform spatial-grid index over 2-D node positions.

The seed implementation answered every neighbor query by scanning all
registered nodes — O(N) per query and O(N²) per discovery round, which
caps simulations at a few dozen devices.  This module provides the data
structure behind the :class:`~repro.radio.world.World`'s O(neighbors)
queries: a uniform grid of square cells, one grid per technology, with
the cell side equal to that technology's coverage radius.

With ``cell_size == range_m`` every node within range of a query point
lies in the 3 × 3 block of cells around the point's own cell, so a
neighbor query inspects only the nodes in (at most) nine cells instead
of the whole world.  Under uniform density that is O(density · range²)
candidates per query — independent of the total node count N.

Design notes / invariants (see ``docs/ARCHITECTURE.md``):

* The grid is pure geometry: it knows node ids and points, never the
  simulator clock or mobility models.  The world owns *when* the stored
  points are valid (it refreshes mobile nodes lazily whenever the
  virtual clock has advanced since the last query).
* Every indexed node id appears in exactly one cell, and
  ``_where[node_id]`` names that cell (the insert/move/remove methods
  keep this bijection).
* ``candidates`` over-approximates: it returns every node whose cell
  intersects the query disc's bounding box.  Callers must still apply
  the exact distance test; the grid never *misses* a node within
  ``radius`` of the query point.
* All coordinates are metres; cells extend ``[i·s, (i+1)·s)`` per axis
  so boundary points land in exactly one cell (floor semantics work for
  negative coordinates too).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.metrics.counters import BusCounters
from repro.mobility.base import Point

#: A cell address: integer (column, row) of a ``cell_size`` square.
Cell = typing.Tuple[int, int]


@dataclasses.dataclass
class WorldStats:
    """Counters for the world's geometry queries (benchmark instrumentation).

    Attributes
    ----------
    distance_checks:
        Exact point-to-point distance computations performed by neighbor
        queries (grid-backed and brute-force).  This is the figure the
        scale benchmark compares: the grid's win is fewer distance
        checks per discovery round.
    neighbor_queries:
        Number of :meth:`~repro.radio.world.World.neighbors` calls.
    grid_refreshes:
        Times a grid re-synced its mobile nodes because the virtual
        clock had advanced since the previous query.
    bus:
        Connectivity-event-bus activity (scheduled / fired / cancelled /
        rescheduled) — see :class:`~repro.metrics.counters.BusCounters`.
    """

    distance_checks: int = 0
    neighbor_queries: int = 0
    grid_refreshes: int = 0
    bus: BusCounters = dataclasses.field(default_factory=BusCounters)

    def reset(self) -> None:
        """Zero all counters (call between benchmark rounds)."""
        self.distance_checks = 0
        self.neighbor_queries = 0
        self.grid_refreshes = 0
        self.bus.reset()


class SpatialGrid:
    """A uniform grid of square cells indexing node ids by position.

    Parameters
    ----------
    cell_size:
        Side of one square cell in metres.  Choose the coverage radius of
        the technology the grid serves so that a range query only ever
        touches the 3 × 3 cells around the query point.
    """

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise ValueError(f"cell size must be positive: {cell_size}")
        self.cell_size = float(cell_size)
        # cell -> ordered set of node ids (a dict keyed by id, values
        # unused) — dicts keep insertion order, so iteration is
        # reproducible across runs regardless of string-hash seeding.
        self._cells: dict[Cell, dict[str, None]] = {}
        self._where: dict[str, Cell] = {}
        self._points: dict[str, Point] = {}
        self._mobile: dict[str, None] = {}
        #: Number of times a moved node actually changed cell.
        self.rebuckets = 0

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def cell_of(self, point: Point) -> Cell:
        """The cell containing ``point`` (floor semantics, so negative
        coordinates bucket correctly).  O(1)."""
        return (int(point[0] // self.cell_size),
                int(point[1] // self.cell_size))

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._where

    def point(self, node_id: str) -> Point:
        """The stored position of ``node_id`` in metres.  O(1)."""
        try:
            return self._points[node_id]
        except KeyError:
            raise KeyError(f"node not indexed: {node_id!r}") from None

    def mobile_ids(self) -> tuple[str, ...]:
        """Ids inserted with ``mobile=True`` (the ones a refresh must
        re-evaluate), in insertion order.  O(M)."""
        return tuple(self._mobile)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def insert(self, node_id: str, point: Point, mobile: bool = True) -> None:
        """Index ``node_id`` at ``point`` (metres).  O(1).

        ``mobile=False`` exempts the node from refresh sweeps (static
        nodes never change cell).  Raises ``ValueError`` on duplicates.
        """
        if node_id in self._where:
            raise ValueError(f"node already indexed: {node_id!r}")
        cell = self.cell_of(point)
        self._cells.setdefault(cell, {})[node_id] = None
        self._where[node_id] = cell
        self._points[node_id] = point
        if mobile:
            self._mobile[node_id] = None

    def move(self, node_id: str, point: Point) -> None:
        """Update ``node_id``'s position, re-bucketing only on a cell
        change.  O(1)."""
        try:
            old_cell = self._where[node_id]
        except KeyError:
            raise KeyError(f"node not indexed: {node_id!r}") from None
        self._points[node_id] = point
        new_cell = self.cell_of(point)
        if new_cell == old_cell:
            return
        self.rebuckets += 1
        occupants = self._cells[old_cell]
        del occupants[node_id]
        if not occupants:
            del self._cells[old_cell]
        self._cells.setdefault(new_cell, {})[node_id] = None
        self._where[node_id] = new_cell

    def remove(self, node_id: str) -> None:
        """Evict ``node_id`` from the index.  O(1)."""
        try:
            cell = self._where.pop(node_id)
        except KeyError:
            raise KeyError(f"node not indexed: {node_id!r}") from None
        del self._points[node_id]
        self._mobile.pop(node_id, None)
        occupants = self._cells[cell]
        del occupants[node_id]
        if not occupants:
            del self._cells[cell]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def candidates(self, point: Point, radius: float) -> list[str]:
        """Every indexed id whose cell intersects the ``radius``-disc's
        bounding box around ``point`` — a superset of the ids within
        ``radius``.  O(cells · occupancy); with ``radius <= cell_size``
        at most 3 × 3 cells are visited.

        The returned order is the grid's internal (insertion) order;
        callers needing determinism across different construction orders
        should sort.
        """
        if radius < 0:
            raise ValueError(f"negative radius: {radius}")
        min_cx = int((point[0] - radius) // self.cell_size)
        max_cx = int((point[0] + radius) // self.cell_size)
        min_cy = int((point[1] - radius) // self.cell_size)
        max_cy = int((point[1] + radius) // self.cell_size)
        found: list[str] = []
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                occupants = self._cells.get((cx, cy))
                if occupants:
                    found.extend(occupants)
        return found

    def __repr__(self) -> str:
        return (f"<SpatialGrid cell={self.cell_size} m, "
                f"{len(self._where)} nodes in {len(self._cells)} cells>")

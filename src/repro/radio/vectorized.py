"""Batch geometry engine: the numpy-vectorized kernel hot path.

The scalar world answers geometry questions one node (or one pair) at a
time: ``World.neighbors`` walks grid cells per query, and the contact
solver runs one quadratic per pair.  Per-call Python overhead caps that
at a few hundred nodes.  This module batches all three hot loops into
array programs over every node at once:

* **positions** — every bundled :class:`~repro.mobility.base.
  MobilityModel` is piecewise linear, so each node's *active piece*
  (:meth:`~repro.mobility.base.MobilityModel.active_piece`) compiles to
  one ``(origin, velocity, t0, end)`` row and a whole population
  evaluates as ``P = O + V · (t − t0)`` in one vectorized op.  Rows are
  recompiled lazily, only where the clock passed the piece end.
* **binning + candidate pairs** — cell addresses via ``floor_divide``,
  one lexicographic sort of packed cell keys, then candidate pairs from
  half-neighborhood cell joins (``searchsorted`` range lookups), so each
  unordered pair in adjacent cells is generated exactly once.
* **range filter** — batched squared distances against ``range_m²``.
* **crossing quadratics** — :func:`batch_distance_crossings` solves the
  contact quadratic for all dirty pairs at once, replicating the scalar
  solver's arithmetic *operation for operation* so the returned
  :class:`~repro.radio.contacts.Crossing` times are identical floats.

Agreement contract with the scalar oracle (asserted by the
``vector==scalar`` property tests, discussed in ``docs/PERFORMANCE.md``):
crossing times are **exactly equal**; neighbor sets and candidate-pair
sets are **set-equal**; positions agree to float tolerance (the engine
evaluates ``origin + v·(t − t0)`` where a model may use an
algebraically equal but differently rounded form).

Units throughout: metres, sim-seconds.
"""

from __future__ import annotations

import contextlib
import typing

import numpy as np

from repro.mobility.base import MobilityModel
from repro.radio.contacts import Crossing, next_distance_crossing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.profile import SubsystemProfiler
    from repro.radio.technologies import Technology
    from repro.radio.world import World


def multi_arange(starts: "np.ndarray", counts: "np.ndarray") -> "np.ndarray":
    """Concatenate ``arange(s, s + c)`` for every (start, count) row.

    The vectorized equivalent of ``np.concatenate([np.arange(s, s + c)
    for ...])`` without the per-row Python loop: one cumulative sum over
    a delta array whose reset positions jump to each row's start.
    ``counts`` must be strictly positive (callers filter empty rows).
    """
    counts = counts.astype(np.int64, copy=False)
    starts = starts.astype(np.int64, copy=False)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    deltas = np.ones(total, dtype=np.int64)
    deltas[0] = starts[0]
    resets = np.cumsum(counts[:-1])
    deltas[resets] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(deltas)


#: Half neighborhood of cell offsets.  Same-cell pairs come from the
#: ``(0, 0)`` join with an ``i < j`` filter; the four directed offsets
#: cover every adjacent-cell relation exactly once (their negations are
#: reached from the other endpoint), so no pair is generated twice.
_HALF_NEIGHBORHOOD = ((1, 0), (1, 1), (0, 1), (-1, 1))


class VectorEngine:
    """Per-(world, technology) batch geometry state.

    Owns the compiled per-node piece rows and answers whole-population
    queries.  Membership (add/remove/suspend/resume) is tracked through
    ``World.geometry_epoch``: any membership change forces a row-table
    rebuild on the next query; piece expiry only recompiles the expired
    rows.  Node rows are ordered by the *string-sorted* id list, so
    per-node outputs match the scalar path's ``sorted()`` ordering
    without re-sorting.

    ``profiler`` (a :class:`~repro.obs.profile.SubsystemProfiler`), when
    attached, buckets each query phase under ``vector-position``,
    ``vector-bin``, ``vector-pair`` — deterministic event counts for the
    bench, wall-clock for the timings side channel.
    """

    def __init__(self, world: "World", tech: "Technology",
                 profiler: "SubsystemProfiler | None" = None):
        self.world = world
        self.tech = tech
        self.profiler = profiler
        self.ids: list[str] = []
        self._row_of: dict[str, int] = {}
        self._epoch = -1
        self._origin = np.zeros((0, 2))
        self._velocity = np.zeros((0, 2))
        self._t0 = np.zeros(0)
        self._end = np.zeros(0)
        #: Cumulative deterministic work counters (bench metrics).
        self.pieces_compiled = 0
        self.pair_candidates = 0
        self.pairs_in_range = 0

    # ------------------------------------------------------------------
    # row maintenance
    # ------------------------------------------------------------------
    def _measure(self, phase: str):
        if self.profiler is None:
            return contextlib.nullcontext()
        return self.profiler.measure(phase)

    def _sync_membership(self) -> None:
        world = self.world
        if self._epoch == world.geometry_epoch:
            return
        tech_name = self.tech.name
        members = [node_id for node_id in world.node_ids()
                   if tech_name in world.node(node_id).technologies
                   and not world.is_suspended(node_id)]
        self.ids = members
        self._row_of = {node_id: row for row, node_id in enumerate(members)}
        count = len(members)
        self._origin = np.zeros((count, 2))
        self._velocity = np.zeros((count, 2))
        self._t0 = np.zeros(count)
        # -inf ends mark every row stale, forcing a full compile on the
        # next position evaluation.
        self._end = np.full(count, -np.inf)
        self._epoch = world.geometry_epoch

    def _refresh_pieces(self, t: float) -> None:
        stale = np.nonzero((t > self._end) | (t < self._t0))[0]
        if not len(stale):
            return
        world, ids = self.world, self.ids
        origin, velocity = self._origin, self._velocity
        t0, end = self._t0, self._end
        for row in stale.tolist():
            mobility = world.node(ids[row]).mobility
            piece = mobility.active_piece(t)
            if piece is None:
                raise ValueError(
                    f"node {ids[row]!r}: mobility {mobility!r} provides "
                    f"no linear pieces; the batch engine needs "
                    f"piecewise-linear motion (every bundled model "
                    f"qualifies)")
            start, stop, pos, vel = piece
            origin[row, 0], origin[row, 1] = pos
            velocity[row, 0], velocity[row, 1] = vel
            t0[row] = start
            end[row] = stop
        self.pieces_compiled += len(stale)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def row_of(self, node_id: str) -> int:
        """Row index of a member node (``KeyError`` for non-members)."""
        self._sync_membership()
        return self._row_of[node_id]

    def positions_at(self, t: float) -> "np.ndarray":
        """Positions of every member node at ``t`` as an (N, 2) array.

        One broadcast op over the compiled rows; only rows whose piece
        expired are recompiled (a Python loop over the expired subset).
        Row order matches :attr:`ids` (string-sorted node ids).
        """
        with self._measure("vector-position"):
            self._sync_membership()
            self._refresh_pieces(t)
            return (self._origin
                    + self._velocity * (t - self._t0)[:, np.newaxis])

    def candidate_pairs(self, t: float
                        ) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Adjacent-cell candidate pairs at ``t``: ``(i, j, positions)``.

        ``i``/``j`` are row indices into :attr:`ids`; every unordered
        pair of nodes whose cells are identical or adjacent (the 3 × 3
        neighborhood, i.e. the scalar grid's candidate relation) appears
        exactly once.  This is the over-approximation the range filter
        prunes — its length is the batched analogue of the scalar path's
        ``distance_checks``.
        """
        positions = self.positions_at(t)
        with self._measure("vector-bin"):
            count = len(positions)
            if count < 2:
                empty = np.empty(0, dtype=np.int64)
                return empty, empty, positions
            # Cell addresses, floor semantics — identical bucketing to
            # SpatialGrid.cell_of (int(x // size)).
            size = self.tech.range_m
            col = np.floor_divide(positions[:, 0], size).astype(np.int64)
            row = np.floor_divide(positions[:, 1], size).astype(np.int64)
            col -= col.min()  # shift non-negative for packing
            row -= row.min()
            # Pack (cx, cy) into one sortable key with a +1 margin per
            # axis so neighbor offsets never wrap across rows.
            width = int(row.max()) + 3
            keys = (col + 1) * width + (row + 1)
            order = np.argsort(keys, kind="stable")
        with self._measure("vector-pair"):
            # One stacked join over the half neighborhood: block 0 is
            # the same-cell join (start bound tightened to each node's
            # own sort successor, so every same-cell pair appears once),
            # blocks 1–4 the directed cell offsets (their negations are
            # reached from the other endpoint — once per pair again).
            position_in_sort = np.empty(count, dtype=np.int64)
            position_in_sort[order] = np.arange(count, dtype=np.int64)
            deltas = np.array(
                [0] + [dx * width + dy for dx, dy in _HALF_NEIGHBORHOOD],
                dtype=np.int64)
            targets = (keys[np.newaxis, :] + deltas[:, np.newaxis]).ravel()
            ncells = (int(col.max()) + 3) * width
            if ncells <= 8 * count + 1024:
                # Dense cell table: bucket bounds by direct indexing —
                # O(1) per lookup where a binary search costs the log
                # factor *and* ~10× its constant (searchsorted dominates
                # this join at bench sizes).  The +1 margins above keep
                # every offset target inside [0, ncells).
                per_cell = np.bincount(keys, minlength=ncells)
                cell_start = np.cumsum(per_cell) - per_cell
                left = cell_start[targets]
                right = left + per_cell[targets]
            else:
                # Degenerate geometry (huge extent, tiny range): the
                # dense table would dwarf N, so binary-search the sorted
                # keys instead.  Same bounds, same pairs.
                sorted_keys = keys[order]
                left = np.searchsorted(sorted_keys, targets, side="left")
                right = np.searchsorted(sorted_keys, targets, side="right")
            left[:count] = position_in_sort + 1  # same-cell block
            counts = right - left
            has = counts > 0
            if has.any():
                all_rows = np.tile(np.arange(count, dtype=np.int64),
                                   len(deltas))
                pair_i = np.repeat(all_rows[has], counts[has])
                pair_j = order[multi_arange(left[has], counts[has])]
            else:
                pair_i = pair_j = np.empty(0, dtype=np.int64)
        self.pair_candidates += len(pair_i)
        return pair_i, pair_j, positions

    def neighbor_pairs(self, t: float) -> tuple["np.ndarray", "np.ndarray"]:
        """Every in-range unordered pair at ``t`` as ``(i, j)`` row arrays.

        Candidate generation plus the batched squared-distance filter —
        the whole-population equivalent of one scalar discovery round.
        Updates ``world.stats``: ``neighbor_queries`` by the member
        count, ``distance_checks`` by the candidate pairs evaluated (one
        per unordered pair — see :class:`~repro.radio.spatial.
        WorldStats`).
        """
        pair_i, pair_j, positions = self.candidate_pairs(t)
        candidates = len(pair_i)
        with self._measure("vector-pair"):
            if candidates:
                # Contiguous 1-D coordinate columns: fancy-indexing a
                # strided (N, 2) view costs ~5× more than two flat
                # gathers at the candidate counts the bench runs.
                x = np.ascontiguousarray(positions[:, 0])
                y = np.ascontiguousarray(positions[:, 1])
                dx = x[pair_i] - x[pair_j]
                dy = y[pair_i] - y[pair_j]
                within = (dx * dx + dy * dy
                          <= self.tech.range_m * self.tech.range_m)
                pair_i, pair_j = pair_i[within], pair_j[within]
        self.pairs_in_range += len(pair_i)
        stats = self.world.stats
        stats.neighbor_queries += len(self.ids)
        stats.distance_checks += candidates
        return pair_i, pair_j

    def all_neighbors(self, t: float) -> dict[str, list[str]]:
        """Neighbor lists for every member node, scalar-identical.

        Convenience (and oracle-comparison) form of
        :meth:`neighbor_pairs`: a dict ``{node_id: sorted neighbor
        ids}``.  Because rows follow the string-sorted id list, sorting
        pairs by row index reproduces the scalar path's lexicographic
        neighbor order without comparing strings.
        """
        pair_i, pair_j = self.neighbor_pairs(t)
        ids = self.ids
        result: dict[str, list[str]] = {node_id: [] for node_id in ids}
        if len(pair_i):
            sources = np.concatenate([pair_i, pair_j])
            targets = np.concatenate([pair_j, pair_i])
            order = np.lexsort((targets, sources))
            for source, target in zip(sources[order].tolist(),
                                      targets[order].tolist()):
                result[ids[source]].append(ids[target])
        return result

    def __repr__(self) -> str:
        return (f"<VectorEngine {self.tech.name} rows={len(self.ids)} "
                f"epoch={self._epoch}>")


def batch_distance_crossings(
        pairs: typing.Sequence[tuple[MobilityModel, MobilityModel]],
        threshold_m: float, t0: float, t1: float,
        profiler: "SubsystemProfiler | None" = None
) -> list[Crossing | None]:
    """Batched :func:`~repro.radio.contacts.next_distance_crossing`.

    Solves the first-flip quadratic for *all* pairs at once: every
    distinct model contributes one ``linear_segments(t0, t1)`` call, the
    relative-piece merge advances a per-pair segment-cursor front, and
    each round solves the current piece of every unresolved pair as one
    array program.  Rounds are bounded by the longest pair's piece count
    (each round advances at least one cursor per pair), so total work is
    O(total pieces) with the per-piece cost amortised across the batch.

    The arithmetic replicates the scalar solver operation for operation
    (same expressions, same IEEE-754 doubles, same root order and guard
    conditions), so the returned list is **element-wise equal** to
    calling the scalar function per pair — including the boundary-flip
    and on-ring tie-break cases.  Pairs whose models expose no segments
    fall back to the scalar solver (which bisects).
    """
    if threshold_m <= 0:
        raise ValueError(f"threshold must be positive: {threshold_m}")
    results: list[Crossing | None] = [None] * len(pairs)
    if t1 <= t0 or not pairs:
        return results
    with (profiler.measure("vector-solve") if profiler is not None
          else contextlib.nullcontext()):
        _solve_batch(pairs, threshold_m, t0, t1, results)
    return results


def _solve_batch(pairs, threshold_m, t0, t1, results) -> None:
    # One segment list per distinct model over the common window.
    segments_of: dict[int, list | None] = {}
    models_of: dict[int, MobilityModel] = {}
    for pair in pairs:
        for model in pair:
            key = id(model)
            if key not in segments_of:
                segments_of[key] = model.linear_segments(t0, t1)
                models_of[key] = model
    # Flatten every segment list into parallel arrays; span_of[id] is
    # the model's (first flat row, segment count).
    span_of: dict[int, tuple[int, int]] = {}
    flat: list[tuple[float, float, float, float, float, float]] = []
    for key, segments in segments_of.items():
        if segments is None:
            continue
        span_of[key] = (len(flat), len(segments))
        for start, stop, pos, vel in segments:
            flat.append((start, stop, pos[0], pos[1], vel[0], vel[1]))
    rows: list[int] = []
    spans: list[tuple[int, int, int, int]] = []
    for index, (model_a, model_b) in enumerate(pairs):
        span_a = span_of.get(id(model_a))
        span_b = span_of.get(id(model_b))
        if span_a is None or span_b is None:
            # No closed form: the scalar path's guarded bisection.
            results[index] = next_distance_crossing(
                model_a, model_b, threshold_m, t0, t1)
        else:
            rows.append(index)
            spans.append(span_a + span_b)
    if not rows:
        return
    seg = np.asarray(flat)
    seg_start, seg_end = seg[:, 0], seg[:, 1]
    seg_px, seg_py, seg_vx, seg_vy = seg[:, 2], seg[:, 3], seg[:, 4], seg[:, 5]
    pair_count = len(rows)
    span_arr = np.asarray(spans, dtype=np.int64)
    a_base, a_len = span_arr[:, 0], span_arr[:, 1]
    b_base, b_len = span_arr[:, 2], span_arr[:, 3]
    cursor_a = np.zeros(pair_count, dtype=np.int64)
    cursor_b = np.zeros(pair_count, dtype=np.int64)
    front = np.full(pair_count, t0)
    has_initial = np.zeros(pair_count, dtype=bool)
    initial = np.zeros(pair_count, dtype=bool)
    open_mask = np.ones(pair_count, dtype=bool)
    r_squared = threshold_m * threshold_m
    on_ring_eps = 1e-9 * max(1.0, r_squared)
    while open_mask.any():
        active = np.nonzero(open_mask)[0]
        seg_a = a_base[active] + cursor_a[active]
        seg_b = b_base[active] + cursor_b[active]
        u = front[active]
        v = np.minimum(seg_end[seg_a], seg_end[seg_b])
        valid = v > u  # zero-width merge pieces are skipped, as scalar
        # Relative offset/velocity at the piece start — the exact
        # expressions of contacts._relative_pieces.
        ax = seg_px[seg_a] + seg_vx[seg_a] * (u - seg_start[seg_a])
        ay = seg_py[seg_a] + seg_vy[seg_a] * (u - seg_start[seg_a])
        bx = seg_px[seg_b] + seg_vx[seg_b] * (u - seg_start[seg_b])
        by = seg_py[seg_b] + seg_vy[seg_b] * (u - seg_start[seg_b])
        off_x, off_y = ax - bx, ay - by
        vel_x = seg_vx[seg_a] - seg_vx[seg_b]
        vel_y = seg_vy[seg_a] - seg_vy[seg_b]
        quad_a = vel_x * vel_x + vel_y * vel_y
        quad_b = 2.0 * (off_x * vel_x + off_y * vel_y)
        quad_c = off_x * off_x + off_y * off_y - r_squared
        # _state_at_piece_start, vectorized (derivative tie-break on
        # the ring).
        state = np.where(
            quad_c < -on_ring_eps, True,
            np.where(quad_c > on_ring_eps, False,
                     np.where(quad_b != 0.0, quad_b < 0.0, quad_a <= 0.0)))
        seen = has_initial[active]
        fresh = valid & ~seen
        if fresh.any():
            initial[active[fresh]] = state[fresh]
            has_initial[active[fresh]] = True
        base_state = initial[active]
        # Flip exactly on a piece boundary: report at the piece start.
        boundary = valid & seen & (state != base_state)
        settled = boundary.copy()
        time_found = np.where(boundary, u, np.nan)
        inside_found = state.copy()
        # Root selection, replicating the scalar loop: roots in
        # ascending order, first admissible simple root whose
        # after-state differs from the initial state wins.
        span = v - u
        disc = quad_b * quad_b - 4.0 * quad_a * quad_c
        solvable = valid & ~settled & (quad_a != 0.0) & (disc > 0.0)
        if solvable.any():
            with np.errstate(invalid="ignore", divide="ignore"):
                sqrt_disc = np.sqrt(np.where(solvable, disc, 1.0))
                denom = 2.0 * quad_a
                for sign in (-1.0, 1.0):
                    root = (-quad_b + sign * sqrt_disc) / denom
                    slope = 2.0 * quad_a * root + quad_b
                    take = (solvable & ~settled
                            & (root > 0.0) & (root <= span)
                            & (slope != 0.0)
                            & ((slope < 0.0) != base_state))
                    if take.any():
                        time_found = np.where(take, u + root, time_found)
                        inside_found = np.where(take, slope < 0.0,
                                                inside_found)
                        settled |= take
        if settled.any():
            for position in np.nonzero(settled)[0].tolist():
                results[rows[active[position]]] = Crossing(
                    float(time_found[position]), bool(inside_found[position]))
            open_mask[active[settled]] = False
        # Advance the merge front for pairs still open, exactly as the
        # scalar two-pointer walk (each round consumes min(a_end, b_end)).
        alive = ~settled
        if alive.any():
            rows_alive = active[alive]
            advance_a = seg_end[seg_a[alive]] <= v[alive]
            advance_b = seg_end[seg_b[alive]] <= v[alive]
            cursor_a[rows_alive] += advance_a
            cursor_b[rows_alive] += advance_b
            front[rows_alive] = v[alive]
            exhausted = ((cursor_a[rows_alive] >= a_len[rows_alive])
                         | (cursor_b[rows_alive] >= b_len[rows_alive]))
            if exhausted.any():
                open_mask[rows_alive[exhausted]] = False  # no flip: None

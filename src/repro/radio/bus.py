"""The connectivity-event bus: predicted crossings as scheduled events.

Where the seed stack *polled* — the handover monitor sampled link quality
every second, links discovered breakage on the next frame — this bus asks
the :class:`~repro.radio.contacts.ContactSolver` for the next crossing of
interest and schedules exactly one kernel event at that instant
(:meth:`~repro.sim.kernel.Simulator.call_at`).  Kernel wakeups for link
maintenance then scale with how often connectivity actually *changes*,
not with ``N × poll-rate``.

Watches
-------
A :class:`Watch` observes one (pair, technology) for either range-ring
flips (LinkUp/LinkDown) or quality-threshold flips (QualityAbove/
QualityBelow).  Repeating watches re-arm after every firing (contact
traces); one-shot watches complete on their first firing (a link's
scheduled break, a monitor's next-low wake-up).

Invalidation rules (the part polling got for free):

* **node removed / powered off** — :meth:`ConnectivityBus.cancel_node`
  cancels every watch naming the node; an already-scheduled kernel event
  fires as a no-op.  Wired into ``World.remove_node``.
* **quality override installed or cleared** — the closed-form prediction
  is stale; :meth:`ConnectivityBus.invalidate_pair` re-predicts every
  watch on the pair.  Wired into ``World.set_quality_override``.
* **mobility segment rollover** — predictions only look ``horizon_s``
  ahead (random-waypoint legs are generated lazily); a window with no
  crossing re-arms at the horizon.  Pairs that are *settled* (both
  models constant forever — static scenarios) park instead: zero
  events, ever.

Counters (``world.stats.bus``, a :class:`~repro.metrics.counters.
BusCounters`) record scheduled / fired / cancelled / rescheduled — the
scale benchmarks assert on them.

Contact streams
---------------
:class:`ContactStream` is the one contact source of the consumers that
watch *every* pair of a node set — both event-driven DTN overlays and
the contact-trace recorder: it arms the per-pair watches, seeds the
pairs already in range at attach, reports endpoints that left the world
and predicts when an open contact closes.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.radio.contacts import ContactSolver, Crossing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.radio.technologies import Technology
    from repro.radio.world import World
    from repro.sim.kernel import ScheduledCall

#: Event kinds.
LINK_UP = "link-up"
LINK_DOWN = "link-down"
QUALITY_ABOVE = "quality-above"
QUALITY_BELOW = "quality-below"

#: Guard against accidentally installing O(N²) watches at absurd N.
MAX_PAIRS = 200_000


@dataclasses.dataclass(frozen=True)
class ConnectivityEvent:
    """One fired connectivity prediction.

    ``node_a < node_b`` (pairs are unordered); ``threshold`` is set only
    for quality events.  ``time`` is the crossing instant in sim-seconds.
    """

    time: float
    kind: str
    node_a: str
    node_b: str
    tech: str
    threshold: int | None = None

    def pair(self) -> tuple[str, str]:
        return (self.node_a, self.node_b)


class Watch:
    """One armed observation; returned by the ``watch_*`` methods."""

    __slots__ = ("bus", "watch_id", "node_a", "node_b", "tech", "threshold",
                 "callback", "on_cancel", "once", "only_kind", "active",
                 "last_fired", "_handle")

    def __init__(self, bus: "ConnectivityBus", watch_id: int, node_a: str,
                 node_b: str, tech: "Technology", threshold: int | None,
                 callback: typing.Callable[[ConnectivityEvent], None],
                 on_cancel: typing.Callable[[], None] | None,
                 once: bool, only_kind: str | None):
        self.bus = bus
        self.watch_id = watch_id
        self.node_a = node_a
        self.node_b = node_b
        self.tech = tech
        self.threshold = threshold
        self.callback = callback
        self.on_cancel = on_cancel
        self.once = once
        self.only_kind = only_kind
        self.active = True
        self.last_fired: ConnectivityEvent | None = None
        self._handle: "ScheduledCall | None" = None

    @property
    def armed(self) -> bool:
        """True while a kernel event is scheduled for this watch."""
        return self._handle is not None and not self._handle.cancelled

    def cancel(self) -> None:
        """Convenience for :meth:`ConnectivityBus.cancel`."""
        self.bus.cancel(self)


class ConnectivityBus:
    """Deterministic scheduler of predicted connectivity events."""

    def __init__(self, world: "World",
                 solver: ContactSolver | None = None):
        self.world = world
        self.sim = world.sim
        self.solver = solver or ContactSolver(world)
        self.stats = world.stats.bus
        self._watches: dict[int, Watch] = {}
        self._by_node: dict[str, set[int]] = {}
        # Watches held because an endpoint is suspended (crash faults):
        # alive but unscheduled until resume_node re-arms them.
        self._held: set[int] = set()
        self._next_id = 1
        # Passive taps (telemetry): notified of every fired event but
        # invisible to BusCounters and unable to affect scheduling, so
        # attaching a recorder cannot perturb any watch-count metric.
        self._taps: list[typing.Callable[[ConnectivityEvent], None]] = []

    # ------------------------------------------------------------------
    # watch registration
    # ------------------------------------------------------------------
    def watch_link(self, node_a: str, node_b: str, tech: "Technology",
                   callback: typing.Callable[[ConnectivityEvent], None],
                   on_cancel: typing.Callable[[], None] | None = None,
                   ) -> Watch:
        """Repeating watch: fire at every LinkUp/LinkDown of the pair.

        Registration is O(P) in the pair's mobility segments over one
        prediction horizon (the arm-time closed-form solve); each
        firing re-arms at the same cost.  ``callback`` receives the
        :class:`ConnectivityEvent` *at* the crossing instant (kernel
        time equals ``event.time``).  ``on_cancel`` fires exactly once
        if the watch is invalidated (node removed, explicit
        :meth:`cancel`) — :class:`ContactStream` uses it to observe
        churn.  Steady-state cost for a
        settled pair is zero: the watch parks.  Every ``watch_*`` method
        raises ``KeyError`` if either node is unknown to the world.
        """
        return self._register(node_a, node_b, tech, None, callback,
                              on_cancel, once=False, only_kind=None)

    def watch_link_down(self, node_a: str, node_b: str, tech: "Technology",
                        callback: typing.Callable[
                            [ConnectivityEvent], None],
                        on_cancel: typing.Callable[[], None] | None = None,
                        ) -> Watch:
        """One-shot watch: fire once at the pair's next LinkDown.

        Used by :class:`~repro.radio.channel.Link` to break at the
        scheduled instant the endpoints leave coverage.  O(P) to arm
        (see :meth:`watch_link`); intermediate LinkUp flips are skipped
        inside the same arm call, never scheduled.  The watch
        deactivates itself after firing — cancelling it afterwards is a
        harmless no-op.
        """
        return self._register(node_a, node_b, tech, None, callback,
                              on_cancel, once=True, only_kind=LINK_DOWN)

    def watch_quality_below(self, node_a: str, node_b: str,
                            tech: "Technology", threshold: int,
                            callback: typing.Callable[
                                [ConnectivityEvent], None],
                            on_cancel: typing.Callable[[], None]
                            | None = None) -> Watch:
        """One-shot watch: fire when quality next reads below threshold.

        ``threshold`` is on the paper's 0–255 quality scale.  If the
        pair's quality is *already* below the threshold the event fires
        on the next kernel step at the current instant — callers need
        no pre-check.  Pure-geometry pairs invert the threshold to a
        distance ring and arm in O(P) closed form; pairs under a
        quality override fall back to guarded bisection
        (O(horizon / step) predicate samples per arm) and never park,
        since an override is not a function of geometry.  Used by the
        event-driven handover monitor.
        """
        if not 0 <= threshold <= 255:
            raise ValueError(f"threshold out of range: {threshold}")
        return self._register(node_a, node_b, tech, threshold, callback,
                              on_cancel, once=True, only_kind=QUALITY_BELOW)

    def watch_links_batch(self, pairs: typing.Sequence[tuple[str, str]],
                          tech: "Technology",
                          callback: typing.Callable[
                              [ConnectivityEvent], None],
                          on_cancel: typing.Callable[[], None] | None = None,
                          ) -> list[Watch]:
        """Register one repeating link watch per pair, in pair order.

        Exactly :meth:`watch_link` in a loop — same watches, same
        scheduled events, same counters; O(segments) per pair.  Nothing
        in ``src/`` calls it; ``perf/tracer.py`` still wraps it by name.
        """
        return [self._register(node_a, node_b, tech, None, callback,
                               on_cancel, once=False, only_kind=None)
                for node_a, node_b in pairs]

    def _register(self, node_a: str, node_b: str, tech: "Technology",
                  threshold: int | None,
                  callback: typing.Callable[[ConnectivityEvent], None],
                  on_cancel: typing.Callable[[], None] | None,
                  once: bool, only_kind: str | None) -> Watch:
        # A watch on an unknown node could never fire: the solver has no
        # mobility to predict from, and cancel_node never saw it.
        for node_id in (node_a, node_b):
            if not self.world.has_node(node_id):
                raise KeyError(f"unknown node: {node_id!r}")
        first, second = sorted((node_a, node_b))
        watch = Watch(self, self._next_id, first, second, tech, threshold,
                      callback, on_cancel, once, only_kind)
        self._next_id += 1
        self._watches[watch.watch_id] = watch
        self._by_node.setdefault(first, set()).add(watch.watch_id)
        self._by_node.setdefault(second, set()).add(watch.watch_id)
        self._arm(watch)
        return watch

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def cancel(self, watch: Watch) -> None:
        """Cancel a watch; its pending kernel event becomes a no-op.

        Idempotent; O(1) (heap entries cannot be deleted, so the
        scheduled callback is nulled instead — see
        :class:`~repro.sim.kernel.ScheduledCall`).  Fires the watch's
        ``on_cancel`` hook (the handover monitor uses it to wake from a
        predictive sleep and re-examine its connection; a contact stream
        uses it to notice churn).
        """
        if not watch.active:
            return
        watch.active = False
        if watch._handle is not None:
            watch._handle.cancel()
            watch._handle = None
        self._forget(watch)
        self.stats.cancelled += 1
        if watch.on_cancel is not None:
            watch.on_cancel()

    def cancel_node(self, node_id: str) -> int:
        """Cancel every watch naming ``node_id``; returns how many.

        Called by ``World.remove_node`` so no contact or quality event
        for a powered-off/removed node can ever fire — the stale-state
        guarantee every consumer (links, monitors, recorders, the DTN
        forwarder) leans on.  O(W log W) for W watches naming the node
        (sorted for deterministic ``on_cancel`` ordering).  A node
        re-added later under the same id starts with no watches.
        """
        watch_ids = self._by_node.pop(node_id, set())
        cancelled = 0
        for watch_id in sorted(watch_ids):
            watch = self._watches.get(watch_id)
            if watch is not None and watch.active:
                self.cancel(watch)
                cancelled += 1
        return cancelled

    def invalidate_pair(self, node_a: str, node_b: str,
                        tech: "Technology") -> None:
        """Re-predict every watch on the pair (quality override changed).

        Wired into ``World.set_quality_override``: the outstanding
        schedule was computed against the old quality function and is
        silently wrong, so each matching watch's pending event is
        cancelled and the watch re-armed from the current instant.
        O(W_a ∩ W_b) plus one re-prediction per affected watch; counted
        in ``stats.rescheduled``.  Watches on other technologies of the
        same pair are untouched.
        """
        first, second = sorted((node_a, node_b))
        ids = self._by_node.get(first, set()) & self._by_node.get(
            second, set())
        for watch_id in sorted(ids):
            watch = self._watches.get(watch_id)
            if (watch is None or not watch.active
                    or watch.tech.name != tech.name):
                continue
            if watch._handle is not None:
                watch._handle.cancel()
                watch._handle = None
            self.stats.rescheduled += 1
            self._arm(watch)

    def suspend_node(self, node_id: str) -> int:
        """Hold every watch naming a suspended node; close its contacts.

        Called by ``World.suspend_node`` *after* the node is flagged
        suspended.  Unlike :meth:`cancel_node`, the watches survive:
        each pending kernel event is cancelled and the watch parks in
        the held set until :meth:`resume_node`.  Pairs that were in
        range at the suspension instant (pre-fault geometry, via
        ``World.in_range_raw``) get one synthetic LinkDown so consumers
        — links, DTN overlays, trace recorders — observe the outage as
        an ordinary connectivity event; quality one-shots whose reading
        just dropped to 0 below their threshold fire likewise.  Returns
        the number of watches held; O(W log W) for W watches naming the
        node.
        """
        world = self.world
        held = 0
        for watch_id in sorted(self._by_node.get(node_id, set())):
            watch = self._watches.get(watch_id)
            if watch is None or not watch.active:
                continue
            if watch._handle is not None:
                watch._handle.cancel()
                watch._handle = None
            self._held.add(watch_id)
            held += 1
            other = (watch.node_b if watch.node_a == node_id
                     else watch.node_a)
            if world.is_suspended(other):
                continue  # the pair was already dark — no edge to report
            if watch.threshold is None:
                if (watch.only_kind in (None, LINK_DOWN)
                        and world.in_range_raw(watch.node_a, watch.node_b,
                                               watch.tech)):
                    self._deliver_synthetic(watch, LINK_DOWN)
            elif watch.only_kind == QUALITY_BELOW and watch.threshold > 0:
                # The suspended pair now reads quality 0 — below any
                # positive threshold.
                self._deliver_synthetic(watch, QUALITY_BELOW)
        return held

    def resume_node(self, node_id: str) -> int:
        """Re-arm watches held for a node that just resumed.

        Called by ``World.resume_node`` *after* the suspension flag is
        cleared.  Watches whose other endpoint is still suspended stay
        held.  Repeating link watches whose pair is back in range fire
        one synthetic LinkUp before re-arming — a settled in-range pair
        would otherwise never produce the reopening edge (the same
        reasoning as the DTN overlay's seeded contacts).  Returns the
        number re-armed; each re-arm counts ``rescheduled``.
        """
        world = self.world
        resumed = 0
        for watch_id in sorted(self._held
                               & self._by_node.get(node_id, set())):
            watch = self._watches.get(watch_id)
            if watch is None or not watch.active:
                self._held.discard(watch_id)
                continue
            if (world.is_suspended(watch.node_a)
                    or world.is_suspended(watch.node_b)):
                continue  # held until the other endpoint returns too
            self._held.discard(watch_id)
            if (watch.threshold is None and not watch.once
                    and world.in_range(watch.node_a, watch.node_b,
                                       watch.tech)):
                self._deliver_synthetic(watch, LINK_UP)
                if not watch.active:
                    continue
            self.stats.rescheduled += 1
            self._arm(watch)
            resumed += 1
        return resumed

    def _deliver_synthetic(self, watch: Watch, kind: str) -> None:
        """Fire a watch at the current instant, outside the predictor.

        Suspension and resume edges are not geometric crossings — the
        solver cannot predict them — so the bus synthesises the event
        directly.  Counted ``fired`` (preserving the forwarder's
        ``wakeups ≤ bus fired`` invariant); once-watches complete
        exactly as from a predicted firing.  The caller decides whether
        to re-arm afterwards.
        """
        event = ConnectivityEvent(self.sim.now, kind, watch.node_a,
                                  watch.node_b, watch.tech.name,
                                  watch.threshold)
        watch.last_fired = event
        self.stats.fired += 1
        for tap in self._taps:
            tap(event)
        if watch.once:
            watch.active = False
            self._forget(watch)
        watch.callback(event)

    def _forget(self, watch: Watch) -> None:
        self._held.discard(watch.watch_id)
        self._watches.pop(watch.watch_id, None)
        for node_id in (watch.node_a, watch.node_b):
            members = self._by_node.get(node_id)
            if members is not None:
                members.discard(watch.watch_id)
                if not members:
                    del self._by_node[node_id]

    # ------------------------------------------------------------------
    # prediction → schedule → fire
    # ------------------------------------------------------------------
    #: Two same-kind events of one watch closer than this are float noise
    #: from re-solving at a root, not a physical re-crossing.
    _DEDUP_TOL_S = 1e-6

    def _predict(self, watch: Watch,
                 t0: float | None) -> Crossing | None:
        if watch.threshold is None:
            return self.solver.next_link_crossing(
                watch.node_a, watch.node_b, watch.tech, t0=t0)
        if t0 is None and watch.only_kind == QUALITY_BELOW:
            quality = self.world.link_quality_at(
                watch.node_a, watch.node_b, watch.tech, self.sim.now)
            if quality < watch.threshold:
                # Already below at arm time: fire at the current instant.
                return Crossing(self.sim.now, inside=False)
        return self.solver.next_quality_crossing(
            watch.node_a, watch.node_b, watch.tech, watch.threshold, t0=t0)

    def _kind_of(self, watch: Watch, crossing: Crossing) -> str:
        if watch.threshold is None:
            return LINK_UP if crossing.inside else LINK_DOWN
        return QUALITY_ABOVE if crossing.inside else QUALITY_BELOW

    def _schedule_rearm(self, watch: Watch) -> None:
        horizon_end = self.sim.now + self.solver.horizon_s
        watch._handle = self.sim.call_at(
            horizon_end, lambda w=watch: self._rearm(w),
            name=f"bus-rearm#{watch.watch_id}")
        self.stats.rescheduled += 1

    def _can_park(self, watch: Watch) -> bool:
        """True when a crossing-free window means *no crossing, ever*.

        Settled geometry (both mobility models constant forever) parks
        link watches outright — but a quality watch whose pair carries a
        time-varying override is not a function of geometry at all: its
        crossing may simply lie beyond the horizon, so it must keep
        re-checking.
        """
        if watch.threshold is not None and self.world.has_override(
                watch.node_a, watch.node_b, watch.tech):
            return False
        return self.solver.pair_settled(watch.node_a, watch.node_b,
                                        self.sim.now)

    def _arm(self, watch: Watch) -> None:
        if (self.world.is_suspended(watch.node_a)
                or self.world.is_suspended(watch.node_b)):
            # A suspended endpoint has no physics worth predicting (its
            # quality is pinned at 0): hold the watch; resume_node
            # re-arms it.  Catches re-registrations and pair
            # invalidations that race with an outage.
            self._held.add(watch.watch_id)
            watch._handle = None
            return
        t0: float | None = None  # None = predict from the current instant
        for _attempt in range(8):
            crossing = self._predict(watch, t0)
            if crossing is None:
                if self._can_park(watch):
                    watch._handle = None  # parked: no crossing, ever
                    return
                self._schedule_rearm(watch)
                return
            kind = self._kind_of(watch, crossing)
            last = watch.last_fired
            if (last is not None and kind == last.kind
                    and crossing.time <= last.time + self._DEDUP_TOL_S):
                t0 = last.time + self._DEDUP_TOL_S
                continue
            if watch.only_kind is not None and kind != watch.only_kind:
                # Filtered flip (e.g. a LinkUp on a link-down watch):
                # step past it and keep looking within this arm call.
                t0 = crossing.time
                continue
            event = ConnectivityEvent(
                crossing.time, kind, watch.node_a, watch.node_b,
                watch.tech.name, watch.threshold)
            watch._handle = self.sim.call_at(
                max(self.sim.now, crossing.time),
                lambda w=watch, e=event: self._fire(w, e),
                name=f"bus#{watch.watch_id}:{kind}")
            self.stats.scheduled += 1
            return
        # Degenerate prediction churn: fall back to a horizon re-check.
        self._schedule_rearm(watch)

    def _rearm(self, watch: Watch) -> None:
        if watch.active:
            watch._handle = None
            self._arm(watch)

    def _fire(self, watch: Watch, event: ConnectivityEvent) -> None:
        if not watch.active:
            return
        watch._handle = None
        watch.last_fired = event
        self.stats.fired += 1
        for tap in self._taps:
            tap(event)
        if watch.once:
            watch.active = False
            self._forget(watch)
            watch.callback(event)
            return
        watch.callback(event)
        if watch.active:
            self._arm(watch)

    # ------------------------------------------------------------------
    # passive taps (telemetry)
    # ------------------------------------------------------------------
    def add_tap(self,
                tap: typing.Callable[[ConnectivityEvent], None]) -> None:
        """Register a passive observer of every fired event.

        Taps see the :class:`ConnectivityEvent` *before* the owning
        watch's callback runs and never touch counters, watches or the
        kernel — the telemetry plane's non-perturbation contract.
        """
        self._taps.append(tap)

    def remove_tap(self,
                   tap: typing.Callable[[ConnectivityEvent], None]) -> None:
        """Unregister a tap (no-op if absent)."""
        try:
            self._taps.remove(tap)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def active_watches(self) -> int:
        """Number of live watches (armed or parked)."""
        return len(self._watches)


class ContactStream:
    """The LinkUp/LinkDown stream of every pair of a node set.

    One repeating :meth:`ConnectivityBus.watch_link` per sorted pair of
    ``nodes``, each handed ``callback`` unchanged — O(pairs) watches,
    each dormant between crossings, so the stream costs kernel wakeups
    only when contacts change.  Raises ``ValueError`` above
    :data:`MAX_PAIRS` pairs.

    ``initial`` holds one synthetic LinkUp per pair already in range at
    attach, in pair order: a settled in-range pair never produces a
    LinkUp event, so consumers replay these as the opening edges.
    ``on_leave(node)`` fires when the bus cancels a pair because an
    endpoint left the world (``World.remove_node`` churn) — once per
    cancelled pair, so it must be idempotent.  :meth:`detach` cancels
    the watches without calling it.
    """

    def __init__(self, world: "World", tech: "Technology",
                 nodes: typing.Iterable[str],
                 callback: typing.Callable[[ConnectivityEvent], None],
                 on_leave: typing.Callable[[str], None] | None = None):
        names = sorted(nodes)
        pair_count = len(names) * (len(names) - 1) // 2
        if pair_count > MAX_PAIRS:
            raise ValueError(
                f"{pair_count} pairs exceed MAX_PAIRS={MAX_PAIRS}")
        self.world = world
        self.tech = tech
        self._on_leave = on_leave
        self._watches: list[Watch] = []
        self.initial: list[ConnectivityEvent] = []
        now = world.sim.now
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                if world.in_range(first, second, tech):
                    self.initial.append(ConnectivityEvent(
                        now, LINK_UP, first, second, tech.name))
                self._watches.append(world.bus.watch_link(
                    first, second, tech, callback=callback,
                    on_cancel=None if on_leave is None else
                    (lambda a=first, b=second: self._on_cancel(a, b))))

    def _on_cancel(self, a: str, b: str) -> None:
        if self._on_leave is None:
            return   # detached: our own teardown, not churn
        for name in (a, b):
            if not self.world.has_node(name):
                self._on_leave(name)

    def window(self, a: str, b: str, now: float) -> float:
        """Predicted close instant of the pair's contact open at ``now``.

        One closed-form solve (O(segments)): the next LinkDown crossing.
        A settled in-range pair never closes — ``inf``.  No crossing
        before the solver horizon yields ``now + horizon_s`` (an
        *under*-estimate of the window); the real LinkDown event still
        arrives whenever it happens.
        """
        solver = self.world.bus.solver
        crossing = solver.next_link_crossing(a, b, self.tech, t0=now)
        if crossing is not None and not crossing.inside:
            return crossing.time
        if crossing is None and solver.pair_settled(a, b, now):
            return math.inf
        return now + solver.horizon_s

    def detach(self) -> None:
        """Cancel every watch without calling ``on_leave``.  Idempotent."""
        self._on_leave = None
        for watch in self._watches:
            if watch.active:
                watch.cancel()
        self._watches.clear()

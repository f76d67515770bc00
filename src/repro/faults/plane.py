"""The fault plane: live injected-fault state attached to a world.

One :class:`FaultPlane` per :class:`~repro.radio.world.World` (installed
as ``world.faults``).  Fault *models* (:mod:`repro.faults.models`)
sample schedules and arm them here; consumers — the DTN planes, the
connectivity bus, the world's query surface — ask the plane three
questions:

* :meth:`is_crashed` — is this node dark right now?
* :meth:`can_transmit` — may a copy move from sender to receiver at
  this instant (crash / deaf / mute / jammer gates, in that order)?
* :meth:`advertised_vector` — what does this node *claim* to carry
  (the byzantine-beacon lie)?

Everything is event-driven: timed faults are kernel events armed once
at install (``call_at``), the jammer is a pure function of time via its
mobility model, and byzantine behaviour is a per-exchange predicate.
No component polls the plane on a timer.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.metrics.counters import FaultCounters
from repro.mobility.base import MobilityModel, distance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.radio.world import World

#: Fault-event kinds, in schedule-sort order within an instant.
CRASH = "crash"
REBOOT = "reboot"
DEAF = "deaf"
DEAF_END = "deaf-end"
MUTE = "mute"
MUTE_END = "mute-end"
BYZANTINE = "byzantine"
JAMMER = "jammer"


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault transition: ``node`` does ``kind`` at ``time``.

    Frozen and orderable so a plane's :attr:`FaultPlane.schedule` can be
    compared across runs — the determinism property tests assert two
    same-seed builds produce identical tuples.
    """

    time: float
    kind: str
    node: str

    def sort_key(self) -> tuple[float, str, str]:
        """Deterministic ordering: time, then kind, then node."""
        return (self.time, self.kind, self.node)


class FaultPlane:
    """Injected-fault state for one world; see the module docstring.

    Parameters
    ----------
    world:
        The world to attach to.  ``world.faults`` must still be unset —
        composing several fault *models* onto one plane is supported,
        stacking two planes is a configuration error.
    """

    def __init__(self, world: "World"):
        if getattr(world, "faults", None) is not None:
            raise ValueError("a FaultPlane is already installed on "
                             "this world; compose models onto it "
                             "instead of stacking planes")
        self.world = world
        self.sim = world.sim
        self.counters = FaultCounters()
        #: Every armed :class:`FaultEvent`, in sort order — the
        #: deterministic schedule the property tests compare.
        self.schedule: list[FaultEvent] = []
        self._crashed: set[str] = set()
        self._deaf: set[str] = set()
        self._mute: set[str] = set()
        self._byzantine: set[str] = set()
        self._jammers: list[tuple[MobilityModel, float]] = []
        self._listeners: list = []
        world.faults = self

    # ------------------------------------------------------------------
    # installation surface (used by repro.faults.models)
    # ------------------------------------------------------------------
    def add_listener(self, listener) -> None:
        """Register an ``on_crash(node)`` / ``on_reboot(node)`` consumer.

        DTN planes register themselves so custody state dies *before*
        the world suspends the node (ordering documented in
        :meth:`crash_now`).  Idempotent per listener object.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    def arm(self, events) -> None:
        """Record sampled fault events and schedule their transitions.

        Timed kinds become kernel events at ``max(now, time)``;
        ``byzantine`` applies immediately (the lie is permanent);
        ``jammer`` entries are bookkeeping only (jamming is positional,
        installed via :meth:`add_jammer`).
        """
        for event in sorted(events, key=FaultEvent.sort_key):
            self.schedule.append(event)
            if event.kind == BYZANTINE:
                self._byzantine.add(event.node)
            elif event.kind != JAMMER:
                self.sim.call_at(
                    max(self.sim.now, event.time),
                    lambda event=event: self._apply(event),
                    name=f"fault:{event.kind}:{event.node}")
        # Models install one after another; keep the composed schedule
        # globally sorted so it reads (and diffs) as one timeline.
        self.schedule.sort(key=FaultEvent.sort_key)

    def add_jammer(self, mobility: MobilityModel, radius_m: float) -> None:
        """Install a mobile jammer: a roaming coverage disk.

        The jammer is not a world node — it has no radio, no identity,
        and costs zero events; :meth:`jammed` evaluates its mobility
        model at query time.
        """
        if radius_m <= 0:
            raise ValueError(f"jammer radius must be positive: {radius_m}")
        self._jammers.append((mobility, radius_m))

    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == CRASH:
            self.crash_now(event.node)
        elif kind == REBOOT:
            self.reboot_now(event.node)
        elif kind == DEAF:
            self._deaf.add(event.node)
        elif kind == DEAF_END:
            self._deaf.discard(event.node)
        elif kind == MUTE:
            self._mute.add(event.node)
        elif kind == MUTE_END:
            self._mute.discard(event.node)
        else:  # pragma: no cover - arm() filters the other kinds
            raise ValueError(f"unknown fault kind: {kind}")

    # ------------------------------------------------------------------
    # crash-reboot transitions
    # ------------------------------------------------------------------
    def crash_now(self, node_id: str) -> None:
        """Begin a crash outage: state loss, then the radio goes dark.

        Listeners (DTN planes) run *first* so in-flight transfers close
        as churn cancellations and stores wipe while the world still
        reports pre-fault geometry; only then does
        ``World.suspend_node`` fire the synthetic LinkDowns that other
        consumers (links, overlays) observe.  No-op for an unknown or
        already-crashed node — a schedule sampled before a removal must
        not resurrect anything.
        """
        if not self.world.has_node(node_id) or node_id in self._crashed:
            return
        self._crashed.add(node_id)
        self.counters.crashes += 1
        telemetry = getattr(self.world, "telemetry", None)
        if telemetry is not None:
            telemetry.fault_down(node_id, "crash")
        for listener in self._listeners:
            listener.on_crash(node_id)
        self.world.suspend_node(node_id)

    def reboot_now(self, node_id: str) -> None:
        """End a crash outage: the node returns, empty-handed.

        The state loss already happened at crash time; here the world
        resumes the node (grid re-index, held watches re-arm, synthetic
        LinkUps for in-range pairs) and listeners get ``on_reboot``.
        A node removed mid-outage stays gone.
        """
        if node_id not in self._crashed:
            return
        self._crashed.discard(node_id)
        if not self.world.has_node(node_id):
            return
        self.counters.reboots += 1
        telemetry = getattr(self.world, "telemetry", None)
        if telemetry is not None:
            telemetry.fault_up(node_id)
        for listener in self._listeners:
            listener.on_reboot(node_id)
        self.world.resume_node(node_id)

    def on_node_removed(self, node_id: str) -> None:
        """Forget all fault state for a permanently removed node.

        Called by ``World.remove_node`` so a node crashed at removal
        time leaves no orphaned flags; its pending reboot event fires
        as a guarded no-op (``reboot_now`` checks membership first).
        """
        self._crashed.discard(node_id)
        self._deaf.discard(node_id)
        self._mute.discard(node_id)
        self._byzantine.discard(node_id)

    # ------------------------------------------------------------------
    # query surface
    # ------------------------------------------------------------------
    def is_crashed(self, node_id: str) -> bool:
        """True while the node is mid-outage.  O(1)."""
        return node_id in self._crashed

    def is_byzantine(self, node_id: str) -> bool:
        """True if the node beacons a lying summary vector.  O(1)."""
        return node_id in self._byzantine

    def jammed(self, node_id: str) -> bool:
        """True if the node sits inside any jammer's disk right now.

        O(jammers); pure function of virtual time (mobility models are
        closed-form), so repeated queries at one instant agree.
        """
        if not self._jammers or not self.world.has_node(node_id):
            return False
        now = self.sim.now
        position = self.world.position(node_id)
        return any(distance(position, mobility.position(now)) <= radius
                   for mobility, radius in self._jammers)

    def can_transmit(self, sender: str, receiver: str) -> bool:
        """May a bundle copy move sender → receiver at this instant?

        Gate order: crash (either endpoint dark), mute sender / deaf
        receiver, then jammer coverage.  Only jammer suppressions are
        counted (``jammed_deliveries``) — crash and deaf/mute losses
        surface through the contact and custody counters instead.

        With a lossy PHY plane installed (``world.phy``) the binary
        jammer gate is skipped entirely: jammers instead raise the
        receiver's noise floor inside :mod:`repro.radio.phy`, so a
        strong nearby signal can still punch through while a marginal
        one fades out — and ``jammed_deliveries`` stays zero, the
        suppressions surfacing as PHY ``lost_fading`` instead.
        """
        if sender in self._crashed or receiver in self._crashed:
            return False
        if sender in self._mute or receiver in self._deaf:
            return False
        if (self._jammers
                and getattr(self.world, "phy", None) is None
                and (self.jammed(sender) or self.jammed(receiver))):
            self.counters.jammed_deliveries += 1
            return False
        return True

    def advertised_vector(self, node_id: str,
                          vector: frozenset) -> frozenset:
        """The summary vector ``node_id`` *advertises* to a peer.

        A byzantine beaconer lies by omission: it advertises the empty
        vector ("I have seen nothing"), so honest peers waste
        transmissions and contact bytes re-offering everything it
        already holds.  Ground-truth checks (``has_seen``, delivery,
        custody settlement) never go through here — the lie is about
        advertisement, not about reception.
        """
        if node_id in self._byzantine and vector:
            self.counters.byzantine_beacons += 1
            return frozenset()
        return vector

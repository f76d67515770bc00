"""Custodian death under crash faults.

A node that crashes mid-carry must have its buffered bundles dropped
(counted ``dropped_dead``) while it stays on the plane, and a
crash-reboot must never mint spray tokens.
"""

from repro.dtn import DtnOverlay, make_router
from repro.faults import FaultPlane
from repro.mobility.linear import LinearMovement
from repro.scenarios import Scenario


def _mule_world(seed=5):
    """src — 60 m gap — dst, with a mule driving from src to dst."""
    scenario = Scenario(seed=seed)
    scenario.add_node("src", position=(0, 0), mobility_class="static")
    scenario.add_node("dst", position=(60, 0), mobility_class="static")
    scenario.add_node("mule",
                      mobility=LinearMovement((0.0, 5.0), (1.0, 0.0)))
    return scenario


def test_crashed_custodian_drops_bundles_with_counter():
    """A crash is transient churn: the store wipes (counted
    ``dropped_dead``) but the node stays on the plane."""
    scenario = _mule_world(seed=11)
    fault_plane = FaultPlane(scenario.world)
    plane = DtnOverlay(scenario.world, make_router("spray",
                                                   spray_copies=2))
    bundle = plane.send("src", "dst", ttl_s=500.0)
    scenario.run(until=20.0)
    assert plane.stores["mule"].get(bundle.bundle_id) is not None
    fault_plane.crash_now("mule")
    assert plane.counters.dropped_dead == 1
    assert len(plane.stores["mule"]) == 0
    assert "mule" in plane.live_nodes()          # dark, still on the plane
    scenario.run(until=400.0)
    # The mule's copy died at (20, 5), out of range of src forever
    # after; src's wait-phase token never meets dst on its own.
    assert plane.delivered == {}


def test_spray_tokens_conserved_across_crash_and_reboot():
    """Crash-reboot must never mint spray tokens: the total in-flight
    copy count only ever shrinks, and a rebooted custodian can be
    re-infected from a carrier that still holds tokens."""
    scenario = _mule_world(seed=12)
    fault_plane = FaultPlane(scenario.world)
    plane = DtnOverlay(scenario.world, make_router("spray",
                                                   spray_copies=4))
    bundle = plane.send("src", "dst", ttl_s=500.0)

    def tokens():
        return sum(held.copies
                   for store in plane.stores.values()
                   for held in [store.get(bundle.bundle_id)]
                   if held is not None)

    assert tokens() == 4
    scenario.run(until=2.0)                      # mule at (2, 5): met src
    assert plane.stores["mule"].get(bundle.bundle_id) is not None
    fault_plane.crash_now("mule")                # its tokens die with it
    assert tokens() == 2                         # src kept its half
    fault_plane.reboot_now("mule")               # still in src's disk
    scenario.run(until=3.0)
    # The synthetic LinkUp re-ran the exchange: src re-split its
    # remaining tokens; the total never exceeds the original budget.
    assert plane.stores["mule"].get(bundle.bundle_id) is not None
    assert tokens() == 2
    scenario.run(until=120.0)
    assert bundle.bundle_id in plane.delivered   # re-infection delivered
    assert plane.counters.dropped_dead == 1

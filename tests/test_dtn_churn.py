"""Buffer eviction under churn: dead custodians and dead destinations.

Extends the PR 1/PR 3 stale-state regression family to the DTN plane:
a node that is ``power_off()``/``remove_node()``-ed mid-carry must have
its buffered bundles dropped (counted ``dropped_dead``) — and a bundle
addressed to a removed node must *never* be delivered, aging out by TTL
instead.  The connectivity bus guarantees no contact event for a dead
node ever fires; these tests pin the forwarder's side of the contract.
"""

import pytest

from repro.dtn import DtnOverlay, PollingDtnOverlay, make_router
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


def test_dead_custodian_drops_bundles_and_never_delivers():
    scenario = _mule_world()
    plane = DtnOverlay(scenario.world, make_router("spray",
                                                   spray_copies=2))
    bundle = plane.send("src", "dst", ttl_s=500.0)
    scenario.run(until=20.0)
    # The mule picked up half the tokens at the seeded src contact.
    assert plane.stores["mule"].get(bundle.bundle_id) is not None
    scenario.remove_node("mule")             # battery-out mid-carry
    assert plane.counters.dropped_dead == 1
    assert "mule" not in plane.live_nodes()
    assert len(plane.stores["mule"]) == 0
    scenario.run(until=400.0)
    # src keeps its wait-phase token but never meets dst itself; the
    # mule's copy died with it — nothing is ever delivered.
    assert plane.delivered == {}
    assert plane.contacts("mule") == []


def test_bundle_to_removed_destination_is_never_delivered():
    scenario = _mule_world(seed=6)
    plane = DtnOverlay(scenario.world, make_router("epidemic"))
    bundle = plane.send("src", "dst", ttl_s=100.0)
    scenario.run(until=20.0)
    scenario.remove_node("dst")              # destination dies first
    scenario.run(until=300.0)                # mule passes the corpse
    assert plane.delivered == {}
    assert "dst" in plane._dead
    # The surviving copies age out by TTL at the next lazy sweep.
    for name in ("src", "mule"):
        plane.stores[name].expire(scenario.sim.now)
        assert plane.stores[name].get(bundle.bundle_id) is None
    assert plane.counters.expired >= 1
    assert plane.counters.delivered == 0


def test_sends_naming_a_dead_node_are_refused_at_the_edge():
    scenario = _mule_world(seed=7)
    plane = DtnOverlay(scenario.world, make_router("epidemic"))
    scenario.run(until=5.0)
    scenario.remove_node("dst")
    with pytest.raises(ValueError, match="removed"):
        plane.send("src", "dst")
    with pytest.raises(ValueError, match="removed"):
        plane.send("dst", "src")
    with pytest.raises(KeyError, match="not on the DTN plane"):
        plane.send("src", "stranger")


def test_polling_oracle_retires_removed_nodes():
    scenario = _mule_world(seed=8)
    plane = PollingDtnOverlay(scenario.world, make_router("epidemic"))
    plane.send("src", "dst", ttl_s=500.0)
    scenario.run(until=20.0)
    scenario.remove_node("mule")
    scenario.run(until=120.0)                # ticks keep running
    plane.stop()
    assert "mule" not in plane.live_nodes()
    assert plane.counters.dropped_dead >= 1
    assert plane.delivered == {}


def test_crashed_custodian_drops_bundles_with_counter():
    """A crash is transient churn: the store wipes (counted
    ``dropped_dead``) but the node stays on the plane, unlike removal."""
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
    assert "mule" in plane.live_nodes()          # dark, not removed
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


def test_overlay_survives_churn_and_keeps_serving_the_living():
    """Removing one custodian must not disturb unrelated traffic."""
    scenario = _mule_world(seed=9)
    scenario.add_node("near", position=(3, 0), mobility_class="static")
    plane = DtnOverlay(scenario.world, make_router("epidemic"))
    doomed = plane.send("src", "dst", ttl_s=500.0)
    scenario.run(until=20.0)
    scenario.remove_node("mule")
    healthy = plane.send("src", "near", ttl_s=500.0)
    scenario.run(until=100.0)
    assert healthy.bundle_id in plane.delivered     # instant: in range
    assert doomed.bundle_id not in plane.delivered
    # No stale contact state names the dead node anywhere.
    for name in plane.live_nodes():
        assert "mule" not in plane.contacts(name)

"""The paper's topologies, laid out to scale for the 10 m Bluetooth radius.

Each builder returns a :class:`~repro.scenarios.builder.Scenario` with the
figure's devices added (not yet started), so tests and benchmarks share
identical geometry.
"""

from __future__ import annotations

from repro.radio.technologies import BLUETOOTH
from repro.scenarios.builder import Scenario


#: Metres between neighbouring nodes of :func:`line_topology` and
#: relays of :func:`tunnel_topology`: inside Bluetooth's 10 m radius,
#: beyond half of it, so each node reaches only its neighbours.
LINE_SPACING_M = 8.0


def line_topology(count: int, seed: int = 0, config=None) -> Scenario:
    """``count`` static nodes on a line, :data:`LINE_SPACING_M` apart
    (n0, n1, ...).

    With Bluetooth's 10 m radius each node reaches only its immediate
    neighbours — the maximal-diameter chain used by the delay
    (Fig. 3.10) and coverage sweeps.
    """
    if count < 1:
        raise ValueError(f"need at least one node, got {count}")
    scenario = Scenario(seed=seed)
    for index in range(count):
        scenario.add_node(f"n{index}",
                          position=(index * LINE_SPACING_M, 0.0),
                          mobility_class="static", config=config)
    return scenario


def random_disc(count: int, area: float = 40.0, seed: int = 0,
                technologies=("bluetooth",),
                mobility_class: str = "dynamic",
                config=None) -> Scenario:
    """``count`` nodes uniformly random in an ``area`` × ``area`` square."""
    scenario = Scenario(seed=seed)
    rng = scenario.sim.rng("topology/random-disc")
    for index in range(count):
        position = (rng.uniform(0.0, area), rng.uniform(0.0, area))
        scenario.add_node(f"n{index}", position=position,
                          technologies=technologies,
                          mobility_class=mobility_class,
                          config=config)
    return scenario


def fig_3_3_coverage_exclusion(seed: int = 0, config=None) -> Scenario:
    """Fig. 3.3: A sees B, C, D, E; E sees F, G; B/C/D cannot see F/G.

    The thesis uses this layout to show that one-jump neighbourhood
    fetching still leaves B, C and D ignorant of F and G.
    """
    scenario = Scenario(seed=seed)
    positions = {
        "A": (0.0, 0.0),
        "B": (-8.0, 0.0),
        "C": (0.0, 8.0),
        "D": (0.0, -8.0),
        "E": (8.0, 0.0),
        "F": (16.0, 0.0),
        "G": (14.0, 6.0),
    }
    for name, position in positions.items():
        scenario.add_node(name, position=position,
                          mobility_class="static", config=config)
    return scenario


def fig_3_6_dynamic_discovery(seed: int = 0, config=None) -> Scenario:
    """Fig. 3.6: the five-device example with the expected table for A.

    Adjacency: A–B, A–C, B–E, C–D.  The paper's resulting DeviceStorage
    for A is {B: 0 jumps; C: 0 jumps; D: 1 jump via C; E: 1 jump via B}.
    """
    scenario = Scenario(seed=seed)
    positions = {
        "A": (0.0, 0.0),
        "B": (8.0, 0.0),
        "C": (0.0, 8.0),
        "D": (0.0, 16.0),
        "E": (16.0, 0.0),
    }
    for name, position in positions.items():
        scenario.add_node(name, position=position,
                          mobility_class="static", config=config)
    return scenario


def fig_3_9_quality_equity(seed: int = 0, config=None) -> Scenario:
    """Fig. 3.9: the equal-sum diamond (AB=230, BD=230, AC=210, CD=250).

    Both A–B–D and A–C–D sum to 460, but A–C is below the 230 per-link
    threshold, so the paper rejects A–C–D.  Link qualities are pinned
    with world overrides to the figure's exact numbers.
    """
    scenario = Scenario(seed=seed)
    positions = {
        "A": (0.0, 0.0),
        "B": (7.0, 0.0),
        "C": (0.0, 7.0),
        "D": (7.0, 7.0),
    }
    for name, position in positions.items():
        scenario.add_node(name, position=position,
                          mobility_class="static", config=config)
    qualities = {
        ("A", "B"): 230,
        ("B", "D"): 230,
        ("A", "C"): 210,
        ("C", "D"): 250,
    }
    for (first, second), quality in qualities.items():
        scenario.world.set_quality_override(
            first, second, BLUETOOTH,
            lambda _t, quality=quality: quality)
    # The diagonal and cross links play no part in the figure; pin them
    # low enough that no alternative route competes.
    for first, second in (("A", "D"), ("B", "C")):
        scenario.world.set_quality_override(
            first, second, BLUETOOTH, lambda _t: 0)
    return scenario


def fig_4_5_bridge_test(seed: int = 0, config=None) -> Scenario:
    """Fig. 4.5: client – bridge – server, the §4.3 performance test.

    The client and server are 16 m apart (outside Bluetooth's 10 m
    radius); the bridge in the middle reaches both.
    """
    scenario = Scenario(seed=seed)
    scenario.add_node("client", position=(0.0, 0.0),
                      mobility_class="dynamic", config=config)
    scenario.add_node("bridge", position=(8.0, 0.0),
                      mobility_class="static", config=config)
    scenario.add_node("server", position=(16.0, 0.0),
                      mobility_class="static", config=config)
    return scenario


def fig_5_8_handover(seed: int = 0, config=None) -> Scenario:
    """Fig. 5.8: A (server), B (client) and C (the second-route bridge).

    All three are mutually in range; the experiment then *artificially*
    degrades the A–B link quality by 1 unit per second (the paper could
    not physically separate the machines far enough) until the
    HandoverThread switches B's connection to the A–C–B route.
    """
    scenario = Scenario(seed=seed)
    scenario.add_node("A", position=(0.0, 0.0),
                      mobility_class="static", config=config)
    scenario.add_node("B", position=(8.0, 0.0),
                      mobility_class="dynamic", config=config)
    scenario.add_node("C", position=(4.0, 6.0),
                      mobility_class="static", config=config)
    return scenario


def tunnel_topology(bridge_count: int = 3, seed: int = 0,
                    config=None) -> Scenario:
    """Fig. 6.1: coverage amplification through a tunnel.

    A GPRS-equipped ``gateway`` stands at the tunnel mouth; ``bridge_count``
    Bluetooth relays line the tunnel :data:`LINE_SPACING_M` apart; a
    ``phone`` sits at the far end, beyond any direct radio reach of the
    gateway.
    """
    if bridge_count < 1:
        raise ValueError("the tunnel needs at least one bridge")
    scenario = Scenario(seed=seed)
    scenario.add_node("gateway", position=(0.0, 0.0),
                      technologies=("bluetooth", "gprs"),
                      mobility_class="static", config=config)
    for index in range(bridge_count):
        scenario.add_node(f"relay{index}",
                          position=((index + 1) * LINE_SPACING_M, 0.0),
                          mobility_class="static", config=config)
    scenario.add_node("phone",
                      position=((bridge_count + 1) * LINE_SPACING_M, 0.0),
                      mobility_class="dynamic", config=config)
    return scenario

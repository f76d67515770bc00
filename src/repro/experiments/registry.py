"""Scenario registry: string names → scenario factories with typed schemas.

The experiment layer refers to scenarios *by name* so that an
:class:`~repro.experiments.spec.ExperimentSpec` is pure data — picklable
across worker processes, serialisable into result records, and stable to
diff between runs.  Every public factory in :mod:`repro.scenarios` (the
paper-figure topologies and the large-N family) is registered here with a
typed parameter schema, so a spec can be validated *before* any run
starts and ``python -m repro.experiments list`` can document every knob.

The registry is also the one place that composes the optional planes
onto a scenario.  Factories build geometry only; when an entry's schema
declares the shared fault (:mod:`repro.faults`) or lossy-PHY
(:mod:`repro.radio.phy`) knobs, :func:`build_scenario` installs those
planes after the factory returns.  ``hostile_corridor`` and
``lossy_festival`` are entries of this kind over ``commuter_corridor``
and ``crowded_festival`` that differ only in their knob defaults.

Every schema parameter has a default, so each scenario is constructible
with no arguments beyond a seed — the registry test relies on this.
Beyond ``count`` and the plane knobs, a factory argument becomes a
schema parameter only when something sets it through the registry: an
axis of a bundled spec on that scenario, or a named caller of
:func:`build_scenario` (``dense_plaza``'s ``area``, which the plaza
perf workload and ``scale_neighbors`` derive from a density).  Every
other knob is a module constant of its factory.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.faults import install_scenario_faults
from repro.radio.phy import install_scenario_phy
from repro.scenarios import (
    Scenario,
    city_day,
    commuter_corridor,
    crowded_festival,
    dense_plaza,
    fig_3_3_coverage_exclusion,
    fig_3_6_dynamic_discovery,
    fig_3_9_quality_equity,
    fig_4_5_bridge_test,
    fig_5_8_handover,
    island_hopping_ferry,
    line_topology,
    random_disc,
    rural_bus_dtn,
    sparse_highway,
    tunnel_topology,
)


@dataclasses.dataclass(frozen=True)
class Param:
    """One typed, defaulted parameter of a scenario factory.

    For ``tuple`` parameters, ``element`` (when set) types every member
    — so a malformed sequence fails at spec-validation time, not
    minutes into a sweep inside a factory.
    """

    name: str
    kind: type
    default: object
    doc: str = ""
    element: type | None = None

    def check(self, value: object) -> None:
        """Raise ``TypeError`` unless ``value`` fits this parameter.

        ``int`` is accepted where ``float`` is declared (the usual
        numeric-tower lenience); lists are accepted where ``tuple`` is
        declared (JSON has no tuples, and specs round-trip via JSON).
        """
        if self.kind is float and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            return
        if self.kind is int and isinstance(value, int) \
                and not isinstance(value, bool):
            return
        if self.kind is tuple and isinstance(value, (list, tuple)):
            if self.element is not None:
                for member in value:
                    if not isinstance(member, self.element):
                        raise TypeError(
                            f"parameter {self.name!r} expects a tuple "
                            f"of {self.element.__name__}, got element "
                            f"{member!r} ({type(member).__name__})")
            return
        if self.kind is str and isinstance(value, str):
            return
        raise TypeError(
            f"parameter {self.name!r} expects {self.kind.__name__}, "
            f"got {value!r} ({type(value).__name__})")


@dataclasses.dataclass(frozen=True)
class ScenarioEntry:
    """A registered scenario factory plus its parameter schema."""

    name: str
    factory: typing.Callable[..., Scenario]
    params: tuple[Param, ...]
    summary: str

    def param(self, name: str) -> Param:
        """Schema entry for ``name``; ``KeyError`` if not a parameter."""
        for param in self.params:
            if param.name == name:
                return param
        raise KeyError(
            f"scenario {self.name!r} has no parameter {name!r} "
            f"(has: {[p.name for p in self.params] or 'none'})")


_REGISTRY: dict[str, ScenarioEntry] = {}


def register_scenario(name: str, factory: typing.Callable[..., Scenario],
                      params: typing.Sequence[Param] = (),
                      summary: str = "") -> ScenarioEntry:
    """Register a factory under ``name``; re-registration is an error."""
    if name in _REGISTRY:
        raise ValueError(f"scenario {name!r} already registered")
    entry = ScenarioEntry(name, factory, tuple(params),
                          summary or (factory.__doc__ or "").split("\n")[0])
    _REGISTRY[name] = entry
    return entry


def scenario_names() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(_REGISTRY)


def get_scenario(name: str) -> ScenarioEntry:
    """Look up a registered scenario; ``KeyError`` with the valid names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"registered: {scenario_names()}") from None


def build_scenario(name: str, seed: int,
                   params: typing.Mapping[str, object] | None = None
                   ) -> Scenario:
    """Validate ``params`` against the schema and invoke the factory.

    Unknown parameter names raise ``KeyError``; type mismatches raise
    ``TypeError`` — both *before* the factory runs, so a bad spec fails
    during expansion rather than minutes into a sweep.  List values are
    converted to tuples (JSON round-trip produces lists).  Schema
    defaults fill every unspecified parameter, so a run is fully
    described by (scenario name, params, seed) even if a factory's own
    defaults drift later.

    The plane knobs (:data:`FAULT_KNOBS`, :data:`PHY_KNOBS`) never reach
    the factory: after it returns, the fault plane is installed over the
    footprint the factory recorded in ``scenario.area``, then the PHY
    plane.  Both install nothing at all-zero knobs.
    """
    entry = get_scenario(name)
    kwargs: dict[str, object] = {p.name: p.default for p in entry.params}
    for key, value in (params or {}).items():
        param = entry.param(key)
        param.check(value)
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    faults = {key: kwargs.pop(key) for key in FAULT_KNOBS if key in kwargs}
    phy = {key: kwargs.pop(key) for key in PHY_KNOBS if key in kwargs}
    scenario = entry.factory(seed=seed, **kwargs)
    if faults:
        install_scenario_faults(scenario, area=scenario.area, **faults)
    if phy:
        install_scenario_phy(scenario, **phy)
    return scenario


# ----------------------------------------------------------------------
# registrations: every public factory in repro.scenarios, plus two
# plane presets over existing factories
# ----------------------------------------------------------------------
_TECHS = Param("technologies", tuple, ("bluetooth",),
               "radio mix carried by every node", element=str)


def _fault_params(crash_rate: float = 0.0, crash_downtime_s: float = 45.0,
                  radio_fault_rate: float = 0.0,
                  byzantine_rate: float = 0.0, jammer_count: int = 0,
                  fault_window_s: float = 480.0) -> tuple[Param, ...]:
    """The shared fault-injection schema (:mod:`repro.faults`).

    Appended to every DTN/bandwidth scenario registration with all-zero
    defaults (zero rates install nothing); ``hostile_corridor``
    registers the same knobs with its hostile defaults.
    """
    return (
        Param("crash_rate", float, crash_rate,
              "fraction of non-terminal nodes crash-rebooting once"),
        Param("crash_downtime_s", float, crash_downtime_s,
              "outage / radio-fault duration scale, seconds"),
        Param("radio_fault_rate", float, radio_fault_rate,
              "fraction of nodes going deaf or mute for an interval"),
        Param("byzantine_rate", float, byzantine_rate,
              "fraction of nodes advertising false summary vectors"),
        Param("jammer_count", int, jammer_count,
              "mobile jammers roaming the scenario area"),
        Param("fault_window_s", float, fault_window_s,
              "window over which fault onsets are sampled, seconds"),
    )


def _phy_params(shadowing_sigma_db: float = 0.0,
                phy_collisions: int = 0) -> tuple[Param, ...]:
    """The shared lossy-PHY schema (:mod:`repro.radio.phy`).

    Appended to every DTN/bandwidth scenario registration with all-zero
    defaults (zero knobs install nothing — the no-PHY byte-identity
    contract); ``lossy_festival`` registers the same knobs with its
    lossy defaults.  Because these are schema parameters they flow into
    every run's canonical params, which the campaign cache key hashes
    by value, so runs that differ only in a PHY knob never share a
    cached cell.
    """
    return (
        Param("shadowing_sigma_db", float, shadowing_sigma_db,
              "log-normal shadowing sigma, dB (0 = no fading loss)"),
        Param("phy_collisions", int, phy_collisions,
              "1 = collision/capture under overlapping transmissions"),
    )


#: The shared plane knobs :func:`build_scenario` keeps from factories.
FAULT_KNOBS = tuple(param.name for param in _fault_params())
PHY_KNOBS = tuple(param.name for param in _phy_params())

register_scenario(
    "line_topology", line_topology,
    params=(Param("count", int, 5, "nodes on the line"),),
    summary="maximal-diameter chain: each node reaches only its neighbours")

register_scenario(
    "random_disc", random_disc,
    params=(
        Param("count", int, 10, "nodes in the square"),
        _TECHS,
        Param("mobility_class", str, "dynamic", "advertised mobility class"),
    ),
    summary="uniform random placement in a 40 m square")

register_scenario(
    "fig_3_3_coverage_exclusion", fig_3_3_coverage_exclusion,
    summary="Fig. 3.3: B/C/D cannot see F/G without dynamic discovery")

register_scenario(
    "fig_3_6_dynamic_discovery", fig_3_6_dynamic_discovery,
    summary="Fig. 3.6: the five-device discovery-table example")

register_scenario(
    "fig_3_9_quality_equity", fig_3_9_quality_equity,
    summary="Fig. 3.9: the equal-sum quality diamond")

register_scenario(
    "fig_4_5_bridge_test", fig_4_5_bridge_test,
    summary="Fig. 4.5: client – bridge – server performance layout")

register_scenario(
    "fig_5_8_handover", fig_5_8_handover,
    summary="Fig. 5.8: A/B/C routing-handover triangle")

register_scenario(
    "tunnel_topology", tunnel_topology,
    summary="Fig. 6.1: GPRS gateway + relay chain + far-end phone")

register_scenario(
    "dense_plaza", dense_plaza,
    params=(
        Param("count", int, 50, "pedestrians in the plaza"),
        Param("area", float, 60.0, "side of the plaza, metres"),
        _TECHS,
    ),
    summary="packed random-waypoint pedestrians (high cell occupancy)")

register_scenario(
    "sparse_highway", sparse_highway,
    params=(
        Param("count", int, 50, "vehicles on the road"),
        Param("technologies", tuple, ("wlan",), "radio mix", element=str),
    ),
    summary="fast vehicles strung along kilometres of road")

register_scenario(
    "city_day", city_day,
    params=(
        # Schema default is deliberately small (the registry self-test
        # builds every scenario at its defaults); the factory's own
        # default is the 10 000-node flagship size.
        Param("count", int, 2000, "devices in the city"),
        _TECHS,
    ),
    summary=("city-scale mixed population (pedestrians, vehicles, "
             "kiosks) at constant density"))

register_scenario(
    "commuter_corridor", commuter_corridor,
    params=(
        Param("count", int, 10, "commuters in the corridor"),
        *_fault_params(),
        *_phy_params(),
    ),
    summary=("home/work terminals beyond mutual range; bundles ride "
             "commuters"))

register_scenario(
    "hostile_corridor", commuter_corridor,
    params=(
        Param("count", int, 10, "commuters in the corridor"),
        *_fault_params(crash_rate=0.2, crash_downtime_s=120.0,
                       radio_fault_rate=0.1, byzantine_rate=0.1,
                       jammer_count=1, fault_window_s=360.0),
        *_phy_params(),
    ),
    summary=("the commuter corridor under crash-reboot, deaf/mute, "
             "byzantine and jammer faults"))

register_scenario(
    "island_hopping_ferry", island_hopping_ferry,
    params=(
        Param("count", int, 9, "islanders across all islands"),
        *_fault_params(),
        *_phy_params(),
    ),
    summary="partitioned islands bridged only by a scripted ferry")

register_scenario(
    "crowded_festival", crowded_festival,
    params=(
        Param("count", int, 18, "roaming attendees"),
        *_fault_params(),
        *_phy_params(),
    ),
    summary=("dense broadcast crowd: window bytes, not reachability, "
             "are the constraint"))

register_scenario(
    "lossy_festival", crowded_festival,
    params=(
        Param("count", int, 18, "roaming attendees"),
        *_fault_params(),
        *_phy_params(shadowing_sigma_db=6.0, phy_collisions=1),
    ),
    summary=("the crowded festival under a default lossy PHY profile "
             "(6 dB shadowing + collision/capture)"))

register_scenario(
    "rural_bus_dtn", rural_bus_dtn,
    params=(
        Param("count", int, 9, "villagers across all villages"),
        Param("dwell_s", float, 25.0, "bus dwell per stop, seconds"),
        *_fault_params(),
        *_phy_params(),
    ),
    summary=("partitioned villages served by one bus; each dwell "
             "prices the village uplink in bytes"))

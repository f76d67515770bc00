"""Declarative experiment specs: a named parameter grid plus a workload.

An :class:`ExperimentSpec` is pure data — scenario names, axis values,
repeat count, master seed — describing a full campaign (scenario × node
count × radio mix × … × repeats).  :meth:`ExperimentSpec.expand` turns it
into a flat, deterministically-ordered list of :class:`RunPoint`\\ s, one
per grid cell per repeat.

Seed-derivation invariant
-------------------------
Every run's seed is ``derive_seed(master_seed, label)`` where the label
encodes the spec name, scenario, canonicalised parameters and repeat
index — *not* the run's position in the grid.  Adding an axis value or
reordering axes therefore never changes the seed (hence the results) of
any pre-existing cell, and results are independent of execution order:
the multiprocess runner produces byte-identical output at any worker
count.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import typing

from repro.experiments.registry import get_scenario
from repro.sim.rng import derive_seed


def canonical(value: object) -> object:
    """JSON-safe canonical form of an axis value (tuples become lists)."""
    if isinstance(value, tuple):
        return [canonical(v) for v in value]
    if isinstance(value, list):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    return value


def canonical_json(mapping: typing.Mapping[str, object]) -> str:
    """Deterministic JSON rendering of a parameter mapping."""
    return json.dumps({k: canonical(v) for k, v in mapping.items()},
                      sort_keys=True, separators=(",", ":"))


@dataclasses.dataclass(frozen=True)
class RunPoint:
    """One cell of the expanded grid: a single simulation run."""

    spec: str                       #: owning spec name
    workload: str                   #: registered workload to execute
    index: int                      #: position in the expanded grid
    scenario: str                   #: registered scenario name
    params: dict[str, object]       #: scenario parameters (axis values)
    repeat: int                     #: repeat index within the cell
    seed: int                       #: derived master seed for this run
    settings: dict[str, object]     #: workload settings (shared, fixed)

    def label(self) -> str:
        """The seed-derivation label (position-independent)."""
        return run_label(self.spec, self.scenario, self.params, self.repeat)

    def as_dict(self) -> dict[str, object]:
        """Plain-dict form (picklable, JSON-safe) for worker transport."""
        return {
            "spec": self.spec,
            "workload": self.workload,
            "index": self.index,
            "scenario": self.scenario,
            "params": {k: canonical(v) for k, v in self.params.items()},
            "repeat": self.repeat,
            "seed": self.seed,
            "settings": {k: canonical(v) for k, v in self.settings.items()},
        }

    @staticmethod
    def from_dict(data: typing.Mapping[str, object]) -> "RunPoint":
        return RunPoint(
            spec=data["spec"], workload=data["workload"],
            index=data["index"], scenario=data["scenario"],
            params=dict(data["params"]), repeat=data["repeat"],
            seed=data["seed"], settings=dict(data["settings"]))


def _reject_duplicates(spec_name: str, what: str,
                       values: typing.Iterable[object]) -> None:
    """Refuse a repeated grid value: its cells would share one seed and
    one cache key, so ``aggregate`` would count a single sample twice.
    Values compare in the :func:`canonical` form the cache key hashes."""
    seen = set()
    for value in values:
        form = json.dumps(canonical(value), sort_keys=True)
        if form in seen:
            raise ValueError(
                f"spec {spec_name!r}: duplicate {what} {value!r}")
        seen.add(form)


def run_label(spec_name: str, scenario: str,
              params: typing.Mapping[str, object], repeat: int) -> str:
    """The stable per-run seed label (see module docstring)."""
    return (f"{spec_name}/{scenario}/"
            f"{canonical_json(params)}/rep{repeat}")


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """A declarative parameter grid over registered scenarios.

    Parameters
    ----------
    name:
        Campaign name; namespaces output files and seed labels.
    workload:
        Registered workload (see :mod:`repro.experiments.workloads`)
        executed once per run.
    scenarios:
        Scenario-name axis (the grid's first axis).
    axes:
        Further axes, ``param name → values``.  Each named parameter
        must exist in the schema of *every* listed scenario, since the
        grid is a full cross product.
    repeats:
        Independent repeats per grid cell (distinct derived seeds).
    master_seed:
        Root of all per-run seed derivation.
    settings:
        Fixed workload settings shared by every run (e.g. settle time).
    version:
        Campaign-cache epoch.  Every cached cell's key includes it, so
        bumping the version retires all previously memoized results of
        this spec at once — the escape hatch for semantic changes the
        key cannot see (a scenario factory edit, a unit change).
        Growing axes or repeats is *not* such a change: leave the
        version alone and old cells stay valid.
    """

    name: str
    workload: str
    scenarios: tuple[str, ...]
    axes: dict[str, tuple] = dataclasses.field(default_factory=dict)
    repeats: int = 1
    master_seed: int = 0
    settings: dict[str, object] = dataclasses.field(default_factory=dict)
    description: str = ""
    version: int = 1

    def __post_init__(self):
        if not self.name:
            raise ValueError("spec needs a non-empty name")
        if self.version < 1:
            raise ValueError(
                f"spec {self.name!r}: version must be >= 1, "
                f"got {self.version}")
        if not self.scenarios:
            raise ValueError(f"spec {self.name!r} lists no scenarios")
        if self.repeats < 1:
            raise ValueError(
                f"spec {self.name!r}: repeats must be >= 1, "
                f"got {self.repeats}")
        _reject_duplicates(self.name, "scenario", self.scenarios)
        for axis, values in self.axes.items():
            if not values:
                raise ValueError(
                    f"spec {self.name!r}: axis {axis!r} has no values")
            _reject_duplicates(self.name, f"axis {axis!r} value", values)
        # Validate the whole grid up front: every scenario exists and
        # accepts every axis parameter with a well-typed value.
        for scenario_name in self.scenarios:
            entry = get_scenario(scenario_name)
            for axis, values in self.axes.items():
                param = entry.param(axis)   # KeyError on unknown axis
                for value in values:
                    param.check(value)

    # ------------------------------------------------------------------
    def size(self) -> int:
        """Total number of runs in the expanded grid."""
        cells = len(self.scenarios)
        for values in self.axes.values():
            cells *= len(values)
        return cells * self.repeats

    def expand(self) -> list[RunPoint]:
        """The full grid in deterministic order.

        Cells iterate scenario-major, then each axis in sorted axis-name
        order (values in their declared order), then repeats — but a
        run's *seed* depends only on its label, never this ordering.
        """
        axis_names = sorted(self.axes)
        value_lists = [self.axes[a] for a in axis_names]
        points = []
        index = 0
        for scenario_name in self.scenarios:
            for combo in itertools.product(*value_lists):
                params = dict(zip(axis_names, combo))
                for repeat in range(self.repeats):
                    label = run_label(self.name, scenario_name, params,
                                      repeat)
                    points.append(RunPoint(
                        spec=self.name, workload=self.workload,
                        index=index, scenario=scenario_name,
                        params=dict(params), repeat=repeat,
                        seed=derive_seed(self.master_seed, label),
                        settings=dict(self.settings)))
                    index += 1
        return points

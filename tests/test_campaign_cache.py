"""Property tests for the campaign cache-key contract.

The key (:func:`repro.experiments.cache.cache_key`) must be a pure
function of a cell's *identity* and the package's code: stable under
param-dict insertion order, across processes and across repeated runs
of the same spec — and injective over distinct ``(seed, params,
scenario)`` (and every other component), because a collision would
silently serve one cell's result as another's.
"""

import json
import os
import pathlib
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentSpec
from repro.experiments import cache as cache_mod
from repro.experiments.cache import (
    CampaignCache,
    cache_key,
    package_fingerprint,
)
from repro.experiments.spec import RunPoint, canonical

_SCALARS = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.text(max_size=8),
)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3).map(tuple))
_PARAMS = st.dictionaries(st.text(min_size=1, max_size=8), _VALUES,
                          max_size=5)


def _point(**overrides) -> RunPoint:
    base = dict(
        spec="spec", workload="awareness_schemes", index=0,
        scenario="scenario",
        params={"count": 4, "technologies": ("bluetooth", "wlan")},
        repeat=0, seed=42, settings={"settle_s": 40.0})
    base.update(overrides)
    return RunPoint(**base)


def _identity_canon(triple) -> str:
    """Canonical serialisation of (seed, params, scenario) — exactly
    the equivalence the key is allowed (and required) to respect."""
    seed, params, scenario = triple
    return json.dumps(
        [seed, {k: canonical(v) for k, v in params.items()}, scenario],
        sort_keys=True)


# ----------------------------------------------------------------------
# stability
# ----------------------------------------------------------------------
@settings(max_examples=60)
@given(params=_PARAMS, data=st.data())
def test_key_independent_of_param_insertion_order(params, data):
    order = data.draw(st.permutations(sorted(params)))
    shuffled = {name: params[name] for name in order}
    assert (cache_key(_point(params=params))
            == cache_key(_point(params=shuffled)))


@settings(max_examples=60)
@given(params=_PARAMS, settings_map=_PARAMS, seed=st.integers(0, 2**63))
def test_key_stable_under_repeated_computation(params, settings_map,
                                               seed):
    point = _point(params=params, settings=settings_map, seed=seed)
    first = cache_key(point)
    assert cache_key(point) == first
    assert len(first) == 64 and int(first, 16) >= 0


def test_key_stable_across_processes():
    """A fresh interpreter derives the same key for the same cell."""
    point = _point()
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    program = ("import json, sys\n"
               "from repro.experiments.cache import cache_key\n"
               "from repro.experiments.spec import RunPoint\n"
               "print(cache_key(RunPoint.from_dict(json.load(sys.stdin))))\n")
    proc = subprocess.run(
        [sys.executable, "-c", program], input=json.dumps(point.as_dict()),
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # JSON shipping turned the tuples into lists; canonicalisation must
    # erase exactly that difference.
    assert proc.stdout.strip() == cache_key(point)


def test_keys_of_a_spec_stable_across_expansions_and_axis_order():
    """Same cells, same keys — however the axes dict was declared."""
    axes_ab = {"count": (3, 4), "technologies": (("bluetooth",),)}
    axes_ba = {"technologies": (("bluetooth",),), "count": (3, 4)}
    by_label = {}
    for axes in (axes_ab, axes_ba, axes_ab):
        spec = ExperimentSpec(
            name="keyspec", workload="awareness_schemes",
            scenarios=("random_disc",), axes=axes, repeats=2,
            master_seed=9, settings={"settle_s": 40.0})
        keys = {p.label(): cache_key(p) for p in spec.expand()}
        by_label.setdefault("expected", keys)
        assert keys == by_label["expected"]


# ----------------------------------------------------------------------
# injectivity
# ----------------------------------------------------------------------
@settings(max_examples=60)
@given(st.lists(
    st.tuples(st.integers(0, 2**63), _PARAMS,
              st.text(min_size=1, max_size=8)),
    min_size=2, max_size=6, unique_by=_identity_canon))
def test_distinct_seed_params_scenario_never_collide(identities):
    keys = [cache_key(_point(seed=seed, params=params, scenario=scenario))
            for seed, params, scenario in identities]
    assert len(set(keys)) == len(keys)


def test_every_key_component_separates(monkeypatch):
    base = cache_key(_point())
    for field, changed in [
            ("spec", "other"), ("scenario", "other"),
            ("repeat", 1), ("seed", 43), ("workload", "other"),
            ("params", {"count": 5}),
            ("settings", {"settle_s": 41.0})]:
        assert cache_key(_point(**{field: changed})) != base, \
            f"{field} did not enter the key"
    assert cache_key(_point(), telemetry=True) != base
    # the grid index is positional, never identity
    assert cache_key(_point(index=7)) == base
    monkeypatch.setattr(cache_mod, "package_fingerprint",
                        lambda: "0" * 64)
    assert cache_key(_point()) != base, "the code did not enter the key"


def test_expanded_spec_cells_have_distinct_keys():
    spec = ExperimentSpec(
        name="inj", workload="awareness_schemes",
        scenarios=("line_topology", "random_disc"),
        axes={"count": (3, 4)}, repeats=2, master_seed=5,
        settings={"settle_s": 40.0})
    keys = [cache_key(p) for p in spec.expand()]
    assert len(set(keys)) == len(keys) == spec.size()


# ----------------------------------------------------------------------
# the package fingerprint
# ----------------------------------------------------------------------
def test_package_fingerprint_is_computed_once_and_hex():
    first = package_fingerprint()
    assert package_fingerprint() is first
    assert len(first) == 64 and int(first, 16) >= 0


# ----------------------------------------------------------------------
# the store itself
# ----------------------------------------------------------------------
def test_cache_roundtrip_and_counters(tmp_path):
    """``get`` answers ``None`` before a ``put`` and the stored entry
    after it (the caller counts hits from these answers)."""
    cache = CampaignCache(tmp_path / "cache")
    key = cache_key(_point())
    assert cache.get(key) is None
    entry = {"record": {"run": 3, "metrics": {"x": 1.5}},
             "telemetry": [{"run": 3, "type": "sample"}]}
    cache.put(key, entry)
    assert key in cache
    assert cache.get(key) == entry
    assert cache.get(cache_key(_point(seed=43))) is None


def test_cache_corrupt_entry_reads_as_miss(tmp_path):
    cache = CampaignCache(tmp_path)
    key = cache_key(_point())
    cache.put(key, {"record": {"run": 0}})
    path = cache._path(key)
    path.write_text("{torn", encoding="utf-8")
    assert cache.get(key) is None
    path.write_text(json.dumps({"no_record": True}), encoding="utf-8")
    assert cache.get(key) is None

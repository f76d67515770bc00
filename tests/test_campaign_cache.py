"""Property tests for the campaign cache-key contract.

The key (:func:`repro.experiments.cache.cache_key`) must be a pure
function of a cell's *identity*: stable under param-dict insertion
order, across processes and across repeated runs of the same spec —
and injective over distinct ``(seed, params, scenario)`` (and every
other component), because a collision would silently serve one cell's
result as another's.
"""

import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentSpec, workloads
from repro.experiments.cache import CampaignCache, cache_key, point_key
from repro.experiments.spec import canonical
from repro.experiments.workloads import (
    DTN_PRESETS,
    paired_dtn,
    workload_fingerprint,
)

_SCALARS = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.text(max_size=8),
)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3).map(tuple))
_PARAMS = st.dictionaries(st.text(min_size=1, max_size=8), _VALUES,
                          max_size=5)


def _key_kwargs(**overrides):
    base = dict(
        spec="spec", version=1, scenario="scenario",
        params={"count": 4, "technologies": ("bluetooth", "wlan")},
        repeat=0, seed=42, workload="discovery", fingerprint="f" * 64,
        settings={"settle_s": 40.0})
    base.update(overrides)
    return base


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
    assert (cache_key(**_key_kwargs(params=params))
            == cache_key(**_key_kwargs(params=shuffled)))


@settings(max_examples=60)
@given(params=_PARAMS, settings_map=_PARAMS, seed=st.integers(0, 2**63))
def test_key_stable_under_repeated_computation(params, settings_map,
                                               seed):
    kwargs = _key_kwargs(params=params, settings=settings_map, seed=seed)
    first = cache_key(**kwargs)
    assert cache_key(**kwargs) == first
    assert len(first) == 64 and int(first, 16) >= 0


def test_key_stable_across_processes():
    """A fresh interpreter derives the same key for the same cell."""
    kwargs = _key_kwargs()
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    program = ("import json, sys\n"
               "from repro.experiments.cache import cache_key\n"
               "print(cache_key(**json.load(sys.stdin)))\n")
    proc = subprocess.run(
        [sys.executable, "-c", program], input=json.dumps(kwargs),
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # JSON shipping turned the tuples into lists; canonicalisation must
    # erase exactly that difference.
    assert proc.stdout.strip() == cache_key(**kwargs)


def test_keys_of_a_spec_stable_across_expansions_and_axis_order():
    """Same cells, same keys — however the axes dict was declared."""
    fingerprint = workload_fingerprint("discovery")
    axes_ab = {"count": (3, 4), "technologies": (("bluetooth",),)}
    axes_ba = {"technologies": (("bluetooth",),), "count": (3, 4)}
    by_label = {}
    for axes in (axes_ab, axes_ba, axes_ab):
        spec = ExperimentSpec(
            name="keyspec", workload="discovery",
            scenarios=("random_disc",), axes=axes, repeats=2,
            master_seed=9, settings={"settle_s": 40.0})
        keys = {p.label(): point_key(p, fingerprint) for p in spec.expand()}
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
    keys = [cache_key(**_key_kwargs(seed=seed, params=params,
                                    scenario=scenario))
            for seed, params, scenario in identities]
    assert len(set(keys)) == len(keys)


def test_every_key_component_separates():
    base = _key_kwargs()
    for field, changed in [
            ("spec", "other"), ("version", 2), ("scenario", "other"),
            ("repeat", 1), ("seed", 43), ("workload", "other"),
            ("fingerprint", "0" * 64),
            ("settings", {"settle_s": 41.0}),
            ("extras", {"telemetry": True})]:
        assert cache_key(**_key_kwargs(**{field: changed})) \
            != cache_key(**base), f"{field} did not enter the key"
    # absent extras and empty extras are the same (default) identity
    assert cache_key(**_key_kwargs(extras={})) == cache_key(**base)


def test_expanded_spec_cells_have_distinct_keys():
    spec = ExperimentSpec(
        name="inj", workload="discovery",
        scenarios=("line_topology", "random_disc"),
        axes={"count": (3, 4)}, repeats=2, master_seed=5,
        settings={"settle_s": 40.0})
    fingerprint = workload_fingerprint(spec.workload)
    keys = [point_key(p, fingerprint) for p in spec.expand()]
    assert len(set(keys)) == len(keys) == spec.size()


# ----------------------------------------------------------------------
# workload fingerprints
# ----------------------------------------------------------------------
def test_workload_fingerprint_stable_and_distinct():
    assert workload_fingerprint("discovery") \
        == workload_fingerprint("discovery")
    assert workload_fingerprint("discovery") \
        != workload_fingerprint("line_delay")
    assert len(workload_fingerprint("discovery")) == 64


def test_dtn_aliases_have_distinct_fingerprints():
    prints = {workload_fingerprint(name) for name in DTN_PRESETS}
    assert len(prints) == len(DTN_PRESETS) == 4


def test_editing_a_preset_retires_only_its_alias(monkeypatch):
    before = {name: workload_fingerprint(name) for name in DTN_PRESETS}
    preset = DTN_PRESETS["dtn_phy"]
    edited = dataclasses.replace(
        preset, defaults={**preset.defaults, "messages": 25})
    monkeypatch.setitem(workloads._WORKLOADS, "dtn_phy",
                        functools.partial(paired_dtn, preset=edited))
    after = {name: workload_fingerprint(name) for name in DTN_PRESETS}
    assert after.pop("dtn_phy") != before.pop("dtn_phy")
    assert after == before


def test_partial_workload_fingerprint_is_not_a_constant(monkeypatch):
    """Source-less callables used to share one bytecode fallback."""
    constant = hashlib.sha256(repr((b"", ())).encode("utf-8")).hexdigest()
    monkeypatch.setitem(workloads._WORKLOADS, "probe_a",
                        functools.partial(workloads.discovery))
    monkeypatch.setitem(workloads._WORKLOADS, "probe_b",
                        functools.partial(workloads.line_delay))
    prints = {workload_fingerprint("probe_a"),
              workload_fingerprint("probe_b")}
    assert len(prints) == 2 and constant not in prints


# ----------------------------------------------------------------------
# the store itself
# ----------------------------------------------------------------------
def test_cache_roundtrip_and_counters(tmp_path):
    cache = CampaignCache(tmp_path / "cache")
    key = cache_key(**_key_kwargs())
    assert cache.get(key) is None and cache.misses == 1
    entry = {"record": {"run": 3, "metrics": {"x": 1.5}},
             "telemetry": [{"run": 3, "type": "sample"}]}
    cache.put(key, entry)
    assert key in cache
    assert cache.get(key) == entry
    assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)


def test_cache_corrupt_entry_reads_as_miss(tmp_path):
    cache = CampaignCache(tmp_path)
    key = cache_key(**_key_kwargs())
    cache.put(key, {"record": {"run": 0}})
    path = cache._path(key)
    path.write_text("{torn", encoding="utf-8")
    assert cache.get(key) is None
    path.write_text(json.dumps({"no_record": True}), encoding="utf-8")
    assert cache.get(key) is None

"""Scenario construction: the paper's topologies as reusable builders.

:class:`~repro.scenarios.builder.Scenario` bundles a simulator, a radio
world and a fabric, with convenience methods to add PeerHood nodes.
:mod:`~repro.scenarios.topologies` provides the exact layouts of the
thesis' figures (3.3, 3.6, 3.9, 4.5, 5.8, 6.1) plus generic lines, grids
and random discs for sweeps.  :mod:`~repro.scenarios.large_scale` adds
the production-scale family (dense plaza, sparse highway, flash-crowd
churn, city-day) that stresses the spatial-grid discovery path from
hundreds of nodes up.  :mod:`~repro.scenarios.dtn` is the
store-carry-forward family
(commuter corridor, island-hopping ferry, flash-crowd broadcast) where
some endpoint pairs are never simultaneously connected and delivery
must ride a moving custodian.  :mod:`~repro.scenarios.bandwidth` is
the rate-constrained family (drive-by kiosk, crowded festival, rural
bus) where contact *duration* prices the byte budget the
bandwidth-limited data plane schedules against.  These factories build
geometry only; the experiment registry composes the optional fault and
PHY planes onto them (its ``hostile_corridor`` and ``lossy_festival``
entries are such compositions).  :mod:`~repro.scenarios.traces` records
the connectivity-event stream as a JSONL contact trace and replays it
as a mobility-free workload (:func:`replay_arena` is its registered
arena scenario).
"""

from repro.scenarios.bandwidth import (
    crowded_festival,
    drive_by_kiosk,
    rural_bus_dtn,
)
from repro.scenarios.builder import Scenario
from repro.scenarios.dtn import (
    commuter_corridor,
    flash_crowd_broadcast,
    island_hopping_ferry,
)
from repro.scenarios.large_scale import (
    city_day,
    dense_plaza,
    flash_crowd,
    sparse_highway,
)
from repro.scenarios.traces import (
    ContactTraceRecorder,
    load_trace,
    record_contact_trace,
    replay_arena,
    replay_trace,
    trace_digest,
    write_trace,
)
from repro.scenarios.topologies import (
    fig_3_3_coverage_exclusion,
    fig_3_6_dynamic_discovery,
    fig_3_9_quality_equity,
    fig_4_5_bridge_test,
    fig_5_8_handover,
    line_topology,
    random_disc,
    tunnel_topology,
)

# ``__all__`` lists exactly the scenario factories (plus Scenario): the
# experiments registry test asserts they are exactly the factories of the
# registered entries.  The
# trace record/replay helpers above are importable but are not factories.
__all__ = [
    "Scenario",
    "city_day",
    "commuter_corridor",
    "crowded_festival",
    "dense_plaza",
    "drive_by_kiosk",
    "fig_3_3_coverage_exclusion",
    "fig_3_6_dynamic_discovery",
    "fig_3_9_quality_equity",
    "fig_4_5_bridge_test",
    "fig_5_8_handover",
    "flash_crowd",
    "flash_crowd_broadcast",
    "island_hopping_ferry",
    "line_topology",
    "random_disc",
    "replay_arena",
    "rural_bus_dtn",
    "sparse_highway",
    "tunnel_topology",
]

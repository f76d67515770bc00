"""Recorded-output identity of the bundled DTN, contact-trace and
PeerHood discovery sweeps.

Each spec runs as a fresh campaign (a new out dir, one worker) and the
SHA-256 of its ``runs.jsonl`` must equal the pinned digest, so a
refactor of the scenario factories, the plane installers, the paired
DTN workload, the contact stream or the discovery path (DeviceStorage
snapshots and the neighbourhood fold) cannot move a recorded byte
unnoticed.  A deliberate
change to these sweeps' output updates the digest in the same commit.
The ``fault_sweep`` digest is also that of the committed
``results/fault_sweep/runs.jsonl``, which ``make report`` reads; a
``--telemetry`` run of it must also reproduce the committed
``telemetry.jsonl`` and ``timeline.csv`` byte for byte, so a change to
the recorder or the subsystem profiler cannot move them unnoticed.
"""

import hashlib
import json
import pathlib

import pytest

from repro.experiments.cli import main as cli_main

FAULT_SWEEP_RESULTS = (pathlib.Path(__file__).resolve().parents[1]
                       / "results" / "fault_sweep")

DIGESTS = {
    "dtn_sweep":
        "c468a9a03ec7657585b9ca6d4b619d9b5fba6f741f339158aef235f9dc1a3b7d",
    "bandwidth_sweep":
        "d795b4193cd9905926a41c1e76ee0abfb3e0d06b905840ea062a527e9d4868a4",
    "fault_sweep":
        "dc89953ad00d2241b06d4d38976581f4380b495a5ab3354d385f78b9dd844435",
    "phy_sweep":
        "e012cbd0fe44a60f50dda79149cb74a6c35461d5005443b7137557128654a932",
    "contact_sweep":
        "4381e8ffc4a63be2b41c0917f096c5b02f4ef57f2e39adcc4af5a6c6f91e8e00",
    "coverage_sweep":
        "b9dca978e396213bc1193b1a4f47266dd34d466dcc4265dfb84ad85ad7dc734c",
    "delay_sweep":
        "def27842aa08c9c69a5ffe50e68f22ab011bd0def03bafed9bab460228b9a1c5",
    "handover_decay":
        "d65813eaf39040ac3166a8b7d023d7d1fc7e2045ade74bc9037407117f731e35",
    "demo_sweep":
        "d35d5af84042eca1832bac84bfe1ee76986c94ceab1d33e4f070c14ed7e3d367",
}


@pytest.mark.parametrize("spec", [
    "dtn_sweep", "bandwidth_sweep", "fault_sweep",
    pytest.param("phy_sweep", marks=pytest.mark.slow),   # ~7 s
    "contact_sweep", "coverage_sweep", "delay_sweep", "handover_decay",
    pytest.param("demo_sweep", marks=pytest.mark.slow),  # ~6 s
])
def test_runs_jsonl_matches_pinned_digest(spec, tmp_path, capsys):
    out = tmp_path / spec
    assert cli_main(["run", spec, "--out", str(out)]) == 0
    stats = json.loads((out / "campaign.json").read_text())
    assert stats["executed"] == stats["total"]     # nothing from cache
    digest = hashlib.sha256((out / "runs.jsonl").read_bytes()).hexdigest()
    assert digest == DIGESTS[spec]


def test_fault_sweep_telemetry_matches_committed_results(tmp_path, capsys):
    out = tmp_path / "fault_sweep"
    assert cli_main(["run", "fault_sweep", "--telemetry",
                     "--out", str(out)]) == 0
    for name in ("runs.jsonl", "summary.csv", "telemetry.jsonl",
                 "timeline.csv"):
        fresh = (out / name).read_bytes()
        assert fresh == (FAULT_SWEEP_RESULTS / name).read_bytes(), name

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
All four benchmark workloads (``perf/workloads.py``) are pinned the
same way, by the digest ``perf/run.py`` takes of one seed's outputs.
"""

import hashlib
import json
import pathlib

import pytest

from repro.experiments.cli import main as cli_main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
FAULT_SWEEP_RESULTS = REPO_ROOT / "results" / "fault_sweep"

DIGESTS = {
    "dtn_sweep":
        "c468a9a03ec7657585b9ca6d4b619d9b5fba6f741f339158aef235f9dc1a3b7d",
    "bandwidth_sweep":
        "d795b4193cd9905926a41c1e76ee0abfb3e0d06b905840ea062a527e9d4868a4",
    "fault_sweep":
        "626b3b5a816fcb0cb75a532e7f0f7118e8b9ed3a8316ac6ce4a4d136d0102874",
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
        "458319ef1e17c98c3f3cbdfc321f8de016de5421a211d9cc5d3e64c43edc5ed2",
}


@pytest.mark.parametrize("spec", [
    "dtn_sweep", "bandwidth_sweep", "fault_sweep",
    pytest.param("phy_sweep", marks=pytest.mark.slow),   # ~7 s
    "contact_sweep", "coverage_sweep", "delay_sweep", "handover_decay",
    pytest.param("demo_sweep", marks=pytest.mark.slow),  # ~14 s
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


#: ``perf.run.digest`` of ``perf.workloads.WORKLOADS[name].run(1).outputs``.
WORKLOAD_DIGESTS = {
    "ferry_epidemic":
        "c554bf54d1ebba547083867c59d983473ba62ddbfa2119d408d995fd3d4bfff5",
    "festival_lossy":
        "df15a7b3c69ee6b3200a85624050e6e3bf84130292845f46dee5fa919bf406ea",
    "plaza_discovery":
        "2f5df22dadbda2ccba0b407e3347e88903ba77fad61c86639e4c0bb5fd776942",
    "campaign_sweeps":
        "8b7dc17b7b8185c605c27cb9ddac22c3d1d829268aa49adb09fdd0a605e61752",
}


@pytest.mark.parametrize("name", [
    "ferry_epidemic",                                          # ~0.6 s
    "plaza_discovery",                                         # ~1.0 s
    "campaign_sweeps",                                         # ~1.8 s
    pytest.param("festival_lossy", marks=pytest.mark.slow),    # ~5 s
])
def test_workload_outputs_match_pinned_digest(name, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    from perf.run import digest
    from perf.workloads import WORKLOADS
    assert digest(WORKLOADS[name].run(1).outputs) == WORKLOAD_DIGESTS[name]

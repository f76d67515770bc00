"""Recorded-output identity of the bundled DTN and contact-trace sweeps.

Each spec runs as a fresh campaign (``--no-cache``, one worker) and the
SHA-256 of its ``runs.jsonl`` must equal the pinned digest, so a
refactor of the scenario factories, the plane installers, the paired
DTN workload or the contact stream cannot move a recorded byte
unnoticed.  A deliberate
change to these sweeps' output updates the digest in the same commit.
The ``fault_sweep`` digest is also that of the committed
``results/fault_sweep/runs.jsonl``, which ``make report`` reads.
"""

import hashlib

import pytest

from repro.experiments.cli import main as cli_main

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
}


@pytest.mark.parametrize("spec", [
    "dtn_sweep", "bandwidth_sweep", "fault_sweep",
    pytest.param("phy_sweep", marks=pytest.mark.slow),   # ~7 s
    "contact_sweep",
])
def test_runs_jsonl_matches_pinned_digest(spec, tmp_path, capsys):
    out = tmp_path / spec
    assert cli_main(["run", spec, "--no-cache", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "runs.jsonl").read_bytes()).hexdigest()
    assert digest == DIGESTS[spec]

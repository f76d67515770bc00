"""Smoke test of ``tools/reach_audit.py`` on one small target."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_reach_audit_reports_what_the_quickstart_reaches():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach_audit.py"),
         str(ROOT / "examples" / "quickstart.py")],
        capture_output=True, text=True, timeout=120, check=True).stdout
    reached, unreached = out.split("== nothing")
    assert reached.startswith("== given:")
    assert "  sim/kernel.py:Simulator.run " in reached
    # The quickstart builds no DTN plane.
    assert "  dtn/forwarder.py:DtnOverlay.__init__ " in unreached

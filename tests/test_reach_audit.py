"""Tests of ``tools/reach_audit.py``: one small target, failing targets
and the ``KEEP`` table."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
AUDIT = ROOT / "tools" / "reach_audit.py"


def test_reach_audit_reports_what_the_quickstart_reaches():
    out = subprocess.run(
        [sys.executable, str(AUDIT), str(ROOT / "examples" / "quickstart.py")],
        capture_output=True, text=True, timeout=120, check=True).stdout
    reached, unreached = out.split("== nothing")
    assert reached.startswith("== given:")
    assert "  sim/kernel.py:Simulator.run " in reached
    # The quickstart builds no DTN plane.
    assert "  dtn/forwarder.py:DtnOverlay.__init__ " in unreached


@pytest.mark.parametrize("code", ["raise SystemExit(3)",
                                  "raise ValueError('boom')"])
def test_a_failing_target_fails_the_audit_by_name(code):
    """A failed run reaches too little to class anything: exit 2."""
    done = subprocess.run([sys.executable, str(AUDIT), "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert code in done.stderr
    assert "==" not in done.stdout


def test_every_keep_entry_names_a_def_and_gives_a_reason():
    """A keeper deleted from ``src/`` must leave ``KEEP`` too."""
    spec = importlib.util.spec_from_file_location("reach_audit", AUDIT)
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    names = [name for name, _, _ in audit.functions().values()]
    for prefix, reason in audit.KEEP.items():
        assert reason.strip(), prefix
        assert any(name.startswith(prefix) for name in names), prefix

"""The run cache keys on the code: a differential test through copies.

Every case runs a bundled spec in a fresh interpreter against one
shared cache, importing the package from a copy of ``src/repro`` that
the case may edit first.  The module fixture fills the cache from the
checked-out package, then:

* an unedited copy (same code at another path) is served all hits;
* a copy whose scenario factory moved the nodes executes every cell,
  and its records differ from the cached ones — replaying those would
  have reported a result the current code does not produce;
* a copy whose ``experiments/specs.py`` grew ``delay_sweep`` by one
  ``count`` value serves the old cells as hits and executes only the
  new ones.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SPEC = "delay_sweep"

_PROGRAM = """\
import json, pathlib, sys
import repro.experiments as experiments
from repro.experiments import get_spec, run_campaign
code_root, out, cache = sys.argv[1:4]
here = pathlib.Path(experiments.__file__).resolve()
assert here.is_relative_to(pathlib.Path(code_root).resolve()), here
result = run_campaign(get_spec(%r), out, cache_dir=cache)
print(json.dumps(result.stats.as_dict()))
""" % SPEC


def _run(code_root: pathlib.Path, out: pathlib.Path,
         cache: pathlib.Path) -> dict:
    """Run the spec with ``code_root`` as the only package source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(code_root)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _PROGRAM, str(code_root), str(out),
         str(cache)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _copy(tmp_path: pathlib.Path) -> pathlib.Path:
    root = tmp_path / "code"
    shutil.copytree(SRC / "repro", root / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _edit(path: pathlib.Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1, f"{old!r} not found once in {path}"
    path.write_text(text.replace(old, new), encoding="utf-8")


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A cache filled by the checked-out package, and that run's output."""
    base = tmp_path_factory.mktemp("filled")
    stats = _run(SRC, base / "out", base / "cache")
    assert stats["executed"] == stats["total"] > 0, stats
    return base


def test_unedited_copy_is_served_all_hits(filled, tmp_path):
    stats = _run(_copy(tmp_path), tmp_path / "out", filled / "cache")
    assert stats["executed"] == 0
    assert stats["cache_hits"] == stats["total"] > 0
    assert (tmp_path / "out" / "runs.jsonl").read_bytes() \
        == (filled / "out" / "runs.jsonl").read_bytes()


def test_edited_scenario_factory_executes_every_cell(filled, tmp_path):
    code = _copy(tmp_path)
    _edit(code / "repro" / "scenarios" / "topologies.py",
          "position=(index * LINE_SPACING_M, 0.0)",
          "position=(index * LINE_SPACING_M * 2, 0.0)")
    stats = _run(code, tmp_path / "out", filled / "cache")
    assert stats["cache_hits"] == 0
    assert stats["executed"] == stats["total"] > 0
    assert (tmp_path / "out" / "runs.jsonl").read_bytes() \
        != (filled / "out" / "runs.jsonl").read_bytes()


def test_grown_bundled_spec_executes_only_new_cells(filled, tmp_path):
    code = _copy(tmp_path)
    _edit(code / "repro" / "experiments" / "specs.py",
          f'name="{SPEC}",\n    workload="line_delay",\n'
          f'    scenarios=("line_topology",),\n'
          f'    axes={{"count": (2, 3, 4)}},',
          f'name="{SPEC}",\n    workload="line_delay",\n'
          f'    scenarios=("line_topology",),\n'
          f'    axes={{"count": (2, 3, 4, 5)}},')
    stats = _run(code, tmp_path / "out", filled / "cache")
    cached = json.loads((filled / "out" / "campaign.json").read_text())
    assert stats["cache_hits"] == cached["total"]
    assert stats["executed"] == stats["total"] - cached["total"] > 0

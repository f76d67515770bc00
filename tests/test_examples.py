"""Smoke tests: every script under examples/ runs end to end.

The examples import only the public package surface, so running them
catches a public name that was removed or renamed without updating the
walkthroughs built on it.
"""

import pathlib
import runpy

import pytest

_EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", _EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out  # each example prints its account

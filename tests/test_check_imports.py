"""Tests for tools/check_imports.py (the unused-import step of
`make lint`)."""

import importlib.util
import pathlib

_TOOL = (pathlib.Path(__file__).resolve().parent.parent
         / "tools" / "check_imports.py")
_spec = importlib.util.spec_from_file_location("check_imports", _TOOL)
check_imports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_imports)


def unused(source):
    return [name for name, _ in check_imports.unused_imports(source)]


def test_flags_only_names_never_read():
    source = ("import json\nimport os.path\nfrom typing import Any, List\n"
              "print(os.path.sep, List)\n")
    assert unused(source) == ["json", "Any"]


def test_aliases_bind_their_alias():
    assert unused("import numpy as np\nimport json as j\nnp.zeros(1)\n") \
        == ["j"]


def test_string_annotations_and_dunder_all_count_as_reads():
    source = ("from __future__ import annotations\n"
              "import typing\n"
              "if typing.TYPE_CHECKING:\n"
              "    from a import Hidden\n"
              "    from b import Nested\n"
              "from c import Exported\n"
              "def f(x: 'Hidden | None') -> 'list[\"Nested\"]':\n"
              "    pass\n"
              "__all__ = ['Exported']\n")
    assert unused(source) == []


def test_a_name_only_assigned_is_not_read():
    assert unused("from x import y\ny = 1\n") == ["y"]


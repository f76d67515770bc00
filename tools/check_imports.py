#!/usr/bin/env python
"""Unused-import check (part of `make lint`).

Parses every Python file under the trees below and reports each name an
``import`` binds that the module never reads.  A name counts as read
when it appears as a name anywhere in the module, inside a string
annotation (``x: "StoredDevice | None"``, so ``TYPE_CHECKING`` imports
count), or in a literal ``__all__``.  A package's ``__init__.py`` is
skipped: what it imports is the package's namespace (``repro.scenarios``
re-exports the trace helpers beside its ``__all__`` of factories).
``from __future__`` imports and star imports are skipped.

Exit status 0 when nothing is unused; 1 with one
``path:line: 'name' imported but unused`` line per unused import
otherwise.  Stdlib only (the container bakes in no linter).
"""

from __future__ import annotations

import ast
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Trees checked, relative to the repo root.
TREES = ("src", "tests", "benchmarks", "examples", "tools", "perf")


def imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """``(bound name, line)`` for every import in ``tree``."""
    bound: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound.append((name, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    bound.append((alias.asname or alias.name, node.lineno))
    return bound


def _annotations(tree: ast.Module) -> list[ast.expr]:
    found: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    found.append(arg.annotation)
            if node.returns is not None:
                found.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return found


def _names_in(expression: ast.AST) -> set[str]:
    """Names read in ``expression``, parsing string constants as
    annotations."""
    names: set[str] = set()
    for node in ast.walk(expression):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= _names_in(parsed)
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name ``tree`` reads, as :func:`unused_imports` counts it."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    for annotation in _annotations(tree):
        used |= _names_in(annotation)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)
                     and isinstance(e.value, str)}
    return used


def unused_imports(source: str, filename: str = "<source>",
                   ) -> list[tuple[str, int]]:
    """``(name, line)`` for every import ``source`` never reads."""
    tree = ast.parse(source, filename=filename)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree)
            if name not in used]


def main(root: pathlib.Path = REPO_ROOT) -> int:
    problems: list[str] = []
    for tree in TREES:
        for path in sorted((root / tree).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for name, line in unused_imports(
                    path.read_text(encoding="utf-8"), str(path)):
                problems.append(f"{path.relative_to(root)}:{line}: "
                                f"{name!r} imported but unused")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

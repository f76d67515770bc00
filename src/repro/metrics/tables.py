"""Aligned-table and CSV rendering shared by benchmarks and reports.

One implementation serves both consumers: the paper-figure tests and
benchmarks (:func:`print_table`) and ``python -m repro.experiments
report``.

Alignment: a column whose cells are all numbers (``int``/``float``,
``None`` allowed) is right-aligned, as numeric tables should be; text
columns stay left-aligned.  ``None`` cells render as ``—`` in tables
(a missing measurement is not the string ``"None"``) and as the empty
field in CSV.
"""

from __future__ import annotations

import csv
import io
import typing

Rows = typing.Sequence[typing.Sequence[object]]

#: Table rendering of a missing (``None``) measurement.
MISSING_CELL = "—"


def _is_numeric(cell: object) -> bool:
    return isinstance(cell, (int, float)) and not isinstance(cell, bool)


def _numeric_columns(headers: typing.Sequence[str],
                     rows: Rows) -> list[bool]:
    """Per column: every cell is a number or None, with ≥ 1 number.

    Rows shorter than the header list simply have no cell in the
    trailing columns (rendered ragged, as before).
    """
    numeric = [False] * len(headers)
    for index in range(len(headers)):
        seen_number = False
        for row in rows:
            if index >= len(row):
                continue
            cell = row[index]
            if cell is None:
                continue
            if not _is_numeric(cell):
                break
            seen_number = True
        else:
            numeric[index] = seen_number
    return numeric


def format_table(title: str, headers: typing.Sequence[str],
                 rows: Rows) -> str:
    """Render an aligned text table (the benchmark-table format).

    Numeric columns (see module docstring) right-align, header
    included; ``None`` renders as ``—``.  O(rows × columns).
    """
    numeric = _numeric_columns(headers, rows)
    rendered = [[MISSING_CELL if cell is None else str(cell)
                 for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def align(text: str, index: int) -> str:
        if numeric[index]:
            return text.rjust(widths[index])
        return text.ljust(widths[index])

    line = "  ".join(align(h, i) for i, h in enumerate(headers))
    parts = [f"\n== {title} ==", line, "-" * len(line)]
    for row in rendered:
        parts.append("  ".join(align(cell, i)
                               for i, cell in enumerate(row)))
    return "\n".join(parts)


def print_table(title: str, headers: typing.Sequence[str],
                rows: Rows) -> None:
    """Print an aligned reproduction table."""
    print(format_table(title, headers, rows))


def render_csv(headers: typing.Sequence[str], rows: Rows) -> str:
    """Render rows as CSV text, deterministically (``\\n`` line ends)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow(["" if cell is None else cell for cell in row])
    return buffer.getvalue()

"""Plain-text table rendering for the experiment harness.

The harness prints the same rows/series the paper's tables and figures
report; these helpers keep the formatting consistent across every
``python -m repro.bench`` experiment.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

__all__ = ["format_value", "format_table", "print_table"]


def format_value(value: Any) -> str:
    """Compact human-readable rendering for table cells."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e6 or magnitude < 1e-3:
            return f"{value:.3g}"
        if magnitude >= 100:
            return f"{value:,.1f}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(
    rows: List[Dict[str, Any]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    cells = [[format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(row[i]) for row in cells))
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(col).ljust(w) for col, w in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(
    rows: List[Dict[str, Any]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> None:
    print(format_table(rows, columns, title))
    print()

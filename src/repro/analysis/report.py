"""Aligned-text reporting for benchmark output.

Every figure-reproduction benchmark prints the same rows/series the
paper plots, using these helpers so EXPERIMENTS.md can quote the
output verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence


@dataclass
class Series:
    """One plotted line: a name plus y-values over a shared x-axis."""

    name: str
    values: List[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.values.append(value)


def _format_cell(value: object, width: int) -> str:
    if isinstance(value, float):
        text = f"{value:.4f}"
    else:
        text = str(value)
    return text.rjust(width)


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> str:
    """Render an aligned table with a title rule; columns are at least
    ten characters wide."""
    rows = [list(r) for r in rows]
    widths = []
    for i, col in enumerate(columns):
        cells = [col] + [
            f"{r[i]:.4f}" if isinstance(r[i], float) else str(r[i]) for r in rows
        ]
        widths.append(max(10, max(len(c) for c in cells)))
    lines = [f"== {title} =="]
    lines.append("  ".join(c.rjust(w) for c, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(_format_cell(cell, w) for cell, w in zip(row, widths)))
    return "\n".join(lines)

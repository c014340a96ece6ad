"""Table-formatting and summary-statistics helpers."""

from repro.analysis.report import Series, format_table
from repro.analysis.stats import mean, percentile

__all__ = [
    "Series",
    "format_table",
    "mean",
    "percentile",
]

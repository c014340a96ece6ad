"""The runtime's observability hub, backed by :mod:`repro.obs`.

Every agent and the collector record into one shared
:class:`RuntimeMetrics` instance, which is a thin view over a
:class:`~repro.obs.metrics.MetricsRegistry` -- the engine snapshots it
into the final :class:`~repro.runtime.report.RuntimeReport`, and the
CLI's ``--metrics`` flag exports the very same registry as a
Prometheus snapshot, so the two can never disagree.

Agents record with labels (``node=...``, ``tree=...``); the report
reads label-collapsed totals so its machine-readable shape
(:meth:`RuntimeMetrics.as_dict`, consumed by ``repro run --json`` and
CI) stays compact and stable.  Rendering goes through
:mod:`repro.analysis` so live-run output lines up with the benchmark
tables.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.analysis.report import format_table
from repro.obs.metrics import BoundCounter, Histogram, MetricsRegistry

Number = Union[int, float]

__all__ = ["Histogram", "Number", "RuntimeMetrics"]


class RuntimeMetrics:
    """Named counters plus named histograms over a metrics registry.

    Counter and histogram series are created on first touch so agents
    do not need a registration step; :meth:`as_dict` and
    :meth:`render` emit label-collapsed totals sorted for stable
    output.  Pass an explicit ``registry`` to share series with other
    recorders (the CLI does this so ``--metrics`` snapshots planner
    and runtime counters together); the default is a private registry
    per instance, keeping independent runs independent.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    # -- recording -----------------------------------------------------
    def incr(self, name: str, amount: Number = 1, **labels: object) -> None:
        self.registry.incr(name, amount, **labels)

    def bind_counter(self, name: str, **labels: object) -> BoundCounter:
        """Pre-keyed :meth:`incr` for one series (see :class:`BoundCounter`)."""
        return self.registry.bind_counter(name, **labels)

    def observe(self, name: str, value: float, **labels: object) -> None:
        self.registry.observe(name, value, **labels)

    # -- reading -------------------------------------------------------
    def counter(self, name: str) -> float:
        """Label-collapsed total for ``name`` (0.0 when never touched)."""
        return self.registry.counter_total(name)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self.registry.histogram(name, **labels)

    def counters(self) -> Dict[str, float]:
        return self.registry.counter_totals()

    def _histogram_summaries(self) -> Dict[str, Dict[str, float]]:
        return {
            name: hist.summary() for name, hist in self.registry.histograms().items()
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "counters": self.counters(),
            "histograms": self._histogram_summaries(),
        }

    def render(self) -> str:
        """Aligned tables (via :mod:`repro.analysis`) for terminal output."""
        counter_rows = [
            [name, round(value, 3)] for name, value in self.counters().items()
        ]
        blocks = [format_table("counters", ["counter", "value"], counter_rows)]
        histogram_rows = []
        for name, s in sorted(self._histogram_summaries().items()):
            histogram_rows.append(
                [name, int(s["count"]), s["mean"], s["p50"], s["p95"], s["max"]]
            )
        if histogram_rows:
            blocks.append(
                format_table(
                    "histograms",
                    ["histogram", "count", "mean", "p50", "p95", "max"],
                    histogram_rows,
                )
            )
        return "\n\n".join(blocks)

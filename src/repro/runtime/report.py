"""The outcome of one live run.

:class:`RuntimeReport` is the runtime's analogue of the simulator's
:class:`~repro.simulation.collection.CollectionStats`: the same
per-period quality samples plus the metrics-hub snapshot and the
failure detector's event log.  ``as_dict`` is the stable machine-readable
shape behind ``repro run --json``; ``render`` produces the aligned
tables (via :mod:`repro.analysis`) for humans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from repro.analysis.report import format_table
from repro.obs import names
from repro.runtime.metrics import RuntimeMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (collector imports us)
    from repro.runtime.collector import FailureEvent


@dataclass
class RuntimePeriodSample:
    """Quality metrics scored at one period close, by either engine.

    ``received_fraction`` is cumulative collected-pair coverage,
    ``fresh_fraction`` counts pairs sampled within the scored period.
    """

    period: int
    mean_error: float
    fresh_fraction: float
    received_fraction: float


@dataclass
class RuntimeReport:
    """Everything one :class:`~repro.runtime.engine.MonitoringRuntime`
    run produced."""

    requested_pairs: int
    n_periods: int
    samples: List[RuntimePeriodSample] = field(default_factory=lambda: [])
    failure_events: List["FailureEvent"] = field(default_factory=lambda: [])
    metrics: RuntimeMetrics = field(default_factory=RuntimeMetrics)
    wall_seconds: float = 0.0

    # -- aggregates ----------------------------------------------------
    @property
    def mean_coverage(self) -> float:
        """Run-wide mean collected-pair coverage (the parity metric)."""
        if not self.samples:
            return 0.0
        return sum(s.received_fraction for s in self.samples) / len(self.samples)

    @property
    def final_coverage(self) -> float:
        """Collected-pair coverage at the last period close."""
        return self.samples[-1].received_fraction if self.samples else 0.0

    @property
    def mean_fresh_coverage(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.fresh_fraction for s in self.samples) / len(self.samples)

    @property
    def mean_percentage_error(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.mean_error for s in self.samples) / len(self.samples)

    @property
    def messages_sent(self) -> int:
        return int(self.metrics.counter(names.MESSAGES_SENT))

    # -- serialization -------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """Machine-readable snapshot (``repro run --json``)."""
        return {
            "requested_pairs": self.requested_pairs,
            "periods": self.n_periods,
            "wall_seconds": round(self.wall_seconds, 6),
            "coverage": {
                "mean": self.mean_coverage,
                "final": self.final_coverage,
                "fresh_mean": self.mean_fresh_coverage,
            },
            "mean_percentage_error": self.mean_percentage_error,
            "messages": {
                "sent": self.messages_sent,
                "delivered": int(self.metrics.counter(names.MESSAGES_DELIVERED)),
                "dropped_capacity": int(self.metrics.counter(names.MESSAGES_DROPPED_CAPACITY)),
                "dropped_failure": int(self.metrics.counter(names.MESSAGES_DROPPED_FAILURE)),
                "heartbeats": int(self.metrics.counter(names.HEARTBEATS_SENT)),
            },
            "values": {"trimmed": int(self.metrics.counter(names.VALUES_TRIMMED))},
            "cost_units_spent": self.metrics.counter(names.COST_UNITS_SPENT),
            "failure_events": [
                {"node": e.node, "period": e.period, "kind": e.kind}
                for e in self.failure_events
            ],
            "per_period": [
                {
                    "period": s.period,
                    "coverage": s.received_fraction,
                    "fresh": s.fresh_fraction,
                    "mean_error": s.mean_error,
                }
                for s in self.samples
            ],
            "metrics": self.metrics.as_dict(),
        }

    def render(self, title: str = "live run") -> str:
        """Aligned human-readable summary."""
        rows = [
            ["periods", self.n_periods],
            ["requested pairs", self.requested_pairs],
            ["mean coverage", round(self.mean_coverage, 4)],
            ["final coverage", round(self.final_coverage, 4)],
            ["mean freshness", round(self.mean_fresh_coverage, 4)],
            ["mean % error", round(self.mean_percentage_error, 4)],
            ["messages sent", self.messages_sent],
            ["messages delivered", int(self.metrics.counter(names.MESSAGES_DELIVERED))],
            ["dropped (capacity)", int(self.metrics.counter(names.MESSAGES_DROPPED_CAPACITY))],
            ["dropped (failure)", int(self.metrics.counter(names.MESSAGES_DROPPED_FAILURE))],
            ["values trimmed", int(self.metrics.counter(names.VALUES_TRIMMED))],
            ["heartbeats", int(self.metrics.counter(names.HEARTBEATS_SENT))],
            ["failure events", len(self.failure_events)],
            ["wall seconds", round(self.wall_seconds, 3)],
        ]
        blocks = [format_table(title, ["metric", "value"], rows)]
        if self.failure_events:
            blocks.append(
                format_table(
                    "failure detector events",
                    ["node", "period", "kind"],
                    [[e.node, e.period, e.kind] for e in self.failure_events],
                )
            )
        blocks.append(self.metrics.render())
        return "\n\n".join(blocks)

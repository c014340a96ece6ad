"""The outcome of one simulation run.

Per-period quality samples -- the runtime's
:class:`~repro.runtime.report.RuntimePeriodSample`, scored by the same
:func:`~repro.runtime.collector.score_period` -- plus the message and
cost tallies of the discrete-event engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.runtime.report import RuntimePeriodSample


@dataclass
class CollectionStats:
    """Aggregated outcome of one simulation run."""

    requested_pairs: int = 0
    periods: List[RuntimePeriodSample] = field(default_factory=list)
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped_capacity: int = 0
    messages_dropped_failure: int = 0
    values_trimmed: int = 0
    cost_units_spent: float = 0.0

    @property
    def mean_percentage_error(self) -> float:
        """Run-wide average percentage error (the Fig. 8 metric)."""
        if not self.periods:
            return 0.0
        return sum(p.mean_error for p in self.periods) / len(self.periods)

    @property
    def mean_fresh_coverage(self) -> float:
        """Average fraction of pairs fresh at each period's deadline."""
        if not self.periods:
            return 0.0
        return sum(p.fresh_fraction for p in self.periods) / len(self.periods)

    def summary(self) -> str:
        return (
            f"pairs={self.requested_pairs} periods={len(self.periods)} "
            f"error={self.mean_percentage_error:.4f} "
            f"fresh={self.mean_fresh_coverage:.4f} "
            f"sent={self.messages_sent} delivered={self.messages_delivered} "
            f"dropped(cap)={self.messages_dropped_capacity} "
            f"dropped(fail)={self.messages_dropped_failure}"
        )

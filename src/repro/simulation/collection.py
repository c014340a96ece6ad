"""Collector-side state and run statistics.

The central collector keeps the last reading it received for every
node-attribute pair.  At the end of each collection period the
simulation samples the paper's quality metrics:

- **percentage error** per requested pair: ``|truth - seen| /
  max(|truth|, floor)``, capped at 100% (a pair the collector has
  never seen counts as 100% error -- it is exactly as useless as an
  arbitrarily wrong value);
- **freshness coverage**: the fraction of requested pairs whose
  reading was sampled in the current period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.attributes import NodeAttributePair
from repro.simulation.messages import Reading

#: Denominator floor: avoids dividing by near-zero truths.
_ERROR_FLOOR = 1.0


def percentage_error(truth: float, seen: float) -> float:
    """Capped percentage error of a collected value against the truth."""
    return min(abs(truth - seen) / max(abs(truth), _ERROR_FLOOR), 1.0)


class CollectorState:
    """Last-received reading per node-attribute pair."""

    def __init__(self) -> None:
        self._readings: Dict[NodeAttributePair, Reading] = {}

    def __len__(self) -> int:
        return len(self._readings)

    def __contains__(self, pair: NodeAttributePair) -> bool:
        return pair in self._readings

    def record(self, pair: NodeAttributePair, reading: Reading) -> None:
        existing = self._readings.get(pair)
        if existing is None or reading.sampled_at >= existing.sampled_at:
            self._readings[pair] = reading

    def reading(self, pair: NodeAttributePair) -> Optional[Reading]:
        return self._readings.get(pair)

    def percentage_error(self, pair: NodeAttributePair, truth: float) -> float:
        """Capped percentage error of the collector's view of ``pair``."""
        reading = self._readings.get(pair)
        if reading is None:
            return 1.0
        return percentage_error(truth, reading.value)


@dataclass
class PeriodSample:
    """Quality metrics measured at the end of one period."""

    period: int
    mean_error: float
    fresh_fraction: float
    received_fraction: float


@dataclass
class CollectionStats:
    """Aggregated outcome of one simulation run."""

    requested_pairs: int = 0
    periods: List[PeriodSample] = field(default_factory=list)
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped_capacity: int = 0
    messages_dropped_failure: int = 0
    values_trimmed: int = 0
    cost_units_spent: float = 0.0

    def record_period(self, sample: PeriodSample) -> None:
        self.periods.append(sample)

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

"""The collector side of both engines, and the collector agent.

Scoring is shared: the live :class:`CollectorAgent` and the
discrete-event simulator both keep the last reading per slot of every
tree that reports to them (:class:`CollectedColumns`) and score each
period with :func:`score_period` -- the paper's Fig. 8 metrics, one
rule in both engines:

- **percentage error** per requested pair: ``|truth - seen| /
  max(|truth|, 1)``, capped at 100% (a pair the collector has never
  seen counts as 100% error -- it is exactly as useless as an
  arbitrarily wrong value);
- **freshness**: the fraction of requested pairs whose reading was
  sampled in the scored period;
- **received**: the fraction received at all so far.

The agent adds the two behaviours only a live system exhibits:

- **failure detection** -- each live agent heartbeats every period;
  a node silent for ``failure_timeout`` periods is flagged ``down``,
  and flagged ``recovered`` when its heartbeats resume;
- **staleness tracking** -- at every period close, the age (in
  periods) of each requested pair's newest reading is recorded into
  the ``staleness_periods`` histogram, alongside wall-clock collection
  latency per delivered batch.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cluster.metrics import MetricRegistry
from repro.core.attributes import NodeAttributePair, NodeId
from repro.core.cost import CostModel
from repro.obs import names, trace
from repro.runtime.config import RuntimeConfig
from repro.runtime.messages import (
    ABSENT,
    COLLECTOR_ADDRESS,
    Batch,
    Columns,
    HeartbeatEnvelope,
    StopEnvelope,
    TickEnvelope,
    TreeLayout,
    UpdateEnvelope,
    blank_columns,
    fold,
)
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.report import RuntimePeriodSample
from repro.runtime.transport import Transport

_EPS = 1e-9
#: Denominator floor of the percentage error: avoids dividing by
#: near-zero truths.
_ERROR_FLOOR = 1.0


@dataclass(frozen=True)
class FailureEvent:
    """One failure-detector transition, observed at period close."""

    node: NodeId
    period: int
    kind: str  # "down" | "recovered"


@dataclass(frozen=True)
class Reading:
    """One attribute observation: the value and when it was sampled."""

    value: float
    sampled_at: float


#: A pair's place in the collector's state: its tree's value and stamp
#: columns, and its slot in them.
Cell = Tuple["array[float]", "array[float]", int]


def percentage_error(truth: float, seen: float) -> float:
    """Capped percentage error of a collected value against the truth."""
    return min(abs(truth - seen) / max(abs(truth), _ERROR_FLOOR), 1.0)


def score_period(
    period: int, truths: Sequence[float], cells: Sequence[Optional[Cell]]
) -> Tuple[RuntimePeriodSample, List[float]]:
    """Score ``period`` over the requested pairs.

    Returns the sample and the age (in periods) of every pair received
    so far.  ``truths`` and ``cells`` are aligned, one entry per
    requested pair: its ground truth now, and where its newest reading
    lives (``None`` for a pair no tree collects).  A reading stamped
    ``period`` or later is fresh.
    """
    n = len(cells)
    if n == 0:
        return RuntimePeriodSample(period, 0.0, 1.0, 1.0), []
    total_error = 0.0
    fresh = 0
    now = float(period)
    ages = []  # of every pair received so far, in periods
    for truth, cell in zip(truths, cells):
        if cell is not None:
            values, stamps, slot = cell
            stamp = stamps[slot]
            if stamp != ABSENT:
                total_error += percentage_error(truth, values[slot])
                ages.append(now - stamp)
                if stamp >= now - _EPS:
                    fresh += 1
                continue
        total_error += 1.0  # never seen: as useless as arbitrarily wrong
    sample = RuntimePeriodSample(
        period=period,
        mean_error=total_error / n,
        fresh_fraction=fresh / n,
        received_fraction=len(ages) / n,
    )
    return sample, ages


class CollectedColumns:
    """Last-received reading per slot: one value and one stamp column
    for each tree that reports here."""

    def __init__(self, layouts: Iterable[TreeLayout]) -> None:
        self._columns: Dict[int, Columns] = {}
        self._cells: Dict[NodeAttributePair, Cell] = {}
        for layout in layouts:
            values, stamps = self._columns[layout.tree] = blank_columns(len(layout.pairs))
            for slot, pair in enumerate(layout.pairs):
                self._cells[pair] = values, stamps, slot

    def columns(self, tree: int, batch: Batch) -> Optional[Columns]:
        """The columns ``batch`` folds into, or ``None`` when ``tree`` does
        not report here or the batch names slots the tree does not have."""
        columns = self._columns.get(tree)
        if columns is None or not 0 <= batch.lo <= len(columns[1]) - len(batch.stamps):
            return None
        return columns

    def cell(self, pair: NodeAttributePair) -> Optional[Cell]:
        return self._cells.get(pair)

    def reading(self, pair: NodeAttributePair) -> Optional[Reading]:
        """The newest reading of ``pair`` received so far, if any."""
        cell = self._cells.get(pair)
        if cell is not None:
            values, stamps, slot = cell
            if stamps[slot] != ABSENT:
                return Reading(values[slot], stamps[slot])
        return None


class CollectorAgent:
    """The central collector's runtime half."""

    def __init__(
        self,
        requested_pairs: Sequence[NodeAttributePair],
        layouts: Iterable[TreeLayout],
        expected_nodes: Sequence[NodeId],
        central_capacity: float,
        cost: CostModel,
        registry: MetricRegistry,
        transport: Transport,
        metrics: RuntimeMetrics,
        config: RuntimeConfig,
        address: NodeId = COLLECTOR_ADDRESS,
    ) -> None:
        self.address = address
        self.requested_pairs = tuple(requested_pairs)
        self.expected_nodes = tuple(sorted(expected_nodes))
        self.central_capacity = central_capacity
        self.cost = cost
        self.registry = registry
        self.transport = transport
        self.metrics = metrics
        self.config = config
        self.state = CollectedColumns(layouts)
        #: Per requested pair, in order: where its reading lives (``None``
        #: for a pair no tree collects), and the truth it is scored against.
        self._cells = [self.state.cell(pair) for pair in self.requested_pairs]
        self._truths = registry.reader(self.requested_pairs)
        self.samples: List[RuntimePeriodSample] = []
        self.failure_events: List[FailureEvent] = []
        self._budget = central_capacity
        self._current_period = -1
        self._last_heartbeat: Dict[NodeId, int] = {}
        self._failed: Set[NodeId] = set()
        #: Send time of recent ticks (collection-latency anchor); pruned
        #: at period close to the last ``failure_timeout`` periods.
        self._tick_monotonic: Dict[int, float] = {}

    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Inbox loop for ticks, updates, and heartbeats."""
        while True:
            envelope = await self.transport.recv(self.address)
            if isinstance(envelope, StopEnvelope):
                break
            if isinstance(envelope, TickEnvelope):
                self._on_tick(envelope)
            elif isinstance(envelope, UpdateEnvelope):
                self._on_update(envelope)
            elif isinstance(envelope, HeartbeatEnvelope):
                self._on_heartbeat(envelope)

    # ------------------------------------------------------------------
    def _on_tick(self, tick: TickEnvelope) -> None:
        self._current_period = tick.period
        self._budget = self.central_capacity
        self._tick_monotonic[tick.period] = tick.sent_monotonic

    def _on_update(self, envelope: UpdateEnvelope) -> None:
        columns = self.state.columns(envelope.tree, envelope.payload)
        if columns is None:
            self.metrics.incr(names.MESSAGES_DROPPED_INVALID)
            return
        if envelope.trace_ctx is not None and trace.active_tracer() is not None:
            # Linked to the sending agent's wave span -- in a deploy
            # this edge crosses the worker->collector TCP boundary.
            with trace.attach(envelope.trace_ctx):
                trace.event(
                    names.EVENT_COLLECTOR_RECV,
                    lane=names.LANE_COLLECTOR,
                    sender=envelope.sender,
                    period=envelope.period,
                )
        charge = envelope.cost(self.cost)
        if self._budget < charge - _EPS:
            self.metrics.incr(names.MESSAGES_DROPPED_CAPACITY)
            return
        self._budget -= charge
        fold(columns[0], columns[1], 0, envelope.payload)
        self.metrics.incr(names.MESSAGES_DELIVERED)
        self.metrics.incr(names.COST_UNITS_SPENT, charge)
        tick_at = self._tick_monotonic.get(envelope.period)
        if tick_at is not None:
            self.metrics.observe(names.COLLECTION_LATENCY_S, time.monotonic() - tick_at)

    def _on_heartbeat(self, envelope: HeartbeatEnvelope) -> None:
        self._last_heartbeat[envelope.sender] = envelope.period
        if envelope.sender in self._failed:
            self._failed.discard(envelope.sender)
            self.failure_events.append(
                FailureEvent(envelope.sender, max(self._current_period, 0), "recovered")
            )
            self.metrics.incr(names.FAILURE_RECOVERIES)

    # ------------------------------------------------------------------
    def close_period(self, period: int) -> RuntimePeriodSample:
        """Score period ``period`` and run the failure detector.

        Called by the engine after the period's wall-clock window (and
        message settle) so the collector's view is compared against the
        ground truth of the same period -- the simulator's deadline
        measurement, with the same :func:`score_period`.
        """
        with trace.span(
            names.SPAN_COLLECTOR_CLOSE_PERIOD, lane=names.LANE_COLLECTOR, period=period
        ) as score_span:
            sample, ages = score_period(period, self._truths(), self._cells)
            if ages:
                # One series lookup per close, not one per pair (and
                # none before the first reading: no empty series).
                staleness = self.metrics.histogram(names.STALENESS_PERIODS)
                for age in ages:
                    staleness.observe(age)
            self.samples.append(sample)
            self.metrics.observe(names.PERIOD_COVERAGE, sample.received_fraction)
            score_span.set(
                coverage=sample.received_fraction, mean_error=sample.mean_error
            )
            self._detect_failures(period)
            # An update later than this finds no anchor and records no
            # latency, like one for a period this collector never saw.
            horizon = period - self.config.failure_timeout
            for old in [p for p in self._tick_monotonic if p <= horizon]:
                del self._tick_monotonic[old]
        return sample

    def _detect_failures(self, period: int) -> None:
        for node in self.expected_nodes:
            if node in self._failed:
                continue
            last_seen = self._last_heartbeat.get(node, -1)
            if period - last_seen >= self.config.failure_timeout:
                self._failed.add(node)
                self.failure_events.append(FailureEvent(node, period, "down"))
                self.metrics.incr(names.FAILURE_DETECTIONS)

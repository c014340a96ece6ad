"""The collector side of both engines: the collector agent.

Scoring is shared: the live runtime drives a :class:`CollectorAgent`
from its inbox, and the discrete-event simulator calls the same
agent's synchronous steps on its own schedule --
:meth:`~CollectorAgent.begin` (a fresh budget ``b_0``),
:meth:`~CollectorAgent.accept` (charge a root's batch and fold it into
:class:`CollectedColumns`, the last reading per slot of every tree)
and :meth:`~CollectorAgent.score`, which scores a period with
:func:`score_period` -- the paper's Fig. 8 metrics -- and records
every pair's age in the ``staleness_periods`` histogram:

- **percentage error** per requested pair: ``|truth - seen| /
  max(|truth|, 1)``, capped at 100% (a pair the collector has never
  seen counts as 100% error -- it is exactly as useless as an
  arbitrarily wrong value);
- **freshness**: the fraction of requested pairs whose reading was
  sampled in the scored period;
- **received**: the fraction received at all so far.

The inbox loop adds the three behaviours only a live system exhibits:

- **completion** -- a period is complete once every tree's root has
  reported it, but for roots flagged ``down``; the engine closes the
  period then (:meth:`CollectorAgent.heard_from_all`).  A root with
  nothing to send sends an empty, uncharged update;
- **failure detection** -- liveness rides the trees: at a period's
  close, a node is unheard if a root update for the period names it
  ``silent`` as a member of its tree, or if it roots a tree whose
  update has not come; anyone else is heard (under a silent relay,
  unknown is not down).  Unheard for ``failure_timeout`` periods is
  ``down``; heard again at a close is ``recovered``;
- **collection latency** -- per delivered batch, from its period's
  tick on the event loop's clock.
"""

from __future__ import annotations

import asyncio
from array import array
from collections import Counter
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


@dataclass
class _Heard:
    """One open period: trees whose root has not reported, whom the
    others named silent, and whether only waived trees are left."""

    unreported: Set[int]
    silent: Set[NodeId]
    complete: asyncio.Event


@dataclass(frozen=True)
class Reading:
    """One attribute observation: the value and when it was sampled."""

    value: float
    sampled_at: float


#: A pair's place in the collector's state: its tree's value and stamp
#: columns, and its slot in them.
Cell = Tuple["array[float]", "array[float]", int]


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
                # The capped percentage error, spelled out: this runs
                # once per requested pair per period.
                scale = abs(truth)
                error = abs(truth - values[slot]) / (_ERROR_FLOOR if scale < _ERROR_FLOOR else scale)
                total_error += 1.0 if error > 1.0 else error
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
    """The central collector, in both engines."""

    def __init__(
        self,
        requested_pairs: Sequence[NodeAttributePair],
        layouts: Iterable[TreeLayout],
        central_capacity: float,
        cost: CostModel,
        registry: MetricRegistry,
        transport: Transport,
        metrics: RuntimeMetrics,
        config: RuntimeConfig,
    ) -> None:
        layouts = tuple(layouts)
        self.requested_pairs = tuple(requested_pairs)
        #: Every tree member, in the order the detector visits them.
        self.expected_nodes = tuple(sorted({node for lay in layouts for node in lay.ranges}))
        self.central_capacity = central_capacity
        self.cost = cost
        self.transport = transport
        self.metrics = metrics
        self.config = config
        self.state = CollectedColumns(layouts)
        #: Per requested pair, in order: where its reading lives (``None``
        #: for a pair no tree collects), and the truth it is scored against.
        self._cells = [self.state.cell(pair) for pair in self.requested_pairs]
        self._truths = registry.reader(self.requested_pairs)
        self.samples: List[RuntimePeriodSample] = []
        #: In ``(period, node)`` order: recorded at period close.
        self.failure_events: List[FailureEvent] = []
        self._budget = central_capacity
        self._last_heard: Dict[NodeId, int] = {}
        #: Each node flagged ``down``, and the period it was flagged in.
        self._failed: Dict[NodeId, int] = {}
        #: Send time of recent ticks (collection-latency anchor); pruned
        #: at period close to the last ``failure_timeout`` periods.
        self._tick_at: Dict[int, float] = {}
        #: Each tree's root (first in its preorder ``ranges``) and members.
        self._roots = {lay.tree: next(iter(lay.ranges)) for lay in layouts if lay.ranges}
        self._members = {lay.tree: lay.ranges for lay in layouts}
        #: Trees whose root was flagged ``down`` and has not reported
        #: since: no period waits for them.
        self._waived: Set[int] = set()
        #: By the envelope's own period (across processes one can beat
        #: the collector's tick), what each period not yet closed heard.
        self._heard: Dict[int, _Heard] = {}
        #: The last period closed, and the ``(period, root)`` of each
        #: waived tree's update that came after its period had closed:
        #: the next close hears them in their own period.
        self._closed = -1
        self._late: Set[Tuple[int, NodeId]] = set()
        # The per-update counters, keyed once.
        self._count_delivered = metrics.bind_counter(names.MESSAGES_DELIVERED)
        self._count_cost = metrics.bind_counter(names.COST_UNITS_SPENT)

    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Inbox loop for ticks and updates."""
        loop = asyncio.get_running_loop()
        while True:
            envelope = await self.transport.recv(COLLECTOR_ADDRESS)
            if isinstance(envelope, StopEnvelope):
                break
            if isinstance(envelope, TickEnvelope):
                self._on_tick(envelope)
            elif isinstance(envelope, UpdateEnvelope):
                self._on_update(envelope, loop.time())

    # ------------------------------------------------------------------
    def _on_tick(self, tick: TickEnvelope) -> None:
        self.begin(tick.period)
        self._tick_at[tick.period] = tick.sent_at

    def _on_update(self, envelope: UpdateEnvelope, now: float) -> None:
        """Fold in a root's batch that arrived at ``now`` (loop time)."""
        columns = self.state.columns(envelope.tree, envelope.payload)
        if columns is None:
            self.metrics.incr(names.MESSAGES_DROPPED_INVALID)
            return
        # Heard, whether or not the budget affords it; of the ids it
        # names silent, those outside its tree are ignored.
        tree, members = envelope.tree, self._members[envelope.tree]
        if tree in self._waived:
            self._waived.discard(tree)
            if envelope.period <= self._closed:
                self._late.add((envelope.period, self._roots[tree]))
        heard = self._period(envelope.period)
        heard.unreported.discard(tree)
        heard.silent.update(node for node in envelope.silent if node in members)
        if heard.unreported <= self._waived:
            heard.complete.set()
        if not envelope.payload.count:
            return  # a root with nothing to send, saying so: uncharged
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
        if not self.accept(columns, envelope.payload):
            return
        tick_at = self._tick_at.get(envelope.period)
        if tick_at is not None:
            self.metrics.observe(names.COLLECTION_LATENCY_S, now - tick_at)

    # ------------------------------------------------------------------
    # The period's rules, one synchronous step each: the inbox loop
    # above and the simulator's schedule both drive them.
    def begin(self, period: int) -> None:
        """Open ``period`` with a fresh collector budget ``b_0``."""
        self._budget = self.central_capacity

    def accept(self, columns: Columns, batch: Batch) -> bool:
        """Charge a root's nonempty batch to ``b_0`` and fold it into its
        tree's ``columns`` (:meth:`CollectedColumns.columns`); ``False``
        when the budget cannot afford it and it is dropped whole."""
        charge = self.cost.message_cost(batch.count)
        if self._budget < charge - _EPS:
            self.metrics.incr(names.MESSAGES_DROPPED_CAPACITY)
            return False
        self._budget -= charge
        fold(columns[0], columns[1], 0, batch)
        self._count_delivered.add()
        self._count_cost.add(charge)
        return True

    def score(self, period: int) -> RuntimePeriodSample:
        """Score ``period`` against the ground truth now and keep the
        sample, recording each pair's staleness and the coverage."""
        sample, ages = score_period(period, self._truths(), self._cells)
        if ages:
            # One series lookup per close and one observation per
            # distinct age, not one per pair (and none before the first
            # reading: no empty series).
            staleness = self.metrics.histogram(names.STALENESS_PERIODS)
            for age, times in Counter(ages).items():
                staleness.observe(age, times)
        self.samples.append(sample)
        self.metrics.observe(names.PERIOD_COVERAGE, sample.received_fraction)
        return sample

    # ------------------------------------------------------------------
    def _period(self, period: int) -> _Heard:
        """What ``period`` has heard; it awaits every tree but the waived:
        a dead root holds only the periods before its flag to the bound."""
        heard = self._heard.get(period)
        if heard is None:
            heard = self._heard[period] = _Heard(set(self._roots), set(), asyncio.Event())
        if heard.unreported <= self._waived:
            heard.complete.set()
        return heard

    async def heard_from_all(self, period: int) -> None:
        """Return once ``period`` is complete: every tree has delivered
        its root's update for it (one dropped for the collector budget
        counts, one refused as invalid does not) -- except the trees
        whose root is flagged ``down`` and has not reported since."""
        await self._period(period).complete.wait()

    def close_period(self, period: int) -> RuntimePeriodSample:
        """Score period ``period`` (:meth:`score`) and run the failure
        detector.

        Called by the engine once the period is complete
        (:meth:`heard_from_all`) or its bound has passed, so the
        collector's view is compared against the ground truth of the
        same period -- what the simulator's deadline calls :meth:`score`
        for.  An update for it that arrives later is still folded in,
        but is not fresh at the next close.
        """
        with trace.span(
            names.SPAN_COLLECTOR_CLOSE_PERIOD, lane=names.LANE_COLLECTOR, period=period
        ) as score_span:
            sample = self.score(period)
            score_span.set(
                coverage=sample.received_fraction, mean_error=sample.mean_error
            )
            self._detect_failures(period)
            # An update later than this finds no anchor and records no
            # latency, like one for a period this collector never saw.
            horizon = period - self.config.failure_timeout
            for old in [p for p in self._tick_at if p <= horizon]:
                del self._tick_at[old]
            for done in [p for p in self._heard if p <= period]:
                del self._heard[done]
            self._closed = period
        return sample

    def _detect_failures(self, period: int) -> None:
        """Flag, in node order, whoever ``period`` leaves unheard for
        ``failure_timeout`` periods, and recover whoever it hears again.

        First, a flagged root whose tree's first update since came only
        after that update's period had closed is recovered in that
        period, if it is later than the flag's; the events stay in
        ``(period, node)`` order."""
        for late, root in sorted(self._late):
            if self._failed.get(root, late) < late:
                del self._failed[root]
                self._last_heard[root] = late
                self.failure_events.append(FailureEvent(root, late, "recovered"))
                self.metrics.incr(names.FAILURE_RECOVERIES)
        if self._late:
            self.failure_events.sort(key=lambda event: (event.period, event.node))
            self._late.clear()
        heard = self._period(period)
        unheard = heard.silent.union(self._roots[tree] for tree in heard.unreported)
        for node in self.expected_nodes:
            if node not in unheard:
                self._last_heard[node] = period
                if node in self._failed:
                    del self._failed[node]
                    self.failure_events.append(FailureEvent(node, period, "recovered"))
                    self.metrics.incr(names.FAILURE_RECOVERIES)
            elif node not in self._failed:
                if period - self._last_heard.get(node, -1) >= self.config.failure_timeout:
                    self._failed[node] = period
                    self._waived.update(tree for tree, root in self._roots.items() if root == node)
                    self.failure_events.append(FailureEvent(node, period, "down"))
                    self.metrics.incr(names.FAILURE_DETECTIONS)

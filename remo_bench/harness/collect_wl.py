"""The two collection workloads: ``collect_inproc`` and ``collect_tcp``.

The live pipeline -- agents, transport, collector, engine -- runs a
REMO plan of the CLI-default sampled workload on one event-loop thread.
``collect_inproc`` has no wire; ``collect_tcp`` sends every envelope
through ``net.codec`` + ``net.tcp`` on one loopback endpoint
(loopback, not a real link).  A codec or socket gain shows on
``collect_tcp`` only; an agent or collector gain on both.

Open loop, sleep-paced: the engine ticks every ``period_seconds``
regardless of how long the bottom-up wave takes, so wall time per
period is an input here, not a result.  What is measured per period:

- the *wave*: first ``TickEnvelope`` send to the last ``UpdateEnvelope``
  handed to a collector inbox, stamped by a benchmark-owned transport
  subclass;
- process CPU between consecutive period starts, stamped by a
  benchmark-owned ``MetricRegistry`` subclass (the engine advances the
  registry first thing every period);
- pairs fresh at period close, counted from the collector's readings
  and checked against the registry's ground truth for that period.

A run executes a fixed panel of plans -- the CLI-default workload at
generator seeds 1, 2, 3 -- one segment of periods each.  The panel
does not follow ``--seed``: tree shapes differ so much between draws
(3 to 12 trees, waves of 15 to 33 ms) that a seed-drawn panel of
affordable size moved the medians by 15% run to run.  ``--seed`` drives
what flows through the trees: the monitored signals of every
``MetricRegistry``.

The panel runs ``PASSES`` times, half a run apart, and every plan
reports the better of its passes (each figure is the mean over the
plans).  The reference VM has slow stretches of seconds during which
every wave takes a fifth longer; interference only ever adds time, and
a stretch that catches a plan in one pass rarely catches it in the
other.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.metrics import MetricRegistry
from repro.core.planner import RemoPlanner
from repro.net import codec as codec_module
from repro.net import tcp as tcp_module
from repro.net.deploy import allocate_endpoints
from repro.net.directory import PeerDirectory
from repro.net.tcp import TcpTransport
from repro.obs import names
from repro.runtime.collector import CollectorAgent
from repro.runtime.config import RuntimeConfig
from repro.runtime.engine import MonitoringRuntime
from repro.runtime.messages import COLLECTOR_ADDRESS, TickEnvelope, UpdateEnvelope
from repro.runtime.transport import InProcessTransport
from repro.workloads.presets import sampled_workload

from harness.common import (
    Outcome,
    mean,
    median,
    percentile,
    ratio,
    results_path,
    sub_seeds,
)
from harness.spans import Patcher, Recorder

#: Warm-up periods at the head of every segment (tasks start, sockets
#: dial, queues fill); not measured.
WARMUP_PERIODS = 2
#: Interior nodes wait this share of the period for late children.  The
#: library default (0.5) is a failure bound, not a cost; the reference
#: VM stalls for 100 ms and more now and then, and a benchmark workload
#: must not fail operations because of that (at 0.9 of a 0.2 s period,
#: one ``collect_tcp`` run in thirty lost a period's pairs to a stall).
CHILD_WAIT_FRACTION = 1.0
#: Plans in the panel at full length; short runs (``--quick``) use fewer.
PLANS = 3
#: ``--seconds`` / this = plans, up to ``PLANS``.
SECONDS_PER_PLAN = 6.0
#: Times the panel is run; every plan keeps its better pass.
PASSES = 2
_EPS = 1e-9
#: Names in the traced run's recorder.
CODEC_ENCODE, CODEC_DECODE = "net.codec.encode", "net.codec.decode"
SPAN_CLOSE = "runtime.collector.close_period"


@dataclass(frozen=True)
class CollectKind:
    name: str
    wire: bool
    #: Wall-clock seconds per period: seven to nine times the median
    #: wave on the reference box, so freshness survives a stall.
    period_seconds: float


KINDS = {
    "collect_inproc": CollectKind("collect_inproc", False, 0.15),
    "collect_tcp": CollectKind("collect_tcp", True, 0.3),
}


# ----------------------------------------------------------------------
# Benchmark-owned seams
# ----------------------------------------------------------------------
class PeriodRegistry(MetricRegistry):
    """Ground truth that also marks period starts and checks readings.

    The engine calls :meth:`advance_all` first thing every period, after
    the previous period closed.  That makes it the one place that sees
    both the closed period's readings and, still unadvanced, the truth
    they must equal.
    """

    def __init__(self, pairs: Any, seed: int) -> None:
        super().__init__(pairs, seed=seed)
        self.period = -1
        self.collectors: List[CollectorAgent] = []
        #: Per period: CPU at entry, CPU and wall once checks are done,
        #: wall when the advance finished.
        self.marks: List[Tuple[float, float, float, float]] = []
        #: Per closed period: pairs fresh at close.
        self.fresh: List[int] = []
        self.wrong_values = 0

    def advance_all(self) -> None:
        cpu_in = process_time()
        if self.period >= 0:
            self.inspect_closed_period()
        cpu_start = process_time()
        started = perf_counter()
        super().advance_all()
        self.period += 1
        self.marks.append((cpu_in, cpu_start, started, perf_counter()))

    def inspect_closed_period(self) -> None:
        """Count fresh pairs of ``self.period`` and verify their values."""
        period = float(self.period)
        fresh = 0
        for collector in self.collectors:
            state = collector.state
            for pair in collector.requested_pairs:
                reading = state.reading(pair)
                if reading is None or reading.sampled_at < period - _EPS:
                    continue
                fresh += 1
                if reading.value != self.value(pair):  # noqa: REMO401 -- must be the very float sampled
                    self.wrong_values += 1
        self.fresh.append(fresh)


@dataclass
class Stamps:
    first_tick: Dict[int, float] = field(default_factory=dict)
    last_tick: Dict[int, float] = field(default_factory=dict)
    last_update: Dict[int, float] = field(default_factory=dict)


class StampingMixin:
    """Stamps the two ends of every period's wave; nothing else."""

    stamps: Stamps

    async def send(self, to: int, envelope: Any) -> bool:
        if type(envelope) is TickEnvelope:
            now = perf_counter()
            self.stamps.first_tick.setdefault(envelope.period, now)
            self.stamps.last_tick[envelope.period] = now
        return await super().send(to, envelope)  # type: ignore[misc]

    def deliver_local(self, address: int, envelope: Any) -> bool:
        if address <= COLLECTOR_ADDRESS and type(envelope) is UpdateEnvelope:
            self.stamps.last_update[envelope.period] = perf_counter()
        return super().deliver_local(address, envelope)  # type: ignore[misc]


def _wire_key(to: int, envelope: Any) -> Tuple[Any, ...]:
    """Identity of an envelope that survives encode/decode."""
    return (
        to,
        type(envelope).__name__,
        getattr(envelope, "sender", None),
        getattr(envelope, "period", None),
        getattr(envelope, "tree", None),
    )


class TracingMixin(StampingMixin):
    """The traced run's transport: per-envelope timings on top of stamps."""

    probe: "TransportProbe"

    async def send(self, to: int, envelope: Any) -> bool:
        probe = self.probe
        started = perf_counter()
        probe.in_flight[_wire_key(to, envelope)] = started
        try:
            return await super().send(to, envelope)
        finally:
            probe.send_calls += 1
            probe.send_busy_s += perf_counter() - started

    def deliver_local(self, address: int, envelope: Any) -> bool:
        probe = self.probe
        now = perf_counter()
        sent_at = probe.in_flight.pop(_wire_key(address, envelope), None)
        if sent_at is not None:
            probe.wire_s.append(now - sent_at)
        probe.enqueued[id(envelope)] = now
        delivered = super().deliver_local(address, envelope)
        probe.inbox_depth_max = max(probe.inbox_depth_max, self.pending(address))  # type: ignore[attr-defined]
        return delivered

    async def recv(self, address: int, timeout: Optional[float] = None) -> Any:
        envelope = await super().recv(address, timeout)  # type: ignore[misc]
        if envelope is not None:
            queued_at = self.probe.enqueued.pop(id(envelope), None)
            if queued_at is not None:
                self.probe.queue_wait_s.append(perf_counter() - queued_at)
        return envelope


@dataclass
class TransportProbe:
    send_calls: int = 0
    send_busy_s: float = 0.0
    inbox_depth_max: int = 0
    in_flight: Dict[Tuple[Any, ...], float] = field(default_factory=dict)
    enqueued: Dict[int, float] = field(default_factory=dict)
    wire_s: List[float] = field(default_factory=list)
    queue_wait_s: List[float] = field(default_factory=list)


class _StampedInProcess(StampingMixin, InProcessTransport):
    pass


class _StampedTcp(StampingMixin, TcpTransport):
    pass


class _TracedInProcess(TracingMixin, InProcessTransport):
    pass


class _TracedTcp(TracingMixin, TcpTransport):
    pass


# ----------------------------------------------------------------------
# One segment: one plan, a run of periods
# ----------------------------------------------------------------------
@dataclass
class Segment:
    """What one plan's run of periods produced (measured periods only)."""

    promised: int
    waves_ms: List[float]
    cpu_ms: List[float]
    fresh: List[int]
    advance_ms: List[float]
    fanout_ms: List[float]
    last_update: List[float]
    counters: Dict[str, float]
    #: Updates the collector (not a parent agent) accepted.
    collector_updates: float
    payload_values_mean: float
    #: total_message_cost, tree_count, max_tree_depth of the plan.
    plan_facts: Tuple[float, int, int]
    problems: List[str]
    periods: int


def _make_transport(kind: CollectKind, probe: Optional[TransportProbe]) -> Any:
    traced = probe is not None
    if kind.wire:
        endpoint = allocate_endpoints(1)[0]
        cls = _TracedTcp if traced else _StampedTcp
        transport = cls(
            PeerDirectory(default=endpoint),
            listen_host=endpoint.host,
            listen_port=endpoint.port,
            force_wire=True,
        )
    else:
        transport = (_TracedInProcess if traced else _StampedInProcess)()
    transport.stamps = Stamps()
    if traced:
        transport.probe = probe
    return transport


def run_segment(
    kind: CollectKind,
    planned: Tuple[Any, Any, int],
    periods: int,
    probe: Optional[TransportProbe] = None,
) -> Segment:
    plan, cluster, sub = planned
    registry = PeriodRegistry(sorted(plan.pairs), seed=sub)
    transport = _make_transport(kind, probe)
    runtime = MonitoringRuntime(
        plan,
        cluster,
        registry=registry,
        config=RuntimeConfig(
            period_seconds=kind.period_seconds,
            child_wait_fraction=CHILD_WAIT_FRACTION,
            seed=sub,
        ),
        transport=transport,
    )
    registry.collectors = list(runtime.collectors.values())
    asyncio.run(runtime.run_async(periods))
    registry.inspect_closed_period()  # the last period has no successor to do it
    stamps = transport.stamps
    # The last period's CPU window would run into teardown: leave it out.
    measured = range(WARMUP_PERIODS, periods - 1)
    problems: List[str] = []
    requested = len(plan.pairs)
    for period in measured:
        if period not in stamps.last_update or period not in stamps.first_tick:
            problems.append(f"period {period}: no update reached the collector")
        scored = runtime.samples[period].fresh_fraction * requested
        if abs(scored - registry.fresh[period]) > 0.5:
            problems.append(
                f"period {period}: collector scored {scored:.1f} fresh pairs, "
                f"benchmark counted {registry.fresh[period]}"
            )
    if registry.wrong_values:
        problems.append(f"{registry.wrong_values} readings differ from ground truth")
    metrics = runtime.metrics
    sent = metrics.counter(names.MESSAGES_SENT)
    accounted = (
        metrics.counter(names.MESSAGES_DELIVERED)
        + metrics.counter(names.MESSAGES_DROPPED_CAPACITY)
        + metrics.counter(names.MESSAGES_DROPPED_FAILURE)
    )
    if sent != accounted:  # noqa: REMO401 -- integer-valued counters
        problems.append(f"messages sent {sent:.0f} != delivered + dropped {accounted:.0f}")
    marks = registry.marks
    usable = [p for p in measured if p in stamps.last_update and p in stamps.first_tick]
    payload = metrics.histogram(names.PAYLOAD_VALUES)
    return Segment(
        promised=plan.collected_pair_count(),
        waves_ms=[(stamps.last_update[p] - stamps.first_tick[p]) * 1000.0 for p in usable],
        cpu_ms=[(marks[p + 1][0] - marks[p][1]) * 1000.0 for p in usable],
        fresh=[registry.fresh[p] for p in usable],
        advance_ms=[(marks[p][3] - marks[p][2]) * 1000.0 for p in usable],
        fanout_ms=[(stamps.last_tick[p] - stamps.first_tick[p]) * 1000.0 for p in usable],
        last_update=[stamps.last_update[p] for p in usable],
        counters=metrics.counters(),
        collector_updates=metrics.registry.counter(names.MESSAGES_DELIVERED),
        payload_values_mean=payload.mean if payload.count else 0.0,
        plan_facts=(plan.total_message_cost(), plan.tree_count(), plan.max_tree_depth()),
        problems=problems,
        periods=periods,
    )


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
class CollectWorkload:
    def __init__(self, name: str) -> None:
        self.kind = KINDS[name]
        #: (generator seed of the plan, seed of its signals) per plan.
        self.seeds: List[Tuple[int, int]] = []
        #: Plans made so far, by panel index (the first in set-up, the
        #: rest between segments, untimed).
        self.plans: Dict[int, Tuple[Any, Any, int]] = {}
        #: Periods per segment (one plan, one pass).
        self.periods = 0

    @staticmethod
    def _plan(seeds: Tuple[int, int]) -> Tuple[Any, Any, int]:
        generator_seed, signal_seed = seeds
        cluster, cost, tasks = sampled_workload(seed=generator_seed)
        return RemoPlanner(cost).plan(tasks, cluster), cluster, signal_seed

    def setup(self, seed: int, seconds: float, traced: bool) -> None:
        plans = max(1, min(PLANS, round(seconds / SECONDS_PER_PLAN)))
        self.periods = max(
            WARMUP_PERIODS + 3, int(seconds / (plans * PASSES) / self.kind.period_seconds)
        )
        # Both kinds run the same plans on the same signals, so their
        # numbers differ by the wire alone.
        self.seeds = list(zip(range(1, plans + 1), sub_seeds("collect", seed, plans)))
        # Later segments' plans are made between segments, untimed:
        # set-up is what stands before the first timed period.
        self.plans = {0: self._plan(self.seeds[0])}

    def _run_panel(self, outcome: Outcome, probe: Optional[TransportProbe]) -> List[Segment]:
        """One pass: every plan of the panel, one segment each."""
        done = []
        for index, seeds in enumerate(self.seeds):
            if index not in self.plans:
                self.plans[index] = self._plan(seeds)
            segment = run_segment(self.kind, self.plans[index], self.periods, probe)
            done.append(segment)
            measured = len(segment.fresh)
            outcome.attempted += segment.promised * measured
            outcome.failed += sum(max(0, segment.promised - fresh) for fresh in segment.fresh)
            for problem in segment.problems:
                outcome.check(False, f"segment {index}: {problem}")
        return done

    def measure(self) -> Outcome:
        outcome = Outcome()
        passes = [self._run_panel(outcome, None) for _ in range(PASSES)]
        segments = [segment for panel in passes for segment in panel]

        def per_cpu_s(segment: Segment) -> float:
            return median(
                [ratio(fresh, cpu / 1000.0) for fresh, cpu in zip(segment.fresh, segment.cpu_ms)]
            )

        # One row per plan: the plan's segment in every pass.
        by_plan = list(zip(*passes))
        outcome.end_to_end = {
            "op_ms": mean([min(median(s.waves_ms) for s in plan) for plan in by_plan]),
            "work_per_cpu_s": mean([max(per_cpu_s(s) for s in plan) for plan in by_plan]),
            "delivered_fraction": ratio(
                sum(sum(s.fresh) for s in segments),
                sum(s.promised * len(s.fresh) for s in segments),
            ),
        }
        outcome.samples = dict.fromkeys(
            ("op_ms", "work_per_cpu_s"), min(len(s.waves_ms) for s in segments)
        )
        outcome.info = {
            "plans": len(by_plan),
            "passes": PASSES,
            "periods_per_segment": self.periods,
            "period_seconds": self.kind.period_seconds,
            "cpu_ms_per_period_p50": median([c for s in segments for c in s.cpu_ms]),
        }
        return outcome

    # ------------------------------------------------------------------
    def measure_traced(self) -> Outcome:
        outcome = Outcome()
        # One pass untraced first: the overhead ratio needs CPU per
        # period from the same process and plans without the wrappers.
        plain = self._run_panel(Outcome(), None)
        probe = TransportProbe()
        rec = Recorder()
        patcher = Patcher()
        # encode_frame is patched where the TCP transport imported it.
        patcher.wrap(tcp_module, "encode_frame", lambda fn: rec.wrap_leaf(CODEC_ENCODE, fn))
        patcher.wrap(
            codec_module.FrameDecoder, "feed", lambda fn: rec.wrap_leaf(CODEC_DECODE, fn)
        )
        patcher.wrap(CollectorAgent, "close_period", lambda fn: rec.wrap_span(SPAN_CLOSE, fn))
        try:
            segments = self._run_panel(outcome, probe)
        finally:
            patcher.undo()
        counters: Dict[str, float] = {}
        for segment in segments:
            for name, value in segment.counters.items():
                counters[name] = counters.get(name, 0.0) + value
        total_periods = sum(s.periods for s in segments)
        fresh_total = sum(sum(s.fresh) for s in segments)
        measured_share = ratio(sum(len(s.fresh) for s in segments), total_periods)
        cpu = [c for s in segments for c in s.cpu_ms]
        updates = counters.get(names.MESSAGES_SENT, 0.0)
        frames, encode_s, _ = rec.leaf(CODEC_ENCODE)
        _feeds, decode_s, _ = rec.leaf(CODEC_DECODE)
        wire_bytes = counters.get(names.NET_BYTES_SENT, 0.0)
        outcome.per_layer = {
            "core.plan.traffic_per_period": median([s.plan_facts[0] for s in segments]),
            "core.plan.trees": median([s.plan_facts[1] for s in segments]),
            "core.plan.max_depth": max(s.plan_facts[2] for s in segments),
            "cluster.metrics.advance_ms": median([a for s in segments for a in s.advance_ms]),
            "runtime.engine.cpu_ms_per_period": median(cpu),
            "runtime.engine.tick_fanout_ms": median([f for s in segments for f in s.fanout_ms]),
            "runtime.engine.close_lag_ms": median(_close_lags_ms(rec, segments)),
            "runtime.engine.wave_p90_ms": percentile([w for s in segments for w in s.waves_ms], 0.9),
            "runtime.agent.updates_per_period": ratio(updates, total_periods),
            "runtime.agent.heartbeats_per_period": ratio(
                counters.get(names.HEARTBEATS_SENT, 0.0), total_periods
            ),
            "runtime.agent.values_per_update": ratio(
                sum(s.payload_values_mean * s.counters.get(names.MESSAGES_SENT, 0.0) for s in segments),
                updates,
            ),
            "runtime.agent.child_wait_timeouts": counters.get(names.CHILD_WAIT_TIMEOUTS, 0.0),
            "runtime.agent.values_trimmed": counters.get(names.VALUES_TRIMMED, 0.0),
            "runtime.transport.send_calls": probe.send_calls,
            "runtime.transport.send_busy_s": probe.send_busy_s,
            "runtime.transport.queue_wait_p50_ms": median(probe.queue_wait_s) * 1000.0,
            "runtime.transport.inbox_depth_max": probe.inbox_depth_max,
            "runtime.collector.close_period_ms": median(rec.durations(SPAN_CLOSE)) * 1000.0,
            "runtime.collector.updates_delivered": sum(s.collector_updates for s in segments),
            "runtime.collector.dropped_capacity": counters.get(
                names.MESSAGES_DROPPED_CAPACITY, 0.0
            ),
            "net.codec.encode_s": encode_s,
            "net.codec.decode_s": decode_s,
            "net.codec.frames": frames,
            "net.codec.bytes_per_frame": ratio(wire_bytes, frames),
            "net.codec.bytes_per_fresh_pair": ratio(wire_bytes * measured_share, fresh_total),
            "net.codec.codec": codec_module.default_codec() if self.kind.wire else 0,
            "net.tcp.wire_p50_ms": (median(probe.wire_s) * 1000.0) if self.kind.wire else 0.0,
            "net.tcp.frames_sent": counters.get(names.NET_FRAMES_SENT, 0.0),
            "net.tcp.reconnects": counters.get(names.NET_RECONNECTS, 0.0),
            "net.tcp.frames_dropped": counters.get(names.NET_FRAMES_DROPPED, 0.0),
            "bench.trace_overhead_ratio": ratio(
                median(cpu), median([c for s in plain for c in s.cpu_ms])
            ),
        }
        outcome.check(
            (frames > 0) == self.kind.wire,
            f"{frames} frames encoded on a {'wire' if self.kind.wire else 'wireless'} transport",
        )
        # The waves were stamped by the transport, not wrapped: add them
        # to the trace as finished spans, one trace id per period.
        for index, segment in enumerate(segments):
            for offset, (wave_ms, end) in enumerate(zip(segment.waves_ms, segment.last_update)):
                rec.add(
                    "runtime.engine.wave",
                    end - wave_ms / 1000.0,
                    end,
                    trace_id=f"{index}:{offset + WARMUP_PERIODS}",
                )
        rec.leaves["runtime.transport.send"] = [probe.send_calls, probe.send_busy_s, 0]
        outcome.per_layer["bench.trace_spans"] = len(rec.spans)
        rec.dump(
            results_path(f"trace-{self.kind.name}.json"),
            workload=self.kind.name,
            trace_id="segment:period (waves)",
            network="loopback, not a real link" if self.kind.wire else "none (in-process)",
        )
        return outcome

    def teardown(self) -> None:
        self.plans = {}


def _close_lags_ms(rec: Recorder, segments: List[Segment]) -> List[float]:
    """Per period: the collector's last delivery to the moment the
    engine starts scoring it (the sleep + settle in between)."""
    starts = sorted(record[1] for record in rec.spans if record[0] == SPAN_CLOSE)
    lags = []
    cursor = 0
    for delivered in sorted(t for s in segments for t in s.last_update):
        while cursor < len(starts) and starts[cursor] < delivered:
            cursor += 1
        if cursor < len(starts):
            lags.append((starts[cursor] - delivered) * 1000.0)
    return lags

"""The one manifest of metric, span, log-event and lane names.

Every counter, gauge, histogram, span, structured-log event and trace
lane the planner, adaptive service, simulator, and live runtime emit is
declared here -- instrumentation sites pass ``names.<CONSTANT>`` instead
of repeating string literals, so a typo'd series name is an
``AttributeError`` instead of a silent dead series that dashboards
quietly stop seeing.  ``tests/test_source_conventions.py`` holds every
instrumentation call in ``src/repro`` and ``benchmarks/`` to that.

A constant's prefix says what it names: ``SPAN_`` / ``EVENT_`` a span
or instant event, ``LOG_`` a structured-log event, ``LANE_`` a trace
lane; unprefixed constants are metric names.

Naming conventions for the values:

- counters owned by the runtime are bare nouns (``messages_sent``);
  the simulator mirrors them under a ``sim_`` prefix so one registry
  can hold both engines' tallies without collision;
- planner/adaptation counters end in ``_total`` (Prometheus idiom for
  monotonic series shared across components);
- span names are ``actor.action`` (``agent.wave``,
  ``collector.close_period``);
- lanes name the logical actor row trace viewers draw; per-instance
  lanes (one per node agent) are derived from a declared prefix via
  :func:`node_lane`.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Metric names -- runtime agents and collector
# ---------------------------------------------------------------------------
MESSAGES_SENT = "messages_sent"
MESSAGES_DELIVERED = "messages_delivered"
MESSAGES_DROPPED_CAPACITY = "messages_dropped_capacity"
MESSAGES_DROPPED_FAILURE = "messages_dropped_failure"
# An update for a tree, from a sender, or naming slots the plan does
# not give the receiver: refused before any budget is charged.
MESSAGES_DROPPED_INVALID = "messages_dropped_invalid"
COST_UNITS_SPENT = "cost_units_spent"
HEARTBEATS_SENT = "heartbeats_sent"
CHILD_WAIT_TIMEOUTS = "child_wait_timeouts"
VALUES_TRIMMED = "values_trimmed"
AGENT_DOWN_PERIODS = "agent_down_periods"
FAILURE_DETECTIONS = "failure_detections"
FAILURE_RECOVERIES = "failure_recoveries"

# Transport-layer counters (every Transport implementation reports
# through these, so in-process and TCP runs share one health row).
TRANSPORT_ENVELOPES_SENT = "transport_envelopes_sent"
TRANSPORT_ENVELOPES_DELIVERED = "transport_envelopes_delivered"

# Deployment supervisor counters (``repro deploy``).
DEPLOY_WORKER_RESTARTS = "deploy_worker_restarts"

# Observability self-accounting: spans discarded once a bounded
# Tracer hits its cap (soak runs must not OOM the tracer).
TRACE_SPANS_DROPPED = "trace_spans_dropped"

# Wire-level counters (repro.net only; zero on the in-process path).
NET_FRAMES_SENT = "net_frames_sent"
NET_FRAMES_RECEIVED = "net_frames_received"
NET_FRAMES_DROPPED = "net_frames_dropped"
NET_BYTES_SENT = "net_bytes_sent"
NET_BYTES_RECEIVED = "net_bytes_received"
NET_RECONNECTS = "net_reconnects"

# Runtime histograms.
COLLECTION_LATENCY_S = "collection_latency_s"
STALENESS_PERIODS = "staleness_periods"
PERIOD_COVERAGE = "period_coverage"
PAYLOAD_VALUES = "payload_values"
NET_DIAL_LATENCY_S = "net_dial_latency_s"

# Planner search counters (PlanningStats reads the same names back).
PLANNER_ITERATIONS_TOTAL = "planner_iterations_total"
PLANNER_CANDIDATES_RANKED_TOTAL = "planner_candidates_ranked_total"
PLANNER_CANDIDATES_EVALUATED_TOTAL = "planner_candidates_evaluated_total"
PLANNER_MEMO_HITS_TOTAL = "planner_memo_hits_total"
PLANNER_MEMO_MISSES_TOTAL = "planner_memo_misses_total"

# Planner phase histogram: wall seconds per phase (labels:
# phase=partition|tree_construction|adjustment).  The adjusting
# procedure interleaves with tree construction; each build reports the
# two exclusive of each other, so the phases add up.
PLANNER_PHASE_SECONDS = "planner_phase_seconds"

# Adaptive-service counters.
ADAPTATION_OPS_APPLIED_TOTAL = "adaptation_ops_applied_total"
ADAPTATION_OPS_THROTTLED_TOTAL = "adaptation_ops_throttled_total"
ADAPTATION_MESSAGES_TOTAL = "adaptation_messages_total"

# Control-plane service counters/histograms (``repro serve``).
SERVE_REQUESTS_TOTAL = "serve_requests_total"
SERVE_ERRORS_TOTAL = "serve_errors_total"
SERVE_CONNECTIONS_TOTAL = "serve_connections_total"
SERVE_REQUEST_SECONDS = "serve_request_seconds"
CONTROLPLANE_TASK_OPS_TOTAL = "controlplane_task_ops_total"
CONTROLPLANE_ADAPTATIONS_TOTAL = "controlplane_adaptations_total"
CONTROLPLANE_RUNS_TOTAL = "controlplane_runs_total"
CONTROLPLANE_REPLAN_SECONDS = "controlplane_replan_seconds"

# Control-plane gauges (current state, not monotonic).
CONTROLPLANE_TENANTS = "controlplane_tenants"
CONTROLPLANE_TASKS = "controlplane_tasks"
CONTROLPLANE_PAIRS = "controlplane_pairs"
CONTROLPLANE_COLLECTOR_SHARDS = "controlplane_collector_shards"

# Simulator mirrors (deltas of CollectionStats, ``sim_`` prefixed).
SIM_MESSAGES_SENT = "sim_messages_sent"
SIM_MESSAGES_DELIVERED = "sim_messages_delivered"
SIM_MESSAGES_DROPPED_CAPACITY = "sim_messages_dropped_capacity"
SIM_MESSAGES_DROPPED_FAILURE = "sim_messages_dropped_failure"
SIM_VALUES_TRIMMED = "sim_values_trimmed"
SIM_COST_UNITS_SPENT = "sim_cost_units_spent"
SIM_PERIODS = "sim_periods"

# ---------------------------------------------------------------------------
# Span and instant-event names
# ---------------------------------------------------------------------------
SPAN_PLANNER_PLAN = "planner.plan"
SPAN_PLANNER_SEED_EVAL = "planner.seed_eval"
SPAN_PLANNER_EVALUATE_CANDIDATE = "planner.evaluate_candidate"
SPAN_PLANNER_FINAL_REBUILD = "planner.final_rebuild"
EVENT_PLANNER_ACCEPT = "planner.accept"
SPAN_PARTITION_MERGE_ITERATION = "partition.merge_iteration"

SPAN_ADAPTATION_APPLY_CHANGES = "adaptation.apply_changes"
SPAN_ADAPTATION_RESTRICTED_SEARCH = "adaptation.restricted_search"
EVENT_ADAPTATION_COST_BENEFIT = "adaptation.cost_benefit"

SPAN_SIMULATION_PERIOD = "simulation.period"

SPAN_RUNTIME_PERIOD = "runtime.period"
SPAN_RUNTIME_SETTLE = "runtime.settle"
SPAN_AGENT_WAVE = "agent.wave"
SPAN_AGENT_CHILD_WAIT = "agent.child_wait"
# Instant events marking an update's arrival, linked to the *sender's*
# wave span via the envelope's trace context -- the reverse-direction
# cross-process edge in a merged trace.
EVENT_AGENT_RECV = "agent.recv"
EVENT_COLLECTOR_RECV = "collector.recv"
SPAN_COLLECTOR_CLOSE_PERIOD = "collector.close_period"

SPAN_SERVE_REQUEST = "serve.request"
SPAN_CONTROLPLANE_ADAPT = "controlplane.adapt"
SPAN_CONTROLPLANE_RUN = "controlplane.run"

# ---------------------------------------------------------------------------
# Structured-log event names (``repro.obs.log``)
# ---------------------------------------------------------------------------
LOG_SERVE_READY = "serve.ready"
LOG_SERVE_STOPPED = "serve.stopped"
LOG_DEPLOY_WORKER_START = "deploy.worker_start"
LOG_DEPLOY_WORKER_EXIT = "deploy.worker_exit"
LOG_DEPLOY_WORKER_CRASH = "deploy.worker_crash"
LOG_DEPLOY_WORKER_RESTART = "deploy.worker_restart"
LOG_DEPLOY_CHAOS_KILL = "deploy.chaos_kill"
LOG_DEPLOY_CHECK_FAILED = "deploy.check_failed"
LOG_DEPLOY_GO_TIMEOUT = "deploy.go_timeout"
LOG_NET_RECONNECT = "net.reconnect"
LOG_NET_FRAME_DROPPED = "net.frame_dropped"
LOG_FLIGHT_DUMP = "obs.flight_dump"

# ---------------------------------------------------------------------------
# Trace lanes (logical actor rows in the Chrome-trace exporter)
# ---------------------------------------------------------------------------
LANE_PLANNER = "planner"
LANE_ADAPTATION = "adaptation"
LANE_SIMULATOR = "simulator"
LANE_ENGINE = "engine"
LANE_COLLECTOR = "collector"
LANE_TRANSPORT = "transport"
LANE_SERVE = "serve"
LANE_CONTROLPLANE = "controlplane"
LANE_DEPLOY = "deploy"

#: Prefix of the per-instance lanes built by the helper below.
NODE_LANE_PREFIX = "node-"


def node_lane(node_id: object) -> str:
    """The trace lane of one node agent (``node-<id>``)."""
    return f"{NODE_LANE_PREFIX}{node_id}"

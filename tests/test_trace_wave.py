"""The live wave's spans, pinned: what a traced run records, and that an
untraced one records nothing and stamps no envelope.

Quickstart periods on the virtual-time loop under ``trace.installed()``:
one ``agent.wave`` per role per period with its exact attributes, one
``agent.child_wait`` per interior role per period, every wave a child
of its period's ``runtime.period`` span, and every ``agent.recv`` /
``collector.recv`` a child of the sender's wave for that period -- the
span the update envelope's ``trace_ctx`` points at.
"""

from collections import Counter

import pytest

from repro.core.planner import RemoPlanner
from repro.obs import names, trace
from repro.runtime import MonitoringRuntime, RuntimeConfig
from repro.runtime.messages import UpdateEnvelope
from repro.runtime.transport import InProcessTransport
from repro.workloads.presets import quickstart_workload
from tests.test_simulation_overload import overloaded_setup
from tests.virtual_time import run_virtual

PERIODS = 4
#: Quickstart roles (one wave each per period) and interior roles (one
#: child wait each: on virtual time every tick beats the children).
QUICKSTART_WAVES, QUICKSTART_CHILD_WAITS = 157, 74


class _Recording(InProcessTransport):
    """Keeps every update envelope it sends."""

    def __init__(self):
        super().__init__()
        self.updates = []

    async def send(self, to, envelope):
        if isinstance(envelope, UpdateEnvelope):
            self.updates.append(envelope)
        return await super().send(to, envelope)


def _run(plan, cluster, periods):
    transport = _Recording()
    runtime = MonitoringRuntime(plan, cluster, config=RuntimeConfig(seed=1), transport=transport)
    run_virtual(runtime.run_async(periods))
    return runtime, transport.updates


@pytest.fixture(scope="module")
def quickstart():
    cluster, cost, tasks = quickstart_workload()
    return RemoPlanner(cost).plan(tasks, cluster), cluster


@pytest.fixture(scope="module")
def traced(quickstart):
    with trace.installed() as tracer:
        runtime, updates = _run(*quickstart, PERIODS)
    return runtime, updates, tracer.spans()


def _by_name(spans, name):
    return [s for s in spans if s.name == name]


def _waves(spans):
    """Wave spans keyed by (lane, tree, period)."""
    waves = {}
    for s in _by_name(spans, names.SPAN_AGENT_WAVE):
        key = (s.lane, s.attrs["tree"], s.attrs["period"])
        assert key not in waves, f"two waves for {key}"
        waves[key] = s
    return waves


def test_every_role_records_one_wave_a_period_with_its_attrs(traced):
    runtime, _, spans = traced
    per_period = Counter(s.attrs["period"] for s in _by_name(spans, names.SPAN_AGENT_WAVE))
    assert per_period == {p: QUICKSTART_WAVES for p in range(PERIODS)}
    waves = _waves(spans)
    expected = {}
    for node, agent in runtime.agents.items():
        for role in agent.roles:
            for period in range(PERIODS):
                # A feasible plan: every role sends its whole subtree.
                key = (names.node_lane(node), role.tree_id, period)
                expected[key] = {
                    "tree": role.tree_id, "period": period, "outcome": "sent", "values": role.size,
                }
    assert {key: s.attrs for key, s in waves.items()} == expected


def test_every_interior_role_records_one_child_wait_inside_its_wave(traced):
    runtime, _, spans = traced
    waits = _by_name(spans, names.SPAN_AGENT_CHILD_WAIT)
    per_period = Counter(s.attrs["period"] for s in waits)
    assert per_period == {p: QUICKSTART_CHILD_WAITS for p in range(PERIODS)}
    waves = _waves(spans)
    interior = {
        (names.node_lane(node), role.tree_id, period)
        for node, agent in runtime.agents.items()
        for role in agent.roles
        if role.children
        for period in range(PERIODS)
    }
    assert {(s.lane, s.attrs["tree"], s.attrs["period"]) for s in waits} == interior
    for s in waits:
        wave = waves[(s.lane, s.attrs["tree"], s.attrs["period"])]
        assert s.attrs == {"tree": wave.attrs["tree"], "period": wave.attrs["period"]}
        assert s.parent_id == wave.span_id and s.trace_id == wave.trace_id
        assert s.start == wave.start  # both run from the tick


def test_every_wave_is_a_child_of_its_period_span(traced):
    _, _, spans = traced
    periods = {s.attrs["period"]: s for s in _by_name(spans, names.SPAN_RUNTIME_PERIOD)}
    assert sorted(periods) == list(range(PERIODS))
    assert len({s.trace_id for s in periods.values()}) == PERIODS
    for wave in _waves(spans).values():
        root = periods[wave.attrs["period"]]
        assert wave.parent_id == root.span_id
        assert wave.trace_id == root.trace_id
        assert wave.duration >= 0.0


def test_receives_link_to_the_senders_wave_and_envelopes_point_at_it(traced):
    runtime, updates, spans = traced
    waves = _waves(spans)
    by_id = {s.span_id: s for s in waves.values()}
    tree_ids = {role.tree: role.tree_id for agent in runtime.agents.values() for role in agent.roles}
    # Every update names its sender's wave for that tree and period.
    assert len(updates) == QUICKSTART_WAVES * PERIODS
    for update in updates:
        wave = waves[(names.node_lane(update.sender), tree_ids[update.tree], update.period)]
        assert update.trace_ctx == trace.TraceContext(wave.trace_id, wave.span_id)
    recvs = _by_name(spans, names.EVENT_AGENT_RECV) + _by_name(spans, names.EVENT_COLLECTOR_RECV)
    # Every update is received once: by its parent agent or by the collector.
    assert len(recvs) == len(updates)
    assert len(_by_name(spans, names.EVENT_COLLECTOR_RECV)) == PERIODS * len(
        runtime.plan.trees
    )
    for event in recvs:
        wave = by_id[event.parent_id]
        assert wave.lane == names.node_lane(event.attrs["sender"])
        assert wave.attrs["period"] == event.attrs["period"]
        assert event.trace_id == wave.trace_id
        assert event.kind == "instant"


def test_an_overloaded_root_records_trimmed_and_shaped_out_waves():
    """``values`` is what a trimmed batch kept; a batch shaped out whole
    records ``offered`` instead."""
    for delta, outcomes in ((-2.0, {"sent"}), (-1e9, {"sent", "shaped_out"})):
        plan, cluster = overloaded_setup(root_budget_delta=delta)
        with trace.installed() as tracer:
            runtime, updates = _run(plan, cluster, 3)
        waves = _by_name(tracer.spans(), names.SPAN_AGENT_WAVE)
        assert {s.attrs["outcome"] for s in waves} == outcomes
        roots = {
            (names.node_lane(node), role.tree_id): role
            for node, agent in runtime.agents.items()
            for role in agent.roles
            if role.parent is None
        }
        for s in waves:
            root = roots.get((s.lane, s.attrs["tree"]))
            if root is None:
                continue
            if delta == -2.0:
                assert 0 < s.attrs["values"] < root.size
            else:
                # Too poor to take its children's batches: only its own
                # readings are offered, and it cannot send even those.
                assert s.attrs == {
                    "tree": root.tree_id, "period": s.attrs["period"],
                    "outcome": "shaped_out", "offered": len(root.local_pairs),
                }
        assert all(u.trace_ctx is not None for u in updates)


def test_untraced_run_records_no_span_and_stamps_no_envelope(quickstart, monkeypatch):
    made = []

    def no_span(*args, **kwargs):
        made.append(args)
        raise AssertionError("a span was recorded with tracing off")

    monkeypatch.setattr(trace, "Span", no_span)
    assert trace.active_tracer() is None
    runtime, updates = _run(*quickstart, PERIODS)
    assert made == []
    assert len(updates) == QUICKSTART_WAVES * PERIODS
    assert all(u.trace_ctx is None for u in updates)
    assert len(runtime.samples) == PERIODS

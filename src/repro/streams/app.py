"""A running stream application: dataflow + placement + live metrics.

:class:`StreamApp` owns the dataflow graph, the operator->node
placement, per-node OS-level gauges, and the per-tick rate
propagation.  :class:`StreamMetricRegistry` adapts the application's
live metric surface to the monitoring simulator's registry interface,
so the same discrete-event engine measures percentage error against
*application-generated* ground truth (the Fig. 8 setting).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.cluster.metrics import MetricRegistry
from repro.cluster.node import Cluster, SimNode
from repro.core.attributes import AttributeId, NodeAttributePair, NodeId
from repro.streams.dataflow import DataflowGraph
from repro.streams.operators import Operator, OperatorKind

#: OS-level gauges every node exposes alongside its operators' metrics.
OS_METRICS = ("os.cpu", "os.mem", "os.net_in", "os.net_out", "os.disk", "os.load")


class StreamApp:
    """A placed, running stream-processing application."""

    def __init__(
        self,
        graph: DataflowGraph,
        placement: Mapping[str, NodeId],
        seed: Optional[int] = None,
    ) -> None:
        graph.validate()
        missing = {op.op_id for op in graph} - set(placement)
        if missing:
            raise ValueError(f"operators without placement: {sorted(missing)[:5]}")
        self.graph = graph
        self.placement: Dict[str, NodeId] = dict(placement)
        self.rng = random.Random(seed)
        self._order = graph.topological_order()
        self._os_state: Dict[NodeId, Dict[str, float]] = {}
        for node in self.nodes():
            self._os_state[node] = {
                "os.cpu": 20.0,
                "os.mem": 40.0,
                "os.net_in": 0.0,
                "os.net_out": 0.0,
                "os.disk": 50.0,
                "os.load": 1.0,
            }
        # Prime dynamic state so metrics are meaningful before step().
        self.step()

    # ------------------------------------------------------------------
    def nodes(self) -> List[NodeId]:
        return sorted(set(self.placement.values()))

    def operators_on(self, node: NodeId) -> List[Operator]:
        return [
            self.graph.operator(op_id)
            for op_id, placed in self.placement.items()
            if placed == node
        ]

    def node_attributes(self, node: NodeId) -> List[AttributeId]:
        """All monitorable attribute names exposed by ``node``."""
        attrs: List[AttributeId] = list(OS_METRICS)
        for op in self.operators_on(node):
            attrs.extend(op.metric_names())
        return attrs

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the application by one unit of time."""
        rates_in: Dict[str, float] = {}
        for op in self._order:
            if op.kind is OperatorKind.SOURCE:
                rate = op.source_rate(self.rng)
            else:
                rate = sum(u.rate_out for u in self.graph.upstream_of(op.op_id))
            op.update(rate)
        self._update_os_metrics()

    def _update_os_metrics(self) -> None:
        for node, state in self._os_state.items():
            ops = self.operators_on(node)
            op_cpu = sum(op.cpu for op in ops)
            net_in = sum(op.rate_in for op in ops)
            net_out = sum(op.rate_out for op in ops)
            state["os.cpu"] = min(100.0, 5.0 + 95.0 * op_cpu / max(len(ops), 1)) * (
                1.0 + self.rng.uniform(-0.05, 0.05)
            )
            state["os.mem"] = min(
                100.0, 30.0 + 0.01 * sum(op.queue for op in ops)
            ) * (1.0 + self.rng.uniform(-0.02, 0.02))
            state["os.net_in"] = net_in
            state["os.net_out"] = net_out
            state["os.disk"] = max(
                0.0, state["os.disk"] + self.rng.uniform(-0.1, 0.12)
            )
            state["os.load"] = max(0.0, op_cpu + self.rng.uniform(-0.1, 0.1))

    # ------------------------------------------------------------------
    def metric_value(self, node: NodeId, attribute: AttributeId) -> float:
        """Current value of ``attribute`` at ``node``."""
        if attribute.startswith("os."):
            return self._os_state[node][attribute]
        op_id, _, metric = attribute.rpartition(".")
        op = self.graph.operator(op_id)
        if self.placement[op_id] != node:
            raise KeyError(f"operator {op_id!r} is not placed on node {node}")
        return op.metric(metric)

    def observes(self, node: NodeId, attribute: AttributeId) -> bool:
        if attribute.startswith("os."):
            return node in self._os_state
        op_id, _, metric = attribute.rpartition(".")
        return (
            op_id in self.graph
            and self.placement.get(op_id) == node
            and metric in ("rate_in", "rate_out", "queue", "cpu")
        )


class StreamMetricRegistry(MetricRegistry):
    """Registry view over a live :class:`StreamApp`.

    ``advance_all`` steps the application; ``value`` and ``reader``
    read the current operator/OS metric -- neither engine needs special
    casing.
    """

    def __init__(self, app: StreamApp) -> None:
        # State lives in the app; deliberately skip the base initializer.
        self._app = app

    def __len__(self) -> int:
        return sum(len(self._app.node_attributes(n)) for n in self._app.nodes())

    def __contains__(self, pair: NodeAttributePair) -> bool:
        return self._app.observes(pair.node, pair.attribute)

    def pairs(self):
        for node in self._app.nodes():
            for attr in self._app.node_attributes(node):
                yield NodeAttributePair(node, attr)

    def value(self, pair: NodeAttributePair) -> float:
        return self._app.metric_value(pair.node, pair.attribute)

    def reader(self, pairs: Sequence[NodeAttributePair]) -> Callable[[], List[float]]:
        metric_value = self._app.metric_value
        bound = [(pair.node, pair.attribute) for pair in pairs]
        return lambda: [metric_value(node, attribute) for node, attribute in bound]

    def advance_all(self) -> None:
        self._app.step()

    def ensure(self, pair: NodeAttributePair, factory=None) -> None:
        if not self._app.observes(pair.node, pair.attribute):
            raise KeyError(f"application does not expose {pair}")


def build_stream_cluster(
    app: StreamApp,
    capacity: float,
    central_capacity: Optional[float] = None,
) -> Cluster:
    """A monitoring cluster whose nodes expose the app's attributes."""
    nodes = [
        SimNode(
            node_id=node,
            capacity=capacity,
            attributes=frozenset(app.node_attributes(node)),
        )
        for node in app.nodes()
    ]
    return Cluster(
        nodes,
        central_capacity=central_capacity if central_capacity is not None else 8.0 * capacity,
    )

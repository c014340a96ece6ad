"""Unit tests for the stream-processing substrate."""

import random

import pytest

from repro.core.attributes import NodeAttributePair
from repro.streams.app import OS_METRICS, StreamApp, StreamMetricRegistry, build_stream_cluster
from repro.streams.dataflow import DataflowGraph
from repro.streams.operators import OPERATOR_METRICS, Operator, OperatorKind


def small_graph():
    graph = DataflowGraph()
    graph.add_operator(Operator("src", OperatorKind.SOURCE))
    graph.add_operator(Operator("parse", OperatorKind.FUNCTOR, selectivity=0.8))
    graph.add_operator(Operator("agg", OperatorKind.AGGREGATE, selectivity=0.1))
    graph.add_operator(Operator("sink", OperatorKind.SINK))
    graph.connect("src", "parse")
    graph.connect("parse", "agg")
    graph.connect("agg", "sink")
    return graph


class TestOperator:
    def test_metrics_exposed(self):
        op = Operator("x", OperatorKind.FUNCTOR)
        assert op.metric_names() == [f"x.{m}" for m in OPERATOR_METRICS]

    def test_update_propagates_selectivity(self):
        op = Operator("x", OperatorKind.FUNCTOR, selectivity=0.5, service_rate=1000.0)
        op.update(100.0)
        assert op.rate_out == pytest.approx(50.0)
        assert op.queue == pytest.approx(0.0)

    def test_overload_grows_queue(self):
        op = Operator("x", OperatorKind.FUNCTOR, service_rate=50.0)
        op.update(100.0)
        assert op.queue == pytest.approx(50.0)
        assert op.cpu == pytest.approx(1.0)

    def test_sink_emits_nothing(self):
        op = Operator("x", OperatorKind.SINK)
        op.update(10.0)
        assert op.rate_out == 0.0

    def test_source_rate_requires_source(self):
        with pytest.raises(ValueError):
            Operator("x", OperatorKind.FUNCTOR).source_rate(random.Random(1))

    def test_metric_lookup(self):
        op = Operator("x", OperatorKind.FUNCTOR)
        op.update(10.0)
        assert op.metric("rate_in") == pytest.approx(10.0)
        with pytest.raises(KeyError):
            op.metric("bogus")

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Operator("x", OperatorKind.FUNCTOR, selectivity=-1.0)
        with pytest.raises(ValueError):
            Operator("x", OperatorKind.FUNCTOR, service_rate=0.0)


class TestDataflowGraph:
    def test_topological_order_respects_edges(self):
        graph = small_graph()
        order = [op.op_id for op in graph.topological_order()]
        assert order.index("src") < order.index("parse") < order.index("agg")

    def test_cycle_rejected(self):
        graph = DataflowGraph()
        graph.add_operator(Operator("a", OperatorKind.FUNCTOR))
        graph.add_operator(Operator("b", OperatorKind.FUNCTOR))
        graph.connect("a", "b")
        with pytest.raises(ValueError):
            graph.connect("b", "a")

    def test_duplicate_operator_rejected(self):
        graph = DataflowGraph()
        graph.add_operator(Operator("a", OperatorKind.SOURCE))
        with pytest.raises(ValueError):
            graph.add_operator(Operator("a", OperatorKind.SOURCE))

    def test_sink_cannot_produce(self):
        graph = DataflowGraph()
        graph.add_operator(Operator("s", OperatorKind.SINK))
        graph.add_operator(Operator("f", OperatorKind.FUNCTOR))
        with pytest.raises(ValueError):
            graph.connect("s", "f")

    def test_source_cannot_consume(self):
        graph = DataflowGraph()
        graph.add_operator(Operator("src", OperatorKind.SOURCE))
        graph.add_operator(Operator("f", OperatorKind.FUNCTOR))
        with pytest.raises(ValueError):
            graph.connect("f", "src")

    def test_validate_flags_disconnected(self):
        graph = DataflowGraph()
        graph.add_operator(Operator("orphan", OperatorKind.FUNCTOR))
        with pytest.raises(ValueError):
            graph.validate()

    def test_sources_and_sinks(self):
        graph = small_graph()
        assert [op.op_id for op in graph.sources()] == ["src"]
        assert graph.topological_order()[-1].op_id == "sink"


class TestStreamApp:
    def make_app(self):
        graph = small_graph()
        placement = {"src": 0, "parse": 0, "agg": 1, "sink": 1}
        return StreamApp(graph, placement, seed=7)

    def test_placement_required_for_all(self):
        graph = small_graph()
        with pytest.raises(ValueError):
            StreamApp(graph, {"src": 0}, seed=1)

    def test_node_attributes_include_os_and_operators(self):
        app = self.make_app()
        attrs = app.node_attributes(0)
        assert set(OS_METRICS) <= set(attrs)
        assert "src.rate_out" in attrs
        assert "agg.queue" not in attrs  # placed on node 1

    def test_step_moves_rates_downstream(self):
        app = self.make_app()
        for _ in range(5):
            app.step()
        parse = app.graph.operator("parse")
        assert parse.rate_in > 0

    def test_metric_value_and_observes(self):
        app = self.make_app()
        assert app.observes(0, "src.rate_out")
        assert not app.observes(1, "src.rate_out")
        assert isinstance(app.metric_value(0, "src.rate_out"), float)
        assert isinstance(app.metric_value(1, "os.cpu"), float)
        with pytest.raises(KeyError):
            app.metric_value(1, "src.rate_out")

    def test_registry_interface(self):
        app = self.make_app()
        registry = StreamMetricRegistry(app)
        pair = NodeAttributePair(0, "src.rate_out")
        assert pair in registry
        before = registry.value(pair)
        registry.advance_all()
        assert isinstance(registry.value(pair), float)
        registry.ensure(pair)
        with pytest.raises(KeyError):
            registry.ensure(NodeAttributePair(0, "agg.queue"))

    def test_build_stream_cluster(self):
        app = self.make_app()
        cluster = build_stream_cluster(app, capacity=100.0)
        assert len(cluster) == 2
        assert cluster.node(0).observes("src.rate_in")
        assert cluster.central_capacity == pytest.approx(800.0)

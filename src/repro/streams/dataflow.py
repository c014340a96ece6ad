"""Dataflow graphs of stream operators.

A thin, validated wrapper around a :mod:`networkx` DiGraph: vertices
are :class:`~repro.streams.operators.Operator` instances, edges are
stream connections.  The graph must be a DAG with sources at the top;
rate propagation walks it in topological order once per unit time.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

import networkx as nx

from repro.streams.operators import Operator, OperatorKind


class DataflowGraph:
    """A DAG of stream operators connected by data streams."""

    def __init__(self) -> None:
        self._graph = nx.DiGraph()
        self._operators: Dict[str, Operator] = {}

    # ------------------------------------------------------------------
    def add_operator(self, operator: Operator) -> Operator:
        if operator.op_id in self._operators:
            raise ValueError(f"duplicate operator id {operator.op_id!r}")
        self._operators[operator.op_id] = operator
        self._graph.add_node(operator.op_id)
        return operator

    def connect(self, upstream: str, downstream: str) -> None:
        """Add a stream from ``upstream`` to ``downstream``."""
        for op_id in (upstream, downstream):
            if op_id not in self._operators:
                raise ValueError(f"unknown operator {op_id!r}")
        if self._operators[upstream].kind is OperatorKind.SINK:
            raise ValueError(f"sink {upstream!r} cannot produce a stream")
        if self._operators[downstream].kind is OperatorKind.SOURCE:
            raise ValueError(f"source {downstream!r} cannot consume a stream")
        self._graph.add_edge(upstream, downstream)
        if not nx.is_directed_acyclic_graph(self._graph):
            self._graph.remove_edge(upstream, downstream)
            raise ValueError(
                f"edge {upstream!r} -> {downstream!r} would create a cycle"
            )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._operators)

    def __contains__(self, op_id: str) -> bool:
        return op_id in self._operators

    def __iter__(self) -> Iterator[Operator]:
        return iter(self._operators.values())

    def operator(self, op_id: str) -> Operator:
        return self._operators[op_id]

    def upstream_of(self, op_id: str) -> List[Operator]:
        return [self._operators[u] for u in self._graph.predecessors(op_id)]

    def sources(self) -> List[Operator]:
        return [op for op in self if op.kind is OperatorKind.SOURCE]

    def topological_order(self) -> List[Operator]:
        """Operators in a valid processing order."""
        return [self._operators[op_id] for op_id in nx.topological_sort(self._graph)]

    def validate(self) -> None:
        """Structural sanity: DAG, sources have no in-edges, every
        non-source has at least one upstream."""
        if not nx.is_directed_acyclic_graph(self._graph):
            raise ValueError("dataflow graph contains a cycle")
        for op in self:
            in_degree = self._graph.in_degree(op.op_id)
            if op.kind is OperatorKind.SOURCE and in_degree:
                raise ValueError(f"source {op.op_id!r} has incoming streams")
            if op.kind is not OperatorKind.SOURCE and in_degree == 0:
                raise ValueError(f"operator {op.op_id!r} is disconnected from sources")

"""Unit tests for monitoring tasks and the de-duplicating task manager."""

import pytest

from repro.core.attributes import NodeAttributePair
from repro.core.tasks import (
    DuplicateTaskError,
    MonitoringTask,
    TaskManager,
    UnknownTaskError,
)
from tests.conftest import manager_of


class TestMonitoringTask:
    def test_pairs_is_cross_product(self):
        task = MonitoringTask("t", ["a", "b"], [1, 2])
        assert task.pairs() == {
            NodeAttributePair(1, "a"),
            NodeAttributePair(1, "b"),
            NodeAttributePair(2, "a"),
            NodeAttributePair(2, "b"),
        }

    def test_size(self):
        assert MonitoringTask("t", ["a", "b"], [1, 2, 3]).size == 6

    def test_rejects_empty_attributes(self):
        with pytest.raises(ValueError):
            MonitoringTask("t", [], [1])

    def test_rejects_empty_nodes(self):
        with pytest.raises(ValueError):
            MonitoringTask("t", ["a"], [])

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            MonitoringTask("", ["a"], [1])

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            MonitoringTask("t", ["a"], [1], frequency=0.0)
        with pytest.raises(ValueError):
            MonitoringTask("t", ["a"], [1], frequency=1.5)


class TestTaskManagerDeduplication:
    def test_duplicate_pair_counted_once(self):
        """The paper's motivating example: cpu on node b shared by t1, t2."""
        manager = TaskManager()
        manager.add_task(MonitoringTask("t1", ["cpu"], ["a", "b"]))
        manager.add_task(MonitoringTask("t2", ["cpu"], ["b", "c"]))
        assert manager.pair_count() == 3
        manager.remove_task("t1")
        assert NodeAttributePair("b", "cpu") in manager.pairs()
        manager.remove_task("t2")
        assert NodeAttributePair("b", "cpu") not in manager.pairs()

    def test_add_reports_only_new_pairs(self):
        manager = TaskManager()
        manager.add_task(MonitoringTask("t1", ["cpu"], [1, 2]))
        delta = manager.add_task(MonitoringTask("t2", ["cpu"], [2, 3]))
        assert delta.added == frozenset({NodeAttributePair(3, "cpu")})
        assert delta.removed == frozenset()

    def test_remove_keeps_shared_pairs(self):
        manager = TaskManager()
        manager.add_task(MonitoringTask("t1", ["cpu"], [1, 2]))
        manager.add_task(MonitoringTask("t2", ["cpu"], [2, 3]))
        delta = manager.remove_task("t1")
        assert delta.removed == frozenset({NodeAttributePair(1, "cpu")})
        assert NodeAttributePair(2, "cpu") in manager.pairs()

    def test_modify_nets_out(self):
        manager = TaskManager()
        manager.add_task(MonitoringTask("t", ["a"], [1, 2]))
        delta = manager.modify_task(MonitoringTask("t", ["a"], [2, 3]))
        assert delta.added == frozenset({NodeAttributePair(3, "a")})
        assert delta.removed == frozenset({NodeAttributePair(1, "a")})

    def test_duplicate_id_rejected(self):
        manager = manager_of([MonitoringTask("t", ["a"], [1])])
        with pytest.raises(DuplicateTaskError):
            manager.add_task(MonitoringTask("t", ["b"], [2]))

    def test_unknown_id_rejected(self):
        with pytest.raises(UnknownTaskError):
            TaskManager().remove_task("nope")

    def test_len_and_contains(self):
        manager = manager_of([MonitoringTask("t", ["a"], [1])])
        assert len(manager) == 1
        assert "t" in manager
        assert "x" not in manager


class TestTaskManagerBatches:
    def test_batch_add_remove_cancels(self):
        manager = TaskManager()
        task = MonitoringTask("t", ["a"], [1])
        delta = manager.apply([("add", task), ("remove", task)])
        assert delta.added == delta.removed == frozenset()
        assert len(manager) == 0

    def test_batch_modify_sequence_nets(self):
        manager = manager_of([MonitoringTask("t", ["a"], [1])])
        delta = manager.apply(
            [
                ("modify", MonitoringTask("t", ["b"], [1])),
                ("modify", MonitoringTask("t", ["a"], [1])),
            ]
        )
        assert delta.added == delta.removed == frozenset()

    def test_batch_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            TaskManager().apply([("replace", MonitoringTask("t", ["a"], [1]))])

    def test_refcount_never_negative(self):
        manager = TaskManager()
        manager.add_task(MonitoringTask("t1", ["a"], [1]))
        manager.remove_task("t1")
        assert manager.pair_count() == 0
        delta = manager.add_task(MonitoringTask("t2", ["a"], [1]))
        assert delta.added == frozenset({NodeAttributePair(1, "a")})

"""Unit tests for monitoring tasks, the de-duplicating task manager and
its multi-tenant namespaces."""

import pytest

from repro.core.attributes import NodeAttributePair
from repro.core.tasks import (
    DuplicateTaskError,
    InvalidTenantError,
    MonitoringTask,
    MultiTenantTaskManager,
    TaskManager,
    UnknownTaskError,
    qualified_task_id,
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


class TestMultiTenantTaskManager:
    def _task(self, task_id="t", attrs=("a",), nodes=(1,)):
        return MonitoringTask(task_id, list(attrs), list(nodes))

    def test_duplicate_ids_scoped_per_tenant(self):
        manager = MultiTenantTaskManager()
        manager.add_task("alpha", self._task())
        # The same id under another tenant is fine...
        manager.add_task("beta", self._task())
        # ...but a duplicate within one tenant is rejected.
        with pytest.raises(DuplicateTaskError):
            manager.add_task("alpha", self._task())

    def test_global_delta_fires_on_first_and_last_tenant(self):
        manager = MultiTenantTaskManager()
        pair = NodeAttributePair(1, "a")
        first = manager.add_task("alpha", self._task())
        assert pair in first.added
        second = manager.add_task("beta", self._task())
        assert second.added == frozenset()  # already required by alpha
        gone = manager.remove_task("alpha", "t")
        assert gone.removed == frozenset()  # beta still wants it
        last = manager.remove_task("beta", "t")
        assert pair in last.removed
        assert manager.pair_count() == 0

    def test_pairs_union_and_counts(self):
        manager = MultiTenantTaskManager()
        manager.add_task("alpha", self._task("t1", ("a",), (1,)))
        manager.add_task("beta", self._task("t2", ("b",), (2,)))
        assert manager.pairs() == {
            NodeAttributePair(1, "a"),
            NodeAttributePair(2, "b"),
        }
        assert manager.task_count() == 2
        assert manager.tenants() == ["alpha", "beta"]

    def test_rejects_separator_in_names(self):
        manager = MultiTenantTaskManager()
        with pytest.raises(InvalidTenantError):
            manager.add_task("bad/tenant", self._task())
        with pytest.raises(InvalidTenantError):
            manager.add_task("alpha", self._task("bad/task"))
        with pytest.raises(InvalidTenantError):
            manager.add_task("", self._task())

    def test_unknown_lookups_raise_with_qualified_id(self):
        manager = MultiTenantTaskManager()
        with pytest.raises(UnknownTaskError):
            manager.get("ghost", "t")
        manager.add_task("alpha", self._task())
        with pytest.raises(UnknownTaskError):
            manager.remove_task("alpha", "missing")

    def test_qualified_task_id(self):
        assert qualified_task_id("alpha", "t1") == "alpha/t1"

"""Unit tests for synthetic task samplers and update streams."""

import pytest

from repro.workloads.tasks import TaskSampler
from repro.workloads.updates import TaskUpdateStream
from tests.conftest import manager_of


class TestTaskSampler:
    def test_sample_dimensions(self, medium_cluster):
        sampler = TaskSampler(medium_cluster, seed=1)
        task = sampler.sample("t", n_attributes=3, n_nodes=10)
        assert task is not None
        assert len(task.attributes) == 3
        assert 1 <= len(task.nodes) <= 10

    def test_sample_clips_unobserving_nodes(self, medium_cluster):
        sampler = TaskSampler(medium_cluster, seed=1)
        task = sampler.sample("t", 2, 20)
        for node in task.nodes:
            assert any(
                medium_cluster.node(node).observes(a) for a in task.attributes
            )

    def test_sample_many_count_and_ids(self, medium_cluster):
        sampler = TaskSampler(medium_cluster, seed=1)
        tasks = sampler.sample_many(12, (1, 3), (5, 15))
        assert len(tasks) == 12
        assert len({t.task_id for t in tasks}) == 12

    def test_sample_many_rejects_bad_ranges(self, medium_cluster):
        sampler = TaskSampler(medium_cluster, seed=1)
        with pytest.raises(ValueError):
            sampler.sample_many(3, (0, 2), (1, 5))
        with pytest.raises(ValueError):
            sampler.sample_many(0, (1, 2), (1, 5))

    def test_deterministic_by_seed(self, medium_cluster):
        t1 = TaskSampler(medium_cluster, seed=42).sample_many(5, (1, 3), (5, 10))
        t2 = TaskSampler(medium_cluster, seed=42).sample_many(5, (1, 3), (5, 10))
        for a, b in zip(t1, t2):
            assert a.attributes == b.attributes
            assert a.nodes == b.nodes

    def test_small_and_large_profiles(self, medium_cluster):
        n = len(medium_cluster)
        small = TaskSampler(medium_cluster, seed=1).sample_many(
            10, (1, 4), (5, 20), prefix="small"
        )
        large = TaskSampler(medium_cluster, seed=1).sample_many(
            10, (5, 15), (int(0.4 * n), int(0.9 * n)), prefix="large"
        )
        mean_small = sum(len(t.nodes) for t in small) / len(small)
        mean_large = sum(len(t.nodes) for t in large) / len(large)
        assert mean_large > mean_small


class TestUpdateStream:
    def test_batches_modify_existing_tasks(self, medium_cluster):
        tasks = TaskSampler(medium_cluster, seed=2).sample_many(
            20, (1, 4), (5, 20), prefix="small"
        )
        stream = TaskUpdateStream(medium_cluster, tasks, seed=3)
        batch = stream.next_batch()
        known = {t.task_id for t in tasks}
        for op, task in batch:
            assert op == "modify"
            assert task.task_id in known

    def test_batches_apply_cleanly_to_manager(self, medium_cluster):
        tasks = TaskSampler(medium_cluster, seed=2).sample_many(
            20, (1, 4), (5, 20), prefix="small"
        )
        manager = manager_of(tasks)
        stream = TaskUpdateStream(medium_cluster, tasks, seed=3)
        for _ in range(5):
            delta = manager.apply(stream.next_batch())
            # Replacing attributes must change the pair set eventually.
        assert len(manager) == 20

    def test_attr_replacement_fraction(self, medium_cluster):
        tasks = TaskSampler(medium_cluster, seed=2).sample_many(
            10, (4, 4), (5, 20), prefix="small"
        )
        stream = TaskUpdateStream(
            medium_cluster, tasks, node_fraction=1.0, attr_fraction=0.5, seed=3
        )
        batch = dict((t.task_id, t) for _op, t in stream.next_batch())
        originals = {t.task_id: t for t in tasks}
        for tid, new in batch.items():
            old = originals[tid]
            kept = len(old.attributes & new.attributes)
            assert kept <= len(old.attributes) - 1  # something replaced

    def test_rejects_bad_fractions(self, medium_cluster):
        tasks = TaskSampler(medium_cluster, seed=2).sample_many(
            5, (1, 4), (5, 20), prefix="small"
        )
        with pytest.raises(ValueError):
            TaskUpdateStream(medium_cluster, tasks, node_fraction=0.0)
        with pytest.raises(ValueError):
            TaskUpdateStream(medium_cluster, tasks, attr_fraction=2.0)

    def test_rejects_empty_tasks(self, medium_cluster):
        with pytest.raises(ValueError):
            TaskUpdateStream(medium_cluster, [])

"""Monitoring tasks and the task manager.

A monitoring task ``t = (A_t, N_t)`` (Definition 1) periodically
collects the values of every attribute in ``A_t`` from every node in
``N_t``.  Different tasks routinely overlap -- e.g. two tasks both
collecting ``cpu`` from node ``b`` -- and sending the same value twice
is pure waste, so the *task manager* (Section 2.2) flattens the live
task set into a de-duplicated list of node-attribute pairs before any
topology planning happens.

The task manager is also the mutation point for the runtime-adaptation
machinery (Section 4): adding, removing, or modifying a task yields a
:class:`TaskSetDelta` describing exactly which node-attribute pairs
became newly required or are no longer required by *any* task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.attributes import AttributeId, NodeAttributePair, NodeId


@dataclass(frozen=True)
class MonitoringTask:
    """An application state monitoring task (Definition 1).

    Parameters
    ----------
    task_id:
        User-assigned unique identifier.
    attributes:
        The attribute types ``A_t`` to collect.
    nodes:
        The nodes ``N_t`` to collect them from.
    frequency:
        Collection frequency relative to the system's base collection
        period (1.0 = every period).  Values in ``(0, 1]``; used by the
        heterogeneous-update-frequency extension (Section 6.3).
    """

    task_id: str
    attributes: FrozenSet[AttributeId]
    nodes: FrozenSet[NodeId]
    frequency: float = 1.0
    #: :meth:`pairs`' expansion, built on its first call.
    _pairs: Optional[FrozenSet[NodeAttributePair]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __init__(
        self,
        task_id: str,
        attributes: Iterable[AttributeId],
        nodes: Iterable[NodeId],
        frequency: float = 1.0,
    ) -> None:
        object.__setattr__(self, "task_id", task_id)
        object.__setattr__(self, "attributes", frozenset(attributes))
        object.__setattr__(self, "nodes", frozenset(nodes))
        object.__setattr__(self, "frequency", frequency)
        if not self.task_id:
            raise ValueError("task_id must be a non-empty string")
        if not self.attributes:
            raise ValueError(f"task {task_id!r} must monitor at least one attribute")
        if not self.nodes:
            raise ValueError(f"task {task_id!r} must monitor at least one node")
        if not 0.0 < self.frequency <= 1.0:
            raise ValueError(
                f"task {task_id!r} frequency must be in (0, 1], got {frequency}"
            )

    def pairs(self) -> FrozenSet[NodeAttributePair]:
        """Expand the task into its node-attribute pair list.

        The task is immutable, so the expansion is built once and the
        same set is returned on every call.
        """
        pairs = self._pairs
        if pairs is None:
            pairs = frozenset(
                NodeAttributePair(n, a) for n in self.nodes for a in self.attributes
            )
            object.__setattr__(self, "_pairs", pairs)
        return pairs

    @property
    def size(self) -> int:
        """Number of node-attribute pairs the task requests."""
        return len(self.attributes) * len(self.nodes)


@dataclass(frozen=True)
class TaskSetDelta:
    """The pair-level effect of one task-set mutation.

    ``added`` holds pairs that were not required by any task before the
    mutation and are required now; ``removed`` holds pairs no longer
    required by any task.  Pairs that stay covered by some other task
    appear in neither set -- exactly the de-duplication semantics the
    adaptation planner needs.
    """

    added: FrozenSet[NodeAttributePair]
    removed: FrozenSet[NodeAttributePair]


def _acquire(
    counts: Dict[NodeAttributePair, int], pairs: Iterable[NodeAttributePair]
) -> FrozenSet[NodeAttributePair]:
    """Count one more holder of each pair; return the pairs new to ``counts``."""
    added: Set[NodeAttributePair] = set()
    for pair in pairs:
        held = counts.get(pair, 0)
        if not held:
            added.add(pair)
        counts[pair] = held + 1
    return frozenset(added)


def _release(
    counts: Dict[NodeAttributePair, int], pairs: Iterable[NodeAttributePair]
) -> FrozenSet[NodeAttributePair]:
    """Count one holder fewer of each pair; return the pairs now unheld."""
    removed: Set[NodeAttributePair] = set()
    for pair in pairs:
        held = counts[pair] - 1
        if held:
            counts[pair] = held
        else:
            del counts[pair]
            removed.add(pair)
    return frozenset(removed)


class DuplicateTaskError(ValueError):
    """Raised when adding a task whose id is already registered."""


class UnknownTaskError(KeyError):
    """Raised when removing or modifying a task id that is not registered."""


class TaskManager:
    """Registry of live monitoring tasks with pair-level de-duplication.

    The manager maintains a reference count per node-attribute pair so
    that the de-duplicated pair set -- the planner's input -- can be
    kept incrementally and every mutation reports an exact
    :class:`TaskSetDelta`.
    """

    def __init__(self) -> None:
        self._tasks: Dict[str, MonitoringTask] = {}
        self._refcount: Dict[NodeAttributePair, int] = {}

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def __iter__(self) -> Iterator[MonitoringTask]:
        return iter(self._tasks.values())

    def get(self, task_id: str) -> MonitoringTask:
        """Return the registered task with ``task_id``."""
        try:
            return self._tasks[task_id]
        except KeyError:
            raise UnknownTaskError(task_id) from None

    @property
    def tasks(self) -> List[MonitoringTask]:
        """All registered tasks, in registration order."""
        return list(self._tasks.values())

    def pairs(self) -> Set[NodeAttributePair]:
        """The de-duplicated node-attribute pair set (the planner input)."""
        return set(self._refcount)

    def pair_count(self) -> int:
        """Number of distinct node-attribute pairs currently required."""
        return len(self._refcount)

    # ------------------------------------------------------------------
    # Mutation side
    # ------------------------------------------------------------------
    def add_task(self, task: MonitoringTask) -> TaskSetDelta:
        """Register ``task``; return the newly required pairs."""
        if task.task_id in self._tasks:
            raise DuplicateTaskError(task.task_id)
        self._tasks[task.task_id] = task
        return TaskSetDelta(_acquire(self._refcount, task.pairs()), frozenset())

    def remove_task(self, task_id: str) -> TaskSetDelta:
        """Deregister the task; return the pairs no longer required."""
        task = self.get(task_id)
        del self._tasks[task_id]
        return TaskSetDelta(frozenset(), _release(self._refcount, task.pairs()))

    def modify_task(self, task: MonitoringTask) -> TaskSetDelta:
        """Replace the registered task with the same id; return the net delta."""
        old = self.get(task.task_id)
        old_pairs = old.pairs()
        new_pairs = task.pairs()
        removed = _release(self._refcount, old_pairs - new_pairs)
        added = _acquire(self._refcount, new_pairs - old_pairs)
        self._tasks[task.task_id] = task
        return TaskSetDelta(added, removed)

    def apply(self, delta_ops: Iterable[Tuple[str, Optional[MonitoringTask]]]) -> TaskSetDelta:
        """Apply a batch of ``(op, task)`` mutations, returning the net delta.

        ``op`` is ``"add"``, ``"remove"`` (task may be the task object or
        just carry the id), or ``"modify"``.  Batching matters for
        adaptation: the net delta of a batch can be far smaller than the
        union of per-op deltas when ops cancel out.
        """
        added: Set[NodeAttributePair] = set()
        removed: Set[NodeAttributePair] = set()
        for op, task in delta_ops:
            if op == "add":
                assert task is not None
                delta = self.add_task(task)
            elif op == "remove":
                assert task is not None
                delta = self.remove_task(task.task_id)
            elif op == "modify":
                assert task is not None
                delta = self.modify_task(task)
            else:
                raise ValueError(f"unknown task operation {op!r}")
            # Net the deltas: an add followed by a remove cancels.
            for pair in delta.added:
                if pair in removed:
                    removed.discard(pair)
                else:
                    added.add(pair)
            for pair in delta.removed:
                if pair in added:
                    added.discard(pair)
                else:
                    removed.add(pair)
        return TaskSetDelta(frozenset(added), frozenset(removed))


#: Separates the tenant name from the task id in a qualified task id.
TENANT_SEPARATOR = "/"


class InvalidTenantError(ValueError):
    """Raised for empty tenant/task names or names containing the separator."""


def validate_tenant_name(tenant: str) -> str:
    """Reject tenant names that cannot round-trip through qualified ids."""
    if not tenant:
        raise InvalidTenantError("tenant name must be a non-empty string")
    if TENANT_SEPARATOR in tenant:
        raise InvalidTenantError(
            f"tenant name {tenant!r} must not contain {TENANT_SEPARATOR!r}"
        )
    return tenant


def qualified_task_id(tenant: str, task_id: str) -> str:
    """The globally unique id for a tenant's task: ``tenant/task_id``."""
    return f"{tenant}{TENANT_SEPARATOR}{task_id}"


class MultiTenantTaskManager:
    """Per-tenant task namespaces with global pair-level de-duplication.

    Each tenant owns an isolated :class:`TaskManager`, so task ids only
    need to be unique *within* a tenant and dedup semantics (refcounts,
    duplicate-id errors) are scoped per tenant.  Across tenants the
    manager counts how many tenants require each node-attribute pair and
    reports global :class:`TaskSetDelta`\\ s on the 0->1 / 1->0
    transitions -- the planner plans the union of all tenants' pairs,
    collecting each pair once no matter how many tenants want it.
    """

    def __init__(self) -> None:
        self._tenants: Dict[str, TaskManager] = {}
        self._tenant_count: Dict[NodeAttributePair, int] = {}

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def tenants(self) -> List[str]:
        """All tenant names with a registered namespace, sorted."""
        return sorted(self._tenants)

    def tasks(self, tenant: str) -> List[MonitoringTask]:
        """The tenant's registered tasks (empty for unknown tenants)."""
        manager = self._tenants.get(tenant)
        return manager.tasks if manager is not None else []

    def get(self, tenant: str, task_id: str) -> MonitoringTask:
        manager = self._tenants.get(tenant)
        if manager is None:
            raise UnknownTaskError(qualified_task_id(tenant, task_id))
        try:
            return manager.get(task_id)
        except UnknownTaskError:
            raise UnknownTaskError(qualified_task_id(tenant, task_id)) from None

    def task_count(self) -> int:
        return sum(len(manager) for manager in self._tenants.values())

    def pairs(self) -> Set[NodeAttributePair]:
        """The union of all tenants' pairs, de-duplicated (planner input)."""
        return set(self._tenant_count)

    def pair_count(self) -> int:
        return len(self._tenant_count)

    # ------------------------------------------------------------------
    # Mutation side
    # ------------------------------------------------------------------
    def _namespace(self, tenant: str) -> TaskManager:
        validate_tenant_name(tenant)
        if tenant not in self._tenants:
            self._tenants[tenant] = TaskManager()
        return self._tenants[tenant]

    def _globalize(self, tenant: str, delta: TaskSetDelta) -> TaskSetDelta:
        """Translate a tenant-local delta into the cross-tenant delta."""
        return TaskSetDelta(
            _acquire(self._tenant_count, delta.added),
            _release(self._tenant_count, delta.removed),
        )

    def add_task(self, tenant: str, task: MonitoringTask) -> TaskSetDelta:
        """Register ``task`` under ``tenant``; return the *global* delta."""
        if TENANT_SEPARATOR in task.task_id:
            raise InvalidTenantError(
                f"task id {task.task_id!r} must not contain {TENANT_SEPARATOR!r}"
            )
        return self._globalize(tenant, self._namespace(tenant).add_task(task))

    def remove_task(self, tenant: str, task_id: str) -> TaskSetDelta:
        manager = self._tenants.get(tenant)
        if manager is None:
            raise UnknownTaskError(qualified_task_id(tenant, task_id))
        return self._globalize(tenant, manager.remove_task(task_id))

    def modify_task(self, tenant: str, task: MonitoringTask) -> TaskSetDelta:
        manager = self._tenants.get(tenant)
        if manager is None:
            raise UnknownTaskError(qualified_task_id(tenant, task.task_id))
        return self._globalize(tenant, manager.modify_task(task))

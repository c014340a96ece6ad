"""Deterministic plan-corruption injectors for testing the checkers.

Each fault models one real failure class the verifier must catch and
is engineered so its *primary* diagnostic code is distinct from the
other faults' (the two stale caches share theirs and differ in the
quantity the diagnostic names):

- ``drop-tree``   -> ``REMO102`` (a partition set loses its tree);
- ``cycle``       -> ``REMO111`` (a parent pointer loops, the classic
  symptom of a botched branch move);
- ``overload``    -> ``REMO201`` (a member's demand is inflated past
  its budget with bookkeeping kept *consistent*, so only the budget
  check can see it);
- ``stale-cost``  -> ``REMO203`` (a cached send cost is poked without
  touching the structure, so only the recomputation diff can see it);
- ``stale-total`` -> ``REMO203`` (a cached outgoing-value total is
  poked: on a funnel-free tree that total is the only record of what
  a node forwards, so nothing else would contradict it).

The injectors mutate the plan **in place** (plans are deliberately
mutable dataclass-style objects; the whole point of the verifier is
that such mutation can go wrong) and bypass the tree API exactly the
way a buggy caller would.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.partition import AttributeSet
from repro.core.plan import MonitoringPlan

#: Public names of the supported corruption classes.
FAULT_KINDS = ("drop-tree", "cycle", "overload", "stale-cost", "stale-total")


def _sorted_sets(plan: MonitoringPlan) -> List[AttributeSet]:
    return sorted(plan.trees, key=sorted)


def _drop_tree(plan: MonitoringPlan) -> str:
    attr_set = _sorted_sets(plan)[0]
    del plan.trees[attr_set]
    return f"dropped the tree for {sorted(attr_set)}"


def _cycle(plan: MonitoringPlan) -> str:
    for attr_set in _sorted_sets(plan):
        tree = plan.trees[attr_set].tree
        victims = [n for n in tree.nodes if tree.parent(n) is not None]
        if not victims:
            continue
        node = max(victims)
        parent = tree.parent(node)
        # Re-point the node at itself, keeping the parent/children
        # mirror consistent so ONLY the cycle check fires.
        tree._children[parent].discard(node)
        tree._parent[node] = node
        tree._children[node].add(node)
        return f"self-looped node {node} in tree {sorted(attr_set)}"
    raise ValueError("no tree with a non-root node to corrupt")


def _overload(plan: MonitoringPlan) -> str:
    for attr_set in _sorted_sets(plan):
        tree = plan.trees[attr_set].tree
        for node in sorted(tree.nodes):
            demand = tree.local_demand(node)
            if not demand:
                continue
            attr = sorted(demand)[0]
            demand[attr] += 1.0e6
            # check=False skips the capacity guard, like a caller that
            # forgot it; the incremental bookkeeping stays CONSISTENT,
            # so only the recomputed-budget check can catch this.
            tree.update_local(node, demand, check=False)
            return (
                f"inflated demand for {attr!r} at node {node} in tree "
                f"{sorted(attr_set)}"
            )
    raise ValueError("no tree with local demand to corrupt")


def _stale_cache(plan: MonitoringPlan, table: str, what: str) -> str:
    for attr_set in _sorted_sets(plan):
        tree = plan.trees[attr_set].tree
        if not tree.nodes:
            continue
        node = min(tree.nodes)
        getattr(tree, table)[node] += 37.0
        return f"desynced cached {what} at node {node} in tree {sorted(attr_set)}"
    raise ValueError("no non-empty tree to corrupt")


def _stale_cost(plan: MonitoringPlan) -> str:
    return _stale_cache(plan, "_send", "send cost")


def _stale_total(plan: MonitoringPlan) -> str:
    return _stale_cache(plan, "_total", "outgoing-value total")


_INJECTORS: Dict[str, Callable[[MonitoringPlan], str]] = {
    "drop-tree": _drop_tree,
    "cycle": _cycle,
    "overload": _overload,
    "stale-cost": _stale_cost,
    "stale-total": _stale_total,
}


def inject_fault(plan: MonitoringPlan, kind: str) -> str:
    """Corrupt ``plan`` in place; returns a description of the damage."""
    try:
        injector = _INJECTORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
        ) from None
    return injector(plan)

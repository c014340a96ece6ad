"""Structural invariant checkers (``REMO1xx``).

Two layers of structure are verified without executing anything:

1. **Partition exact cover** -- the plan's partition must cover every
   attribute with a requested pair exactly once, every partition set
   must own exactly one tree, and no tree may collect an attribute or
   a node-attribute pair the workload never asked for.
2. **Tree well-formedness** -- each tree must be a rooted tree in the
   graph-theoretic sense: exactly one root (the node that sends to the
   central collector, parent ``-1`` in assignment records), acyclic
   parent pointers, every member reachable from the root, and the
   parent/children/depth tables mutually consistent.

All traversals are defensive: they must terminate and report on
corrupt structures (that is the whole point), so every walk carries a
visited set instead of trusting the tree's own bookkeeping.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.checks.diagnostics import DiagnosticReport
from repro.core.attributes import AttributeId, NodeAttributePair, NodeId
from repro.core.partition import AttributeSet
from repro.core.plan import MonitoringPlan
from repro.trees.model import MonitoringTree


def set_label(attr_set: AttributeSet) -> str:
    """A tree's diagnostic location: ``tree {a,b}``, its first four
    attributes then an ellipsis."""
    inner = ",".join(sorted(attr_set)[:4])
    if len(attr_set) > 4:
        inner += ",..."
    return "tree {" + inner + "}"


def check_partition(plan: MonitoringPlan, report: DiagnosticReport) -> None:
    """Exact-cover and tree-existence checks over the whole plan."""
    requested_attrs: Set[AttributeId] = {p.attribute for p in plan.pairs}
    universe = set(plan.partition.universe)

    missing = requested_attrs - universe
    if missing:
        report.add(
            "REMO101",
            "partition",
            f"requested attributes outside every partition set: {sorted(missing)}",
        )
    unrequested = universe - requested_attrs
    if unrequested:
        report.add(
            "REMO105",
            "partition",
            f"partition covers attributes with no requested pairs: {sorted(unrequested)}",
        )

    tree_sets = set(plan.trees)
    partition_sets = set(plan.partition.sets)
    for attr_set in sorted(partition_sets - tree_sets, key=sorted):
        report.add(
            "REMO102",
            set_label(attr_set),
            f"partition set {sorted(attr_set)} has no tree",
        )
    for attr_set in sorted(tree_sets - partition_sets, key=sorted):
        report.add(
            "REMO103",
            set_label(attr_set),
            f"tree built for {sorted(attr_set)}, which is not a partition set",
        )

    # Pair-level exact cover: what the forest actually collects must be
    # a subset of what was requested, and each tree must stay inside
    # its own attribute set.
    for attr_set, result in plan.trees.items():
        tree = result.tree
        label = set_label(attr_set)
        for node in tree.nodes:
            for attr, weight in tree.local_demand(node).items():
                if weight <= 0.0:
                    continue
                if attr not in attr_set:
                    report.add(
                        "REMO104",
                        f"{label} / node {node}",
                        f"collects attribute {attr!r} outside its set {sorted(attr_set)}",
                    )
                elif NodeAttributePair(node, attr) not in plan.pairs:
                    report.add(
                        "REMO115",
                        f"{label} / node {node}",
                        f"collects pair ({node}, {attr!r}) that no task requested",
                    )


def check_tree(
    attr_set: AttributeSet, tree: MonitoringTree, report: DiagnosticReport
) -> bool:
    """Well-formedness of one tree; returns ``True`` when the structure
    is sound enough for a cost recomputation to traverse it."""
    label = set_label(attr_set)
    members = list(tree.nodes)
    if not members:
        return True
    member_set = set(members)
    sound = True

    # Root: exactly one parentless node, matching the cached pointer.
    roots = [n for n in members if tree.parent(n) is None]
    if len(roots) != 1 or tree.root not in member_set or roots[0] != tree.root:
        report.add(
            "REMO110",
            label,
            f"expected exactly one root matching the cached pointer "
            f"{tree.root!r}, found parentless nodes {sorted(roots)}",
        )
        sound = False

    # Parent/children mirror consistency.
    for node in members:
        parent = tree.parent(node)
        if parent is not None:
            if parent not in member_set:
                report.add(
                    "REMO113",
                    f"{label} / node {node}",
                    f"parent {parent} is not a member of the tree",
                )
                sound = False
            elif node not in tree.children(parent):
                report.add(
                    "REMO113",
                    f"{label} / node {node}",
                    f"missing from parent {parent}'s children set",
                )
                sound = False
        for child in tree.children(node):
            if child not in member_set or tree.parent(child) != node:
                report.add(
                    "REMO113",
                    f"{label} / node {node}",
                    f"children set names {child}, whose parent pointer disagrees",
                )
                sound = False

    # Cycles: walk parent chains with memoized termination results.
    on_cycle = _nodes_on_cycles(tree, members)
    for node in sorted(on_cycle):
        report.add(
            "REMO111",
            f"{label} / node {node}",
            "parent chain never reaches the root (cycle)",
        )
    if on_cycle:
        sound = False

    # Reachability from the root via children tables.
    reachable: Set[NodeId] = set()
    depths: Dict[NodeId, int] = {}
    if len(roots) == 1 and roots[0] in member_set:
        stack: List[NodeId] = [roots[0]]
        reachable.add(roots[0])
        depths[roots[0]] = 0
        while stack:
            node = stack.pop()
            for child in tree.children(node):
                if child in reachable or child not in member_set:
                    continue
                reachable.add(child)
                depths[child] = depths[node] + 1
                stack.append(child)
        for node in sorted(member_set - reachable - on_cycle):
            report.add(
                "REMO112",
                f"{label} / node {node}",
                "unreachable from the root",
            )
        if member_set - reachable:
            sound = False

    # Depth cache consistency (only meaningful on the reachable part).
    if sound:
        for node in sorted(reachable):
            if tree.depth(node) != depths[node]:
                report.add(
                    "REMO114",
                    f"{label} / node {node}",
                    f"cached depth {tree.depth(node)} != recomputed {depths[node]}",
                )
        # Idle relay leaves: structurally legal, pure waste.
        for node in sorted(member_set):
            local = {a: w for a, w in tree.local_demand(node).items() if w > 0.0}
            if not local and not tree.children(node) and tree.parent(node) is not None:
                report.add(
                    "REMO117",
                    f"{label} / node {node}",
                    "leaf carries no local values",
                )
    return sound


def _nodes_on_cycles(tree: MonitoringTree, members: List[NodeId]) -> Set[NodeId]:
    """Members whose parent chain loops instead of reaching the root."""
    TERMINATES, LOOPS = 1, 2
    state: Dict[NodeId, int] = {}
    member_set = set(members)
    on_cycle: Set[NodeId] = set()
    for start in members:
        if start in state:
            continue
        path: List[NodeId] = []
        path_index: Dict[NodeId, int] = {}
        node: Optional[NodeId] = start
        verdict = TERMINATES
        while node is not None and node in member_set:
            if node in state:
                verdict = state[node]
                break
            if node in path_index:
                # Found a fresh cycle: everything from its first
                # occurrence onward is on the cycle.
                verdict = LOOPS
                for cyc in path[path_index[node]:]:
                    on_cycle.add(cyc)
                break
            path_index[node] = len(path)
            path.append(node)
            node = tree.parent(node)
        for visited in path:
            state[visited] = verdict
            if verdict == LOOPS:
                on_cycle.add(visited)
    # Nodes whose chain merely *leads into* a cycle are reported as on
    # the cycle's chain too -- their path to the collector is broken
    # either way -- but the distinct REMO112 orphan check covers nodes
    # disconnected without a cycle, so keep only true loop members plus
    # their upstream here.
    return on_cycle

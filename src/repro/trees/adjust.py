"""The adjusting procedure and its optimizations (Sections 3.2.1 and 5.1).

When the construction procedure saturates -- the next node fits under
no existing parent -- the adjusting procedure relieves *congested*
nodes by pruning their cheapest branch and re-attaching it deeper in
the tree.  Moving a branch from congested node ``dc`` into ``dc``'s own
subtree frees exactly one message's per-message overhead ``C`` at
``dc`` while leaving its relayed payload unchanged, trading relay cost
for overhead to grow the tree.

Two independent optimizations from Section 5.1 are implemented as
flags on :class:`TreeAdjuster`:

- ``branch_based`` -- re-attach the pruned branch as a whole instead
  of breaking it into nodes and re-homing them one by one, dropping
  the procedure from O(n^2) to O(n);
- ``subtree_only`` -- restrict candidate re-attachment points to the
  congested node's subtree, justified by Theorem 1: if the node that
  failed to insert demands no more than the pruned branch, any host
  outside ``dc``'s subtree would already have accepted the failed node
  during construction, so testing it again is wasted work.
"""

from __future__ import annotations

import time
from typing import List, Sequence

from repro.core.attributes import NodeId
from repro.trees.model import MonitoringTree


class TreeAdjuster:
    """Relieves congested nodes by pruning and re-attaching branches.

    Parameters
    ----------
    branch_based:
        Re-attach pruned branches whole (Section 5.1.1) instead of
        node-by-node (the basic procedure).
    subtree_only:
        Restrict the re-attachment search to the congested node's
        subtree when Theorem 1 applies (Section 5.1.2).
    """

    def __init__(self, branch_based: bool = True, subtree_only: bool = True) -> None:
        self.branch_based = branch_based
        self.subtree_only = subtree_only
        #: Counts candidate-parent feasibility probes; exposed so the
        #: Fig. 10 bench can report search effort alongside wall time.
        self.probe_count = 0
        #: Wall seconds spent in :meth:`relieve` so far.  The builder
        #: reads it around a build and reports the difference as the
        #: ``adjustment`` phase, once, instead of one histogram
        #: observation per call (thousands per saturated plan).
        self.seconds = 0.0

    def relieve(
        self,
        tree: MonitoringTree,
        congested: Sequence[NodeId],
        failed_cost: float,
    ) -> bool:
        """Try to free per-message overhead at one congested node.

        ``congested`` lists nodes that refused the failed insertion;
        ``failed_cost`` is the send cost the failed node would have
        incurred (``u_df``), used to decide Theorem 1 applicability.
        Returns ``True`` if the tree was restructured.

        Failed full-tree sweeps are memoized against the tree's
        mutation epoch: a failed probe never mutates, and the Theorem-1
        gate only *shrinks* candidate pools as ``failed_cost``
        decreases, so once a sweep over every member has failed at cost
        ``F``, any sweep at the same epoch with the same flags and cost
        ``<= F`` must fail too and is skipped outright.  Any committed
        mutation bumps the epoch and invalidates the memo.
        """
        memo = tree._relieve_memo
        same_config = (
            memo is not None
            and memo[0] == tree.mutation_epoch
            and memo[1] == self.branch_based
            and memo[2] == self.subtree_only
        )
        if same_config and memo is not None and failed_cost <= memo[3]:
            return False
        started = time.perf_counter()
        parent_tab = tree._parent
        cong = {n for n in congested if n in parent_tab}
        relieved = False
        # A total order: ``cong`` is a set, so a depth-only key would let
        # its hash-table layout pick among equal-depth nodes.
        depth_tab = tree._depth
        for dc in sorted(cong, key=lambda n: (depth_tab[n], n)):
            if self._relieve_node(tree, dc, failed_cost):
                relieved = True
                break
        if not relieved and len(cong) == len(parent_tab):
            prev = memo[3] if same_config and memo is not None else -float("inf")
            tree._relieve_memo = (
                tree.mutation_epoch,
                self.branch_based,
                self.subtree_only,
                max(failed_cost, prev),
            )
        self.seconds += time.perf_counter() - started
        return relieved

    # ------------------------------------------------------------------
    def _relieve_node(self, tree: MonitoringTree, dc: NodeId, failed_cost: float) -> bool:
        if tree.degree(dc) < 2 and tree.parent(dc) is not None:
            # Pruning the only branch of a non-root just shifts the
            # problem to the parent without freeing overhead at dc's
            # ancestors; skip (before paying for the child sort).
            return False
        # A total order: siblings of equal send cost break on node id,
        # not on the order the child set happens to iterate in.
        send_cost = tree.send_cost
        children = sorted(tree._children[dc], key=lambda c: (send_cost(c), c))
        for branch in children:
            branch_cost = tree.send_cost(branch)
            targets = self._candidate_targets(tree, dc, branch, branch_cost, failed_cost)
            if self.branch_based:
                if self._reattach_branch(tree, dc, branch, targets):
                    return True
            else:
                if self._reattach_nodes(tree, dc, branch, targets):
                    return True
        return False

    def _candidate_targets(
        self,
        tree: MonitoringTree,
        dc: NodeId,
        branch: NodeId,
        branch_cost: float,
        failed_cost: float,
    ) -> List[NodeId]:
        """Candidate re-attachment pool (unsorted; re-attachers filter
        by their headroom bar first, then rank only the survivors)."""
        children = tree._children
        if self.subtree_only and failed_cost <= branch_cost:
            # Theorem 1: hosts outside dc's subtree cannot accept the
            # branch, since they already refused the cheaper failed node.
            # One walk of dc's subtree that never descends into the
            # pruned branch replaces two full walks plus membership
            # filtering; order is irrelevant (consumers rank by total
            # orders).
            pool: List[NodeId] = []
            stack = [c for c in children[dc] if c != branch]
            while stack:
                current = stack.pop()
                pool.append(current)
                stack.extend(children[current])
            return pool
        branch_nodes = set(tree.subtree_nodes(branch))
        return [n for n in tree.nodes if n != dc and n not in branch_nodes]

    def _reattach_branch(
        self, tree: MonitoringTree, dc: NodeId, branch: NodeId, targets: List[NodeId]
    ) -> bool:
        """Branch-based re-attaching: one move_branch per candidate.

        A target must at least absorb the branch's message on its
        receive side -- and, in funnel-free trees, relay the branch's
        values on its own send side -- so candidates with less headroom
        are skipped without attempting the (read-only-probed) move.
        Detaching the branch only relieves ``dc`` and its ancestors, so
        the sharpened bar must not be applied to those.  Likewise, a
        probe that fails at a relay hop with a minimal delta rules out
        every other target routing through that hop (see
        ``MonitoringTree.last_attach_failure``).
        """
        branch_cost = tree.send_cost(branch)
        min_headroom = branch_cost
        if not tree.has_aggregation():
            min_headroom += tree.cost.value_cost(tree.outgoing_values(branch))
        relieved: set = set()
        current = dc
        while current is not None:
            relieved.add(current)
            current = tree.parent(current)
        transferable = not tree.has_aggregation()
        blocked: set = set()
        # Filter by the headroom bar before ranking: failed probes
        # never mutate, so sorting only the survivors (deepest first,
        # to grow height) probes the same targets in the same order as
        # ranking the whole pool and skipping inside the loop.  The
        # headroom expression reads the tree's tables directly and is
        # float-identical to MonitoringTree.available.
        cap, send, recv = tree._cap, tree._send, tree._recv
        depth_tab = tree._depth
        keyed = []
        for target in targets:
            bar = branch_cost if target in relieved else min_headroom
            avail = cap[target] - (send[target] + recv[target])
            if avail < bar - 1e-9:
                continue
            keyed.append((-depth_tab[target], -avail, target))
        keyed.sort()
        for _neg_depth, _neg_avail, target in keyed:
            # ``blocked`` is the subtree closure of rejecting relay
            # hops: a target routes through one iff it lies in that
            # hop's subtree, so the skip test is a set lookup.
            if target in blocked:
                continue
            self.probe_count += 1
            if tree.move_branch(branch, target):
                return True
            fail_node, minimal = tree.last_attach_failure()
            if transferable and minimal and fail_node is not None and fail_node != target:
                blocked.update(tree.subtree_nodes(fail_node))
        return False

    def _reattach_nodes(
        self,
        tree: MonitoringTree,
        dc: NodeId,
        branch: NodeId,
        targets: List[NodeId],
    ) -> bool:
        """Basic per-node re-attaching with full rollback on failure.

        The branch is dismantled and each node re-homed independently
        (anywhere but ``dc``).  If any node cannot be placed, all
        placements are undone and the original branch is restored.
        """
        records = tree.remove_branch(branch)
        placed: List[NodeId] = []
        target_pool = [t for t in targets if t in tree]
        success = True
        for node, _old_parent, demand, msgw in records:
            placed_here = False
            # Previously placed branch nodes are valid hosts too.
            candidates = sorted(
                set(target_pool) | set(placed),
                key=lambda n: (-tree.depth(n), -tree.available(n), n),
            )
            for target in candidates:
                self.probe_count += 1
                if tree.add_node(node, target, demand, msgw):
                    placed.append(node)
                    placed_here = True
                    break
            if not placed_here:
                success = False
                break
        if success:
            return True
        # Roll back: remove re-homed nodes in reverse placement order,
        # then restore the original branch under dc verbatim.
        for node in reversed(placed):
            tree.remove_branch(node)
        first = True
        for node, old_parent, demand, msgw in records:
            parent = dc if first else old_parent
            added = tree.add_node(node, parent, demand, msgw, check=False)
            assert added, "restoring a previously feasible branch must succeed"
            first = False
        return False

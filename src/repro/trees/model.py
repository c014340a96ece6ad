"""The monitoring tree data structure.

This module implements the bookkeeping that every tree-construction
scheme relies on: for each member node the number of values it
forwards (``y_i`` in Problem Statement 2, generalized to fractional
*weights* for the heterogeneous-frequency extension and to per-metric
*funnel functions* for in-network aggregation), its message send cost
``u_i = C*w_i + a*y_i``, its receive cost (the sum of its children's
send costs), and the resulting capacity usage, all maintained
incrementally so that feasibility of attaching a node or moving a
branch can be checked in ``O(depth * |attributes|)``.

Cost maintenance is *delta based*: when a child's outgoing content
changes, only the change is pushed up the ancestor path (never a
from-scratch recomputation per level), by the one walk every mutation
and every probe shares.  The resource model is scalar, so a tree
without aggregation funnels keeps no per-attribute state above the
local demands: each hop forwards what it receives, and the walk
carries the change of the value total, of the message weight and of
the send cost, O(depth) whatever the attribute count.  A tree with
funnels adds the per-attribute tables the funnels need -- incoming
values, *contributor refcounts* (how many of {local demand, children}
supply each incoming attribute, so key removal needs no child scan)
and outgoing values -- and one extra step per hop that re-funnels the
changed attributes; there the walk also ends early at the first
ancestor whose outgoing message is unchanged, which saturation
(``min(1.0, incoming)``) makes the common case.  A cached
*max-child-message-weight* with a contributor count avoids re-deriving
``max()`` over children at every level.  The one from-scratch
recomputation, :func:`repro.trees.recompute.recompute_tree`, is the
oracle every incremental state must match: :meth:`MonitoringTree.validate`
holds every cache against it, and so do the plan checkers.

Capacity semantics (Problem Statement 2, constraint 1): for every
member node ``i``, ``send(i) + recv(i) <= capacity(i)``, where
``capacity(i)`` is the slice of node ``i``'s budget allocated to this
tree.  The tree root additionally charges the central collector
``send(root)`` against the tree's ``central_capacity`` slice.

Layout: every per-node record -- structure, capacity snapshot, send,
receive and outgoing total -- is a dict keyed by node, written when
the node attaches and popped when it leaves.  Per-attribute content,
where a tree keeps it, is a sparse dict per node (most nodes carry a
handful of the tree's attributes).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.attributes import AttributeId, NodeId
from repro.core.cost import AggregationKind, AggregationMap, AggregationSpec, CostModel
from repro.trees.recompute import BUDGET_TOLERANCE, NodeAccounting, matches, recompute_tree

#: A node's local contribution to a tree: ``{attribute: weight}`` where
#: weight is the expected number of values per collection period (1.0
#: unless the frequency extension scales it down).
NodeDemand = Dict[AttributeId, float]

#: Tolerance for floating-point capacity comparisons.
EPSILON = 1e-9

#: Per-attribute delta of a child's outgoing content: ``(old, new)``
#: value weights (0.0 encodes absence).  Aggregated trees only.
_ValueDeltas = Dict[AttributeId, Tuple[float, float]]

#: What one child contributes to its parent: ``(values, total,
#: msg_weight, send)`` -- its outgoing per-attribute value weights
#: (``None`` on a funnel-free tree, which keeps none), their sum, the
#: expected number of messages per collection period (1.0 for ordinary
#: nodes; the frequency extension can lower a leaf's weight, and a
#: relay inherits the max over itself and its children because it must
#: forward whenever anything arrives) and the cost of those messages.
_Content = Tuple[Optional[Dict[AttributeId, float]], float, float, float]

#: The contribution of a child that is not there (before it attaches,
#: after it detaches).
_ABSENT: _Content = (None, 0.0, 0.0, 0.0)


class TreeInvariantError(AssertionError):
    """Raised by :meth:`MonitoringTree.validate` when bookkeeping drifts."""


class PreparedLeaf:
    """A validated leaf insertion, prepared once and reused by every
    candidate-parent probe and by the one commit: the positive-weight
    ``demand``, the ``content`` its parent would see, and that
    content's value ``total`` and ``send`` cost on their own."""

    __slots__ = ("node", "demand", "content", "total", "send")

    def __init__(self, node: NodeId, demand: NodeDemand, content: _Content) -> None:
        self.node = node
        self.demand = demand
        self.content = content
        self.total = content[1]
        self.send = content[3]


class _SimNodeState:
    """Overlay state for one node during a read-only walk simulation:
    the simulated message weight, its contributor count, outgoing value
    ``total``, send and receive cost, so consecutive walk phases
    (detach, then attach) compose without touching the real tables.

    On aggregated trees ``in_values``/``out_values`` also hold the
    attributes the simulation changed; unchanged attributes fall
    through to the real tables.  A funnel-free overlay has no such maps.
    """

    __slots__ = ("msg_weight", "msgw_count", "total", "send", "recv", "in_values", "out_values")

    in_values: Dict[AttributeId, float]
    out_values: Dict[AttributeId, float]

    def __init__(
        self,
        msg_weight: float,
        msgw_count: int,
        total: float,
        send: float,
        recv: float,
        per_attribute: bool,
    ) -> None:
        self.msg_weight = msg_weight
        self.msgw_count = msgw_count
        self.total = total
        self.send = send
        self.recv = recv
        if per_attribute:
            self.in_values = {}
            self.out_values = {}


class MonitoringTree:
    """One collection tree for a set of attributes.

    Parameters
    ----------
    attributes:
        The partition set this tree delivers.
    cost_model:
        The shared ``C + a*x`` model.
    capacities:
        Allocated capacity slice per node for *this* tree.  Nodes not in
        the mapping cannot join.  Each member's slice is snapshotted
        when it attaches; reassigning :attr:`capacities` refreshes the
        snapshot for every member (the pattern the adaptation path and
        tests use).
    central_capacity:
        Capacity slice at the central collector available to this
        tree's root message.
    aggregation:
        Optional per-attribute aggregation specs (Section 6.1).
        Attributes absent from the map are holistic.
    """

    def __init__(
        self,
        attributes: Iterable[AttributeId],
        cost_model: CostModel,
        capacities: Mapping[NodeId, float],
        central_capacity: float = math.inf,
        aggregation: Optional[AggregationMap] = None,
    ) -> None:
        self.attributes = frozenset(attributes)
        if not self.attributes:
            raise ValueError("a monitoring tree must deliver at least one attribute")
        self.cost = cost_model
        self._capacities = capacities
        self.central_capacity = central_capacity
        self._agg: Dict[AttributeId, AggregationSpec] = {}
        for attr, spec in (aggregation or {}).items():
            if attr in self.attributes and spec.kind not in (
                AggregationKind.HOLISTIC,
                AggregationKind.DISTINCT,
            ):
                self._agg[attr] = spec
        #: With no funnels outgoing = incoming at every node, and the
        #: cost model reads only the total: the tree then keeps no
        #: per-attribute state above ``_local`` and the delta walk
        #: skips its per-attribute step.
        self._has_agg = bool(self._agg)
        # Monotone counter bumped on every committed mutation; negative
        # caches (e.g. the adjuster's relieve memo) key off it.
        self._epoch = 0
        self._relieve_memo: Optional[Tuple[int, bool, bool, float]] = None

        # Each member's capacity slice, snapshotted when it attaches,
        # and its cached send and receive cost.
        self._cap: Dict[NodeId, float] = {}
        self._send: Dict[NodeId, float] = {}
        self._recv: Dict[NodeId, float] = {}
        # Maintained outgoing-value total ``y_i``.  On a funnel-free
        # tree this is the only record of what a node forwards;
        # ``validate`` cross-checks it against a full recompute.
        self._total: Dict[NodeId, float] = {}
        self._parent: Dict[NodeId, Optional[NodeId]] = {}
        self._children: Dict[NodeId, Set[NodeId]] = {}
        self._depth: Dict[NodeId, int] = {}
        self._local: Dict[NodeId, NodeDemand] = {}
        self._local_msgw: Dict[NodeId, float] = {}
        # Outgoing message weight: max over the local weight and the
        # children's outgoing weights.
        self._msgw: Dict[NodeId, float] = {}
        # How many contributors (local msg weight + children's outgoing
        # weights) achieve ``_msgw[node]``.  A departing contributor
        # only forces a rescan when this count hits zero.
        self._msgw_count: Dict[NodeId, int] = {}
        self._node_tables: Tuple[dict, ...] = (
            self._cap,
            self._send,
            self._recv,
            self._total,
            self._parent,
            self._children,
            self._depth,
            self._local,
            self._local_msgw,
            self._msgw,
            self._msgw_count,
        )
        # What the funnels need on top, populated on aggregated trees
        # only.  Incoming per-attribute weights (local + children
        # outputs).
        self._in: Dict[NodeId, Dict[AttributeId, float]] = {}
        # Contributor refcounts per incoming attribute: 1 for the local
        # demand plus 1 per child whose outgoing content carries the
        # attribute.  A key is dropped from ``_in`` exactly when its
        # refcount reaches zero -- no child scan needed.
        self._in_count: Dict[NodeId, Dict[AttributeId, int]] = {}
        # Outgoing per-attribute weights (funnel applied to ``_in``).
        self._out: Dict[NodeId, Dict[AttributeId, float]] = {}
        if self._has_agg:
            self._node_tables += (self._in, self._in_count, self._out)
        self._root: Optional[NodeId] = None
        self._pair_count = 0
        # Node at which the most recent check-mode walk failed (None if
        # it passed), and whether the failing walk carried a *minimal*
        # delta (no funnel attenuation possible, no message-weight
        # growth anywhere).  A minimal failure at node X means any
        # attach whose path to the root passes through X fails too, so
        # builders can prune sibling candidate parents without probing.
        self._last_check_fail: Optional[NodeId] = None
        self._last_check_fail_minimal = True

    @property
    def capacities(self) -> Mapping[NodeId, float]:
        """The per-node capacity-slice mapping this tree was built with."""
        return self._capacities

    @capacities.setter
    def capacities(self, mapping: Mapping[NodeId, float]) -> None:
        self._capacities = mapping
        cap = self._cap
        for node in cap:
            cap[node] = mapping.get(node, 0.0)

    @property
    def mutation_epoch(self) -> int:
        """Monotone counter of committed mutations (for negative caches)."""
        return self._epoch

    # ------------------------------------------------------------------
    # Bulk headroom scans
    # ------------------------------------------------------------------
    def viable_parents(self, min_headroom: float) -> List[NodeId]:
        """Members with ``available(n) >= min_headroom - 1e-9``, in
        membership order.  Callers must not rely on the order: every
        downstream ranking uses a total-order sort key."""
        bar = min_headroom - 1e-9
        send, recv = self._send, self._recv
        return [
            node for node, cap in self._cap.items() if cap - (send[node] + recv[node]) >= bar
        ]

    def viable_parent_arrays(
        self, min_headroom: float
    ) -> Tuple[List[NodeId], List[int], List[float]]:
        """Like :meth:`viable_parents` but returns aligned ``(nodes,
        depths, avail)`` columns so rankers avoid per-node re-reads."""
        bar = min_headroom - 1e-9
        depth, send, recv = self._depth, self._send, self._recv
        nodes: List[NodeId] = []
        depths: List[int] = []
        avails: List[float] = []
        for node, cap in self._cap.items():
            avail = cap - (send[node] + recv[node])
            if avail >= bar:
                nodes.append(node)
                depths.append(depth[node])
                avails.append(avail)
        return nodes, depths, avails

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._parent

    @property
    def root(self) -> Optional[NodeId]:
        """The tree root (sends directly to the central collector)."""
        return self._root

    @property
    def nodes(self) -> List[NodeId]:
        """Member nodes in no particular order."""
        return list(self._parent)

    def parent(self, node: NodeId) -> Optional[NodeId]:
        """Parent of ``node`` (``None`` for the root)."""
        return self._parent[node]

    def children(self, node: NodeId) -> Set[NodeId]:
        """Children of ``node`` (a copy)."""
        return set(self._children[node])

    def degree(self, node: NodeId) -> int:
        """Number of children of ``node``."""
        return len(self._children[node])

    def depth(self, node: NodeId) -> int:
        """Hops from the root (root = 0)."""
        return self._depth[node]

    def height(self) -> int:
        """Maximum node depth (empty tree: -1)."""
        return max(self._depth.values()) if self._depth else -1

    def local_demand(self, node: NodeId) -> NodeDemand:
        """The node's own contribution (a copy)."""
        return dict(self._local[node])

    def local_message_weight(self, node: NodeId) -> float:
        """The node's own message weight (before inheriting children's)."""
        return self._local_msgw[node]

    def funnel_value(self, attr: AttributeId, incoming: float) -> float:
        """Outgoing value weight for ``incoming`` weight of ``attr``
        after this tree's aggregation funnel (public, for verifiers
        that recompute costs from first principles)."""
        return self._funnel(attr, incoming)

    def send_cost(self, node: NodeId) -> float:
        """``u_i``: cost of the node's periodic update message(s)."""
        return self._send[node]

    def recv_cost(self, node: NodeId) -> float:
        """Cost of receiving all children's update messages."""
        return self._recv[node]

    def used(self, node: NodeId) -> float:
        """Total capacity consumed at ``node`` by this tree."""
        return self._send[node] + self._recv[node]

    def available(self, node: NodeId) -> float:
        """Remaining allocated capacity at ``node`` for this tree."""
        return self._cap[node] - (self._send[node] + self._recv[node])

    def central_used(self) -> float:
        """Cost charged to the central collector by this tree's root."""
        if self._root is None:
            return 0.0
        return self._send[self._root]

    def outgoing_values(self, node: NodeId) -> float:
        """``y_i``: total value weight in the node's update message."""
        return self._total[node]

    def message_weight(self, node: NodeId) -> float:
        """Expected messages per period sent by ``node``."""
        return self._msgw[node]

    def pair_count(self) -> int:
        """Number of node-attribute pairs this tree collects."""
        return self._pair_count

    def has_aggregation(self) -> bool:
        """Whether any attribute in this tree has a non-holistic funnel."""
        return self._has_agg

    def last_attach_failure(self) -> Tuple[Optional[NodeId], bool]:
        """Where the most recent feasibility check failed, and whether
        the failing walk carried a minimal delta.

        Returns ``(node, minimal)``.  ``node`` is ``None`` when the
        last check passed (or failed only at the central collector
        during a root attach).  When ``minimal`` is true, the tree has
        no aggregation funnels, and the failure occurred at a *strict
        ancestor* of the attach point (a relay hop), it transfers:
        any attach of the same content whose path to the root passes
        through ``node`` delivers at least the same delta there and
        must fail too.  A failure at the attach parent itself does
        not transfer -- the direct attach charges the new child's
        per-message overhead, which routed attaches avoid.  Builders
        use this to prune sibling candidate parents without probing.
        """
        return self._last_check_fail, self._last_check_fail_minimal

    def subtree_nodes(self, node: NodeId) -> List[NodeId]:
        """All nodes in the subtree rooted at ``node`` (preorder)."""
        result: List[NodeId] = []
        stack = [node]
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(self._children[current])
        return result

    def edges(self) -> Set[Tuple[NodeId, NodeId]]:
        """All ``(child, parent)`` edges; the root edge uses parent ``-1``."""
        result: Set[Tuple[NodeId, NodeId]] = set()
        for node, parent in self._parent.items():
            result.add((node, parent if parent is not None else -1))
        return result

    def total_message_cost(self) -> float:
        """Send-side cost per period summed over all members.

        This is the tree's contribution to the paper's ``C_cur`` --
        the volume of monitoring traffic per unit time -- used by the
        adaptation throttling formula.
        """
        return sum(self._send.values())

    # ------------------------------------------------------------------
    # Funnel helpers
    # ------------------------------------------------------------------
    def _funnel(self, attr: AttributeId, incoming: float) -> float:
        if incoming <= 0.0:
            return max(incoming, 0.0)
        # Attributes outside the tree (tolerated by entry-cost probes)
        # and holistic members pass through unchanged.
        spec = self._agg.get(attr)
        if spec is None:
            return incoming
        if spec.kind is AggregationKind.TOP_K:
            return min(float(spec.k), incoming)
        # SUM/MAX/MIN/AVG/COUNT collapse to one partial result; when the
        # incoming weight is already below one message-worth of values
        # (fractional frequencies) nothing can be saved.
        return min(1.0, incoming)

    def _content(self, node: NodeId) -> _Content:
        """What member ``node`` currently contributes to its parent."""
        return (
            self._out[node] if self._has_agg else None,
            self._total[node],
            self._msgw[node],
            self._send[node],
        )

    # ------------------------------------------------------------------
    # Structural mutation
    # ------------------------------------------------------------------
    def add_node(
        self,
        node: NodeId,
        parent: Optional[NodeId],
        demand: NodeDemand,
        msg_weight: float = 1.0,
        check: bool = True,
    ) -> bool:
        """Attach ``node`` under ``parent`` (``None`` => become the root).

        Returns ``True`` on success.  With ``check=True`` the attachment
        is refused (returning ``False``) if it would violate any
        capacity constraint along the path to the collector; with
        ``check=False`` it is applied unconditionally (used by tests and
        by callers that have already validated).
        """
        leaf = self.prepare_leaf(node, demand, msg_weight)
        if parent is None:
            if self._root is not None:
                raise ValueError("tree already has a root; attach under an existing node")
        elif parent not in self._parent:
            raise ValueError(f"parent {parent} is not in the tree")
        if check and not self.leaf_fits(leaf, parent):
            return False
        self.attach_leaf(leaf, parent)
        return True

    def prepare_leaf(self, node: NodeId, demand: NodeDemand, msg_weight: float) -> PreparedLeaf:
        """Validate a leaf insertion and compute, once, what all of its
        probes and its commit share (builders try many parents)."""
        if node in self._parent:
            raise ValueError(f"node {node} is already in the tree")
        if not self.attributes.issuperset(demand):
            unknown = sorted(set(demand) - self.attributes)
            raise ValueError(
                f"demand for node {node} names attributes outside the tree: {unknown}"
            )
        if min(demand.values(), default=0.0) < 0:
            raise ValueError(f"demand weights must be >= 0 for node {node}")
        if msg_weight <= 0:
            raise ValueError(f"msg_weight must be > 0, got {msg_weight}")
        return self._leaf(node, demand, msg_weight)

    def _leaf(self, node: NodeId, demand: NodeDemand, msg_weight: float) -> PreparedLeaf:
        demand = {a: w for a, w in demand.items() if w > 0}
        values: Optional[Dict[AttributeId, float]] = None
        if self._has_agg:
            funnelled = ((a, self._funnel(a, w)) for a, w in demand.items())
            values = {a: w for a, w in funnelled if w > 0}
        # Without funnels the leaf forwards its demand as it stands.
        total = sum((demand if values is None else values).values())
        send = self.cost.weighted_message_cost(msg_weight, total) if msg_weight > 0.0 else 0.0
        return PreparedLeaf(node, demand, (values, total, msg_weight, send))

    def attach_leaf(self, leaf: PreparedLeaf, parent: Optional[NodeId]) -> None:
        """Commit a prepared leaf under ``parent``, unchecked."""
        node, demand = leaf.node, leaf.demand
        values, total, msgw, send = leaf.content
        self._parent[node] = parent
        self._children[node] = set()
        self._depth[node] = 0 if parent is None else self._depth[parent] + 1
        self._local[node] = demand
        self._local_msgw[node] = msgw
        self._msgw[node] = msgw
        self._msgw_count[node] = 1
        if values is not None:
            self._in[node] = dict(demand)
            self._in_count[node] = {a: 1 for a in demand}
            self._out[node] = values
        self._cap[node] = self._capacities.get(node, 0.0)
        self._send[node] = send
        self._recv[node] = 0.0
        self._total[node] = total
        self._pair_count += len(demand)
        self._epoch += 1
        if parent is None:
            self._root = node
        else:
            self._children[parent].add(node)
            self._walk(parent, node, _ABSENT, leaf.content, commit=True)

    def entry_cost(self, demand: NodeDemand) -> float:
        """Send cost of the unit-weight message a new leaf with
        ``demand`` would emit.

        This is also the *minimum* capacity any prospective parent must
        have available (its receive-side share), which makes it a sound
        pre-filter before the full path feasibility walk.
        """
        total = sum(self._funnel(a, w) for a, w in demand.items() if w > 0)
        return self.cost.weighted_message_cost(1.0, total)

    def can_add_node(self, node: NodeId, parent: Optional[NodeId], demand: NodeDemand) -> bool:
        """Feasibility of :meth:`add_node` (at unit message weight)
        without mutating."""
        if node in self._parent:
            return False
        return self.leaf_fits(self._leaf(node, demand, 1.0), parent)

    def leaf_fits(self, leaf: PreparedLeaf, parent: Optional[NodeId]) -> bool:
        """Would attaching ``leaf`` under ``parent`` (``None`` => as the
        root) keep every capacity constraint satisfied?"""
        self._last_check_fail = None
        self._last_check_fail_minimal = True
        # The joining node has no snapshot yet; read the mapping.
        if leaf.send > self._capacities.get(leaf.node, 0.0) + EPSILON:
            # Its own send exceeds its own capacity: no parent can fix that.
            self._last_check_fail = leaf.node
            return False
        if parent is None:
            # Becoming the root: the collector receives the message.
            return leaf.send <= self.central_capacity + EPSILON
        return self._walk(parent, None, _ABSENT, leaf.content, check=True)

    def out_of_reach(self, leaf: PreparedLeaf) -> bool:
        """O(1) sufficient test that *no* restructuring of the current
        members lets any of them host ``leaf``.

        Either the leaf's own slice cannot pay for its own message, or
        (funnel-free trees) the central slice cannot take the root's
        message grown by the payload.  Moving branches never changes
        what the root sends -- every member's local values at the
        largest local message weight -- so neither refusal is relievable.
        """
        return self._refused(leaf, root_slice=False)

    def refuses(self, leaf: PreparedLeaf) -> bool:
        """O(1) sufficient test that *no* member can host ``leaf`` now.

        :meth:`out_of_reach`, or (funnel-free trees) the root's own
        slice cannot relay the leaf: every attach adds the payload to
        the root's outgoing message and at least ``a * payload`` to what
        it receives -- message-weight growth on the way only adds to
        both -- so when that lower bound overflows, every probe would
        fail at the root.  Moving a root child deeper takes one
        message's ``C`` off the root's receive side, so this refusal
        stays relievable.  Doubling the tolerance keeps both bounds on
        the refusing side of the probes' own float rounding.
        """
        return self._refused(leaf, root_slice=True)

    def _refused(self, leaf: PreparedLeaf, root_slice: bool) -> bool:
        if leaf.send > self._capacities.get(leaf.node, 0.0) + EPSILON:
            return True
        if self._has_agg or self._root is None:
            return False
        root = self._root
        send = self.cost.weighted_message_cost(self._msgw[root], self._total[root] + leaf.total)
        if send > self.central_capacity + 2 * EPSILON:
            return True
        if not root_slice:
            return False
        load = send + self._recv[root] + self.cost.value_cost(leaf.total)
        return load > self._cap[root] + 2 * EPSILON

    def update_local(
        self,
        node: NodeId,
        demand: NodeDemand,
        check: bool = True,
    ) -> bool:
        """Replace ``node``'s local contribution in place (its message
        weight stays).

        Used by DIRECT-APPLY adaptation to add or drop attribute values
        at a member node without touching the tree structure.  With
        ``check=True`` the mutation is reverted and ``False`` returned
        if it would overflow any node on the path to the collector.
        An empty ``demand`` leaves the node as a pure relay.
        """
        if node not in self._parent:
            raise ValueError(f"node {node} is not in the tree")
        unknown = set(demand) - self.attributes
        if unknown:
            raise ValueError(
                f"demand for node {node} names attributes outside the tree: {sorted(unknown)}"
            )
        if any(w < 0 for w in demand.values()):
            raise ValueError(f"demand weights must be >= 0 for node {node}")
        new_demand = {a: w for a, w in demand.items() if w > 0}
        old_demand = dict(self._local[node])
        if new_demand == old_demand:
            return True
        self._apply_local(node, new_demand)
        if check and not self._path_within_capacity(node):
            self._apply_local(node, old_demand)
            return False
        self._pair_count += len(new_demand) - len(old_demand)
        return True

    def _apply_local(self, node: NodeId, demand: NodeDemand) -> None:
        old = self._content(node)
        self._epoch += 1
        self._local[node] = dict(demand)
        # The node's own content is re-derived from its local demand and
        # its children's contributions; only the ancestors see a delta.
        values: Optional[Dict[AttributeId, float]] = None
        if self._has_agg:
            incoming: Dict[AttributeId, float] = dict(demand)
            counts: Dict[AttributeId, int] = {a: 1 for a in demand}
            for child in self._children[node]:
                for attr, weight in self._out[child].items():
                    incoming[attr] = incoming.get(attr, 0.0) + weight
                    counts[attr] = counts.get(attr, 0) + 1
            self._in[node] = incoming
            self._in_count[node] = counts
            funnelled = ((a, self._funnel(a, w)) for a, w in incoming.items())
            self._out[node] = values = {a: w for a, w in funnelled if w > 0.0}
            total = sum(values.values())
        else:
            total_tab = self._total
            total = sum(demand.values()) + sum(total_tab[c] for c in self._children[node])
        new_msgw, self._msgw_count[node] = self._rescan_msgw(node, None, 0.0, None)
        self._msgw[node] = new_msgw
        send = self.cost.weighted_message_cost(new_msgw, total) if new_msgw > 0.0 else 0.0
        self._send[node] = send
        self._total[node] = total
        parent = self._parent[node]
        if parent is not None:
            self._walk(parent, node, old, (values, total, new_msgw, send), commit=True)

    def _path_within_capacity(self, node: NodeId) -> bool:
        cap, send, recv = self._cap, self._send, self._recv
        current: Optional[NodeId] = node
        while current is not None:
            if send[current] + recv[current] > cap[current] + EPSILON:
                return False
            current = self._parent[current]
        return self.central_used() <= self.central_capacity + EPSILON

    def remove_branch(self, branch_root: NodeId) -> List[Tuple[NodeId, Optional[NodeId], NodeDemand, float]]:
        """Detach the subtree rooted at ``branch_root``.

        Returns the removed nodes as ``(node, parent, demand,
        msg_weight)`` records in preorder (so replaying ``add_node`` in
        order reconstructs the branch).  Parent of the branch root is
        reported as ``None`` in the records.
        """
        if branch_root not in self._parent:
            raise ValueError(f"node {branch_root} is not in the tree")
        parent = self._parent[branch_root]
        order = self.subtree_nodes(branch_root)
        records = []
        for node in order:
            node_parent = self._parent[node]
            records.append(
                (
                    node,
                    None if node == branch_root else node_parent,
                    dict(self._local[node]),
                    self._local_msgw[node],
                )
            )
        if parent is not None:
            self._children[parent].discard(branch_root)
            self._walk(parent, branch_root, self._content(branch_root), _ABSENT, commit=True)
        else:
            self._root = None
        for node in order:
            self._pair_count -= len(self._local[node])
            for table in self._node_tables:
                del table[node]
        self._epoch += 1
        return records

    def move_branch(self, branch_root: NodeId, new_parent: NodeId) -> bool:
        """Re-attach the subtree at ``branch_root`` under ``new_parent``.

        Returns ``True`` on success.  Feasibility is established by a
        read-only simulation *before* anything mutates (no rollback is
        ever needed), and ``False`` is returned if the move would
        violate a capacity constraint.  Moving a branch
        under one of its own descendants, under itself, or detaching
        the root is rejected with ``ValueError``.
        """
        if branch_root not in self._parent:
            raise ValueError(f"node {branch_root} is not in the tree")
        if new_parent not in self._parent:
            raise ValueError(f"new parent {new_parent} is not in the tree")
        old_parent = self._parent[branch_root]
        if old_parent is None:
            raise ValueError("cannot move the tree root")
        if new_parent == old_parent:
            return True
        if self._is_ancestor_or_self(branch_root, new_parent):
            raise ValueError(
                f"cannot attach branch {branch_root} under its own descendant {new_parent}"
            )

        if not self._move_feasible(branch_root, new_parent):
            return False

        # Moving the branch does not change what it sends.
        content = self._content(branch_root)
        self._children[old_parent].discard(branch_root)
        self._walk(old_parent, branch_root, content, _ABSENT, commit=True)
        self._parent[branch_root] = new_parent
        self._children[new_parent].add(branch_root)
        self._walk(new_parent, branch_root, _ABSENT, content, commit=True)
        self._refresh_depths(branch_root)
        self._epoch += 1
        return True

    def can_move_branch(self, branch_root: NodeId, new_parent: NodeId) -> bool:
        """Feasibility of :meth:`move_branch` as a read-only simulation.

        Nothing is mutated: the detach and re-attach are replayed
        against a scratch overlay of the ancestor paths, so a failed
        probe costs one early-terminating walk instead of a full
        ``move_branch`` + rollback.
        """
        if branch_root not in self._parent or new_parent not in self._parent:
            return False
        old_parent = self._parent[branch_root]
        if old_parent is None:
            return False
        if new_parent == old_parent:
            return True
        if self._is_ancestor_or_self(branch_root, new_parent):
            return False
        return self._move_feasible(branch_root, new_parent)

    def _is_ancestor_or_self(self, ancestor: NodeId, node: NodeId) -> bool:
        current: Optional[NodeId] = node
        while current is not None:
            if current == ancestor:
                return True
            current = self._parent[current]
        return False

    def _move_feasible(self, branch_root: NodeId, new_parent: NodeId) -> bool:
        """Simulate detach-then-attach of ``branch_root`` on an overlay.

        Fast paths first: the attach is checked *pessimistically*
        against the current state (as if the branch were not detached).
        Tree state after detaching is pointwise no larger than before
        (funnels are monotone), and an attach that fits a larger state
        fits a smaller one, so a pessimistic pass is a real pass.  A
        pessimistic failure at a node strictly below where the old and
        new paths merge is exact too: detaching cannot change state
        there.  Only the ambiguous remainder -- failure at a shared
        ancestor -- pays for the full two-phase overlay simulation.

        In the full simulation, the detach phase is pure decrease, so
        it never needs capacity checks; the attach phase reads the
        composed overlay state and enforces every constraint the real
        mutation would.
        """
        old_parent = self._parent[branch_root]
        assert old_parent is not None
        content = self._content(branch_root)
        if self._walk(new_parent, branch_root, _ABSENT, content, check=True):
            return True
        fail_node = self._last_check_fail
        # Exact rejection if the failing node is untouched by the
        # detach (i.e. not an ancestor of the old parent).
        if fail_node is not None and not self._is_ancestor_or_self(fail_node, old_parent):
            return False
        overlay: Dict[NodeId, _SimNodeState] = {}
        self._walk(old_parent, branch_root, content, _ABSENT, overlay=overlay)
        return self._walk(new_parent, branch_root, _ABSENT, content, check=True, overlay=overlay)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _refresh_depths(self, branch_root: NodeId) -> None:
        parent = self._parent[branch_root]
        base = 0 if parent is None else self._depth[parent] + 1
        depth_tab = self._depth
        stack = [(branch_root, base)]
        while stack:
            node, depth = stack.pop()
            depth_tab[node] = depth
            for child in self._children[node]:
                stack.append((child, depth + 1))

    def _walk(
        self,
        start: NodeId,
        child: Optional[NodeId],
        old: _Content,
        new: _Content,
        commit: bool = False,
        check: bool = False,
        overlay: Optional[Dict[NodeId, _SimNodeState]] = None,
    ) -> bool:
        """Push a change of ``child``'s contribution up from ``start``.

        ``old`` and ``new`` are what the child contributed to ``start``
        before and after (:data:`_ABSENT` for a child that attaches or
        detaches).  Every mutation and every probe is this one walk, so
        the incremental math cannot drift between them:

        - ``commit=True`` writes the real tables (the mutation path);
        - ``check=True`` verifies capacity along the way and returns
          ``False`` at the first violated node (feasibility path);
        - ``overlay`` (a scratch dict) makes the walk read *through*
          and write *to* simulated per-node state, so multi-phase
          simulations (detach, then attach) compose read-only.

        Each hop settles the receive side, the message weight and its
        contributor count, and forwards the change of its own message
        to the next.  Without funnels that change is the child's, value
        for value, so the walk carries three scalars -- the change of
        the total, of the message weight and of the send cost.  With
        funnels one more step per hop derives the hop's outgoing
        per-attribute deltas from its incoming ones (:meth:`_refunnel`).
        The walk stops at the first ancestor whose
        outgoing message is unchanged: its parent then sees no change,
        so nothing above can differ.  Under funnel saturation this
        usually happens after one hop.
        """
        old_values, old_total, old_msgw, old_send = old
        new_values, new_total, new_msgw, new_send = new
        delta = new_total - old_total
        changed: Optional[_ValueDeltas] = None
        if self._has_agg:
            changed = _diff_values(old_values or {}, new_values or {})
            moves = bool(changed)
        else:
            # Exact on purpose: a bit-identical total re-derives a
            # bit-identical send cost one hop up.
            moves = new_total != old_total
        parent_tab = self._parent
        cap_tab = self._cap
        send_tab = self._send
        recv_tab = self._recv
        total_tab = self._total
        msgw_tab = self._msgw
        count_tab = self._msgw_count
        weighted_cost = self.cost.weighted_message_cost
        if check:
            self._last_check_fail = None
            self._last_check_fail_minimal = True
        minimal = True
        entry: Optional[_SimNodeState] = None
        node: Optional[NodeId] = start
        while node is not None:
            if overlay is None:
                cur_msgw = msgw_tab[node]
                cur_count = count_tab[node]
                cur_total = total_tab[node]
                cur_send = send_tab[node]
                cur_recv = recv_tab[node]
            else:
                entry = overlay.get(node)
                if entry is None:
                    entry = overlay[node] = _SimNodeState(
                        msgw_tab[node],
                        count_tab[node],
                        total_tab[node],
                        send_tab[node],
                        recv_tab[node],
                        changed is not None,
                    )
                cur_msgw = entry.msg_weight
                cur_count = entry.msgw_count
                cur_total = entry.total
                cur_send = entry.send
                cur_recv = entry.recv

            if changed is not None:
                changed, delta = self._refunnel(node, changed, entry, commit)
                moves = bool(changed)

            # -- cached max over {local msgw, children msgw} -----------
            # An absent contributor weighs 0.0 and every present one
            # more, so attaching and detaching are the in-place change
            # from or to 0.0.
            node_msgw = cur_msgw
            node_count = cur_count
            if new_msgw > cur_msgw:
                node_msgw, node_count = new_msgw, 1
            elif new_msgw == cur_msgw:
                if old_msgw != cur_msgw:
                    node_count = cur_count + 1
            elif old_msgw == cur_msgw:
                node_count = cur_count - 1
                if node_count <= 0:
                    node_msgw, node_count = self._rescan_msgw(node, child, new_msgw, overlay)
            if node_msgw != cur_msgw:
                minimal = False
            new_recv = cur_recv + new_send - old_send
            if new_recv < 0.0:
                new_recv = 0.0

            # Outgoing message unchanged: the parent sees no delta.
            # Settle recv (and the msgw contributor count) here and
            # stop walking.
            last = not moves and node_msgw == cur_msgw
            if last:
                node_total, node_send = cur_total, cur_send
            else:
                node_total = cur_total + delta
                node_send = weighted_cost(node_msgw, node_total) if node_msgw > 0.0 else 0.0
            parent = parent_tab[node]
            # Where the root's message grows the collector must absorb it.
            if check and (
                node_send + new_recv > cap_tab[node] + EPSILON
                or (parent is None and not last and node_send > self.central_capacity + EPSILON)
            ):
                self._last_check_fail = node
                self._last_check_fail_minimal = minimal
                return False
            if commit:
                msgw_tab[node] = node_msgw
                count_tab[node] = node_count
                total_tab[node] = node_total
                send_tab[node] = node_send
                recv_tab[node] = new_recv
            elif entry is not None:
                entry.msg_weight = node_msgw
                entry.msgw_count = node_count
                entry.total = node_total
                entry.send = node_send
                entry.recv = new_recv
            if last:
                return True

            # The node itself is the changed child at the next level.
            old_msgw, new_msgw = cur_msgw, node_msgw
            old_send, new_send = cur_send, node_send
            child = node
            node = parent
        return True

    def _refunnel(
        self,
        node: NodeId,
        changed: _ValueDeltas,
        entry: Optional[_SimNodeState],
        commit: bool,
    ) -> Tuple[_ValueDeltas, float]:
        """The aggregation-specific step of one hop of :meth:`_walk`.

        ``changed`` maps each attribute whose weight changed in a
        child's message to its ``(old, new)`` pair.  Applies them to
        ``node``'s incoming values, re-funnels only those attributes
        and returns how ``node``'s own outgoing values change -- the
        same kind of map -- with the change of their total.  ``commit``
        writes the tables; an overlay ``entry`` is read through and
        written to; with neither the step is read-only.
        """
        real_in = self._in[node]
        real_out = self._out[node]
        funnel = self._funnel
        counts = self._in_count[node] if commit else None
        out_pairs: _ValueDeltas = {}
        out_delta = 0.0
        for attr, (ow, nw) in changed.items():
            ref = -1  # unknown; simulations tolerate ~0 residue
            if counts is not None:
                if ow <= 0.0 < nw:
                    counts[attr] = counts.get(attr, 0) + 1
                ref = counts.get(attr, 0)
                if nw <= 0.0 < ow:
                    ref -= 1
                    if ref <= 0:
                        counts.pop(attr, None)
                        ref = 0
                    else:
                        counts[attr] = ref
            if entry is not None and attr in entry.in_values:
                cur_in = entry.in_values[attr]
            else:
                cur_in = real_in.get(attr, 0.0)
            new_in = cur_in + (nw - ow)
            if ref == 0:
                # Last contributor gone: snap the residue to exactly
                # zero so incremental state matches a recompute.
                new_in = 0.0
            if entry is not None and attr in entry.out_values:
                old_out_w = entry.out_values[attr]
            else:
                old_out_w = real_out.get(attr, 0.0)
            new_out_w = funnel(attr, new_in)
            if commit:
                if ref == 0:
                    real_in.pop(attr, None)
                else:
                    real_in[attr] = new_in if new_in > 0.0 else 0.0
            elif entry is not None:
                entry.in_values[attr] = new_in
            if new_out_w != old_out_w:
                out_pairs[attr] = (old_out_w, new_out_w)
                out_delta += new_out_w - old_out_w
                if commit:
                    if new_out_w > 0.0:
                        real_out[attr] = new_out_w
                    else:
                        real_out.pop(attr, None)
                elif entry is not None:
                    entry.out_values[attr] = new_out_w
        return out_pairs, out_delta

    def _rescan_msgw(
        self,
        node: NodeId,
        child: Optional[NodeId],
        replacement: float,
        overlay: Optional[Dict[NodeId, _SimNodeState]],
    ) -> Tuple[float, int]:
        """Recompute the max message weight over {local, children} and
        its contributor count, with the changed ``child``'s weight
        replaced by ``replacement`` (0.0: it is gone)."""
        best = self._local_msgw[node]
        count = 1
        for c in self._children[node]:
            if c == child:
                continue
            w = overlay[c].msg_weight if overlay is not None and c in overlay else self._msgw[c]
            if w > best:
                best, count = w, 1
            elif w == best:
                count += 1
        if replacement > best:
            best, count = replacement, 1
        elif replacement == best:
            count += 1
        return best, count

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Hold every cache against :func:`~repro.trees.recompute.recompute_tree`.

        The recomputation rebuilds each member's content and costs from
        the local demands alone; this method adds what only the tree
        itself can check: the parent/children/depth mirror, the
        message-weight contributor counts, an aggregated tree's
        per-attribute tables, and the capacity snapshot and slices.  Raises
        :class:`TreeInvariantError` on any drift or constraint
        violation.  Intended for tests and debugging; it is O(n * m).
        """
        if not self._parent:
            return
        roots = [n for n, p in self._parent.items() if p is None]
        if roots != [self._root]:
            raise TreeInvariantError(f"expected exactly one root, found {roots}")
        # The recomputation reaches every member exactly once through
        # the children tables (or refuses); each parent pointer must
        # name the node whose children set lists it.
        try:
            acc = recompute_tree(self)
        except ValueError as exc:
            raise TreeInvariantError(str(exc)) from None
        for node, children in self._children.items():
            for child in children:
                if self._parent[child] != node:
                    raise TreeInvariantError(f"parent pointer mismatch at {child}")

        for node, expected in acc.nodes.items():
            parent = self._parent[node]
            if self._depth[node] != (0 if parent is None else self._depth[parent] + 1):
                raise TreeInvariantError(f"depth mismatch at {node}")
            cap = self._cap[node]
            if cap != self._capacities.get(node, 0.0):
                raise TreeInvariantError(
                    f"capacity snapshot drift at {node}: snapshot {cap}, mapping "
                    f"{self._capacities.get(node, 0.0)} (reassign tree.capacities to refresh)"
                )
            children = [acc.nodes[child] for child in self._children[node]]
            weights = [self._local_msgw[node]] + [child.msg_weight for child in children]
            contributors = weights.count(expected.msg_weight)
            for what, cached, actual in (
                ("outgoing total", self._total[node], expected.total_values),
                ("send", self._send[node], expected.send),
                ("recv", self._recv[node], expected.recv),
                ("message weight", self._msgw[node], expected.msg_weight),
                ("message weight contributor count", self._msgw_count[node], contributors),
            ):
                if not matches(cached, actual):
                    raise TreeInvariantError(
                        f"{what} drift at {node}: cached {cached!r}, actual {actual!r}"
                    )
            if self._has_agg:
                self._validate_attribute_tables(node, expected, children)
            if expected.used > cap + BUDGET_TOLERANCE:
                raise TreeInvariantError(
                    f"capacity violated at {node}: used {expected.used}, capacity {cap}"
                )
        if acc.central_used > self.central_capacity + BUDGET_TOLERANCE:
            raise TreeInvariantError(
                f"central capacity violated: {acc.central_used} > {self.central_capacity}"
            )
        if acc.pair_count != self._pair_count:
            raise TreeInvariantError(
                f"pair count drift: cached {self._pair_count}, actual {acc.pair_count}"
            )

    def _validate_attribute_tables(
        self, node: NodeId, expected: NodeAccounting, children: List[NodeAccounting]
    ) -> None:
        """What an aggregated tree caches per attribute, against the
        recomputed incoming and outgoing weights and the refcounts they
        imply (the local demand plus each child forwarding the attribute)."""
        counts = dict.fromkeys(self._local[node], 1)
        for child in children:
            for attr in child.outgoing_values:
                counts[attr] = counts.get(attr, 0) + 1
        if self._in_count[node] != counts:
            raise TreeInvariantError(
                f"incoming refcount drift at {node}: cached {self._in_count[node]}, "
                f"actual {counts}"
            )
        for what, cached, actual in (
            ("incoming", self._in[node], expected.incoming),
            ("outgoing", self._out[node], expected.outgoing_values),
        ):
            if cached.keys() != actual.keys() or not all(
                matches(cached[attr], weight) for attr, weight in actual.items()
            ):
                raise TreeInvariantError(
                    f"{what} weight drift at {node}: cached {cached}, actual {actual}"
                )


def _diff_values(
    old: Dict[AttributeId, float], new: Dict[AttributeId, float]
) -> _ValueDeltas:
    """Per-attribute ``(old, new)`` pairs over the union of two value maps."""
    changed: _ValueDeltas = {}
    for attr, ow in old.items():
        nw = new.get(attr, 0.0)
        if nw != ow:
            changed[attr] = (ow, nw)
    for attr, nw in new.items():
        if attr not in old and nw > 0.0:
            changed[attr] = (0.0, nw)
    return changed

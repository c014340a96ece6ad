"""Runtime configuration: pacing, failure detection, and scripted outages.

The runtime ticks collection periods in seconds of the running event
loop's clock -- wall-clock seconds on asyncio's own loop, virtual ones
on a loop whose ``time()`` is virtual -- but all quality metrics are
kept in *period units*, so results are comparable across machines of
different speed.  What the paper fixes is not configurable:
every message is charged ``C + a*x`` against a budget that always
holds, and liveness rides the trees' own updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.attributes import NodeId


@dataclass(frozen=True)
class AgentOutage:
    """Node ``node`` is dead during periods ``[start, end)``.

    A dead agent sends no updates and drops anything it receives --
    the collector's failure detector should flag it, and flag the
    recovery once it is heard again.
    """

    node: NodeId
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"outage start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ValueError(
                f"outage window must have end > start, got [{self.start}, {self.end})"
            )

    def covers(self, period: int) -> bool:
        return self.start <= period < self.end


@dataclass
class RuntimeConfig:
    """Tunable knobs of one live run."""

    #: Seconds, on the event loop's clock, from one tick to the next.
    #: A period closes as soon as every tree's root has reported, and at
    #: the latest twice this long after its tick.
    period_seconds: float = 0.05
    #: How long (as a fraction of the period) a tree's root waits for its
    #: children's batches before sending without them; a relay at depth
    #: ``d`` of a height-``H`` tree waits ``1 - d / (2 (H + 1))`` of that.
    #: The wave is event-driven, so this binds only when a child is
    #: dead, dropped, or late.
    child_wait_fraction: float = 0.5
    #: Collector flags a node as failed after this many periods unheard.
    failure_timeout: int = 3
    #: Seed for the ground-truth metric registry (when the engine
    #: constructs one itself).
    seed: Optional[int] = None
    #: Scripted node outages (crash/recovery scenarios).
    outages: List[AgentOutage] = field(default_factory=lambda: [])

    def __post_init__(self) -> None:
        if not 0 < self.period_seconds < math.inf:
            raise ValueError(f"period_seconds must be finite and > 0, got {self.period_seconds}")
        if not 0 < self.child_wait_fraction <= 1:
            raise ValueError(
                f"child_wait_fraction must be in (0, 1], got {self.child_wait_fraction}"
            )
        if self.failure_timeout < 1:
            raise ValueError(f"failure_timeout must be >= 1, got {self.failure_timeout}")

    @property
    def child_wait_seconds(self) -> float:
        """A root's child-wait deadline per period, in event-loop seconds."""
        return self.child_wait_fraction * self.period_seconds

    def node_down(self, node: NodeId, period: int) -> bool:
        """Whether ``node`` is scripted dead during ``period``."""
        return any(o.node == node and o.covers(period) for o in self.outages)

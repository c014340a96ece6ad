"""Live asyncio execution of a monitoring plan.

Where :mod:`repro.simulation` *scores* a
:class:`~repro.core.plan.MonitoringPlan` in a lock-step discrete-event
simulator (which drives this package's own agents and collector), this
package *runs* one: every cluster node becomes a
concurrent :class:`~repro.runtime.agent.NodeAgent` task, the central
collector becomes a :class:`~repro.runtime.collector.CollectorAgent`,
and update messages travel over a pluggable
:class:`~repro.runtime.transport.Transport` (in-process mailboxes
here, framed TCP in :mod:`repro.net`).

The behaviours the analytical evaluation cannot show live here:
per-period ``C + a*x`` capacity budgets that always hold (a payload
the budget cannot carry is trimmed),
failure detection at the collector from what the trees report, per-pair
staleness, and real message-passing concurrency.
A :class:`~repro.runtime.metrics.RuntimeMetrics` hub records counters
and histograms and renders through :mod:`repro.analysis`.
"""

from repro.runtime.agent import NodeAgent, TreeRole
from repro.runtime.collector import CollectorAgent, FailureEvent
from repro.runtime.config import AgentOutage, RuntimeConfig
from repro.runtime.engine import MonitoringRuntime, build_roles, compile_layouts
from repro.runtime.messages import (
    COLLECTOR_ADDRESS,
    Batch,
    Envelope,
    StopEnvelope,
    TickEnvelope,
    TreeLayout,
    UpdateEnvelope,
)
from repro.runtime.metrics import Histogram, RuntimeMetrics
from repro.runtime.report import RuntimePeriodSample, RuntimeReport
from repro.runtime.transport import (
    InProcessTransport,
    MailboxTransport,
    Transport,
    UnknownAddressError,
)

__all__ = [
    "AgentOutage",
    "COLLECTOR_ADDRESS",
    "Batch",
    "CollectorAgent",
    "build_roles",
    "compile_layouts",
    "Envelope",
    "FailureEvent",
    "Histogram",
    "InProcessTransport",
    "MailboxTransport",
    "MonitoringRuntime",
    "NodeAgent",
    "RuntimeConfig",
    "RuntimeMetrics",
    "RuntimePeriodSample",
    "RuntimeReport",
    "StopEnvelope",
    "TickEnvelope",
    "Transport",
    "TreeLayout",
    "TreeRole",
    "UnknownAddressError",
    "UpdateEnvelope",
]

"""The control-plane service (``repro serve``).

Monitoring-as-a-service on top of the planner/runtime stack: a
long-running asyncio HTTP API through which *tenants* submit, update,
and delete monitoring tasks, trigger online adaptation, launch live
runs, and scrape Prometheus metrics.  Task namespaces are isolated per
tenant (de-duplication scoped per tenant, unioned for planning), and
every tree of the resulting forest reports to the one central
collector.

Layering mirrors the rest of the repo: :mod:`repro.serve.http` is a
dependency-free HTTP/1.1 server, :mod:`repro.serve.controlplane` owns
the state machine, :mod:`repro.serve.server` binds the two, and
:mod:`repro.serve.client` is the synchronous driver for tests, CI, and
the churn benchmark.
"""

from repro.serve.controlplane import ControlPlane, NoPlanError, parse_task, task_as_dict
from repro.serve.client import ControlPlaneClient, ControlPlaneClientError
from repro.serve.http import HttpError, HttpRequest, HttpResponse, HttpServer, Router
from repro.serve.server import ControlPlaneServer, run_serve

__all__ = [
    "ControlPlane",
    "ControlPlaneClient",
    "ControlPlaneClientError",
    "ControlPlaneServer",
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "HttpServer",
    "NoPlanError",
    "Router",
    "parse_task",
    "run_serve",
    "task_as_dict",
]

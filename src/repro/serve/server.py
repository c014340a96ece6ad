"""HTTP surface of the control plane (``repro serve``).

Routes (JSON in/out unless noted):

- ``GET  /health`` -- liveness probe;
- ``GET  /status`` -- tenants, staged ops, adaptation/run counts;
- ``GET  /metrics`` -- Prometheus text scrape of the service registry;
- ``GET  /tenants`` -- tenant names;
- ``GET  /tenants/{tenant}/tasks`` -- the tenant's tasks;
- ``POST /tenants/{tenant}/tasks`` -- submit a task
  (``{"task_id", "attributes", "nodes", "frequency"?}``);
- ``GET/PUT/DELETE /tenants/{tenant}/tasks/{task_id}`` -- inspect,
  update, or retire one task;
- ``POST /adapt`` -- apply staged ops and replan
  (``{"force_rebuild"?: bool}``);
- ``GET  /adaptations`` -- the adaptation log;
- ``GET  /plan`` -- current plan summary;
- ``POST /run`` -- run the plan live (``{"periods"?: int}``);
- ``GET  /reports`` -- archived run reports (JSON array);
- ``GET  /reports/stream`` -- the same reports as NDJSON, one per line.

Task mutations stage; ``POST /adapt`` applies.  All handlers run on
one event loop, so control-plane state needs no locking -- a run in
flight simply delays queued requests, mirroring the collector-driven
clock in ``repro deploy``.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Dict, Optional

from repro.core.tasks import (
    DuplicateTaskError,
    InvalidTenantError,
    UnknownTaskError,
)
from repro.obs import log, names
from repro.obs.export import prometheus_text
from repro.serve.controlplane import ControlPlane, NoPlanError, parse_task, task_as_dict
from repro.serve.http import HttpError, HttpRequest, HttpResponse, HttpServer, Router

#: Default number of periods for ``POST /run``.
DEFAULT_RUN_PERIODS = 5
#: Cap on periods per HTTP-triggered run; longer runs belong in
#: ``repro run``/``repro deploy``, not a request handler.
MAX_RUN_PERIODS = 10_000


class ControlPlaneServer:
    """Bind a :class:`ControlPlane` to an :class:`HttpServer`."""

    def __init__(
        self, controlplane: ControlPlane, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.controlplane = controlplane
        router = Router()
        router.add("GET", "/health", self._health)
        router.add("GET", "/status", self._status)
        router.add("GET", "/metrics", self._metrics)
        router.add("GET", "/tenants", self._tenants)
        router.add("GET", "/tenants/{tenant}/tasks", self._list_tasks)
        router.add("POST", "/tenants/{tenant}/tasks", self._submit_task)
        router.add("GET", "/tenants/{tenant}/tasks/{task_id}", self._get_task)
        router.add("PUT", "/tenants/{tenant}/tasks/{task_id}", self._update_task)
        router.add("DELETE", "/tenants/{tenant}/tasks/{task_id}", self._delete_task)
        router.add("POST", "/adapt", self._adapt)
        router.add("GET", "/adaptations", self._adaptations)
        router.add("GET", "/plan", self._plan)
        router.add("POST", "/run", self._run)
        router.add("GET", "/reports", self._reports)
        router.add("GET", "/reports/stream", self._reports_stream)
        self.http = HttpServer(
            router,
            host=host,
            port=port,
            observer=self._observe_request,
            on_connection=self._observe_connection,
        )

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        await self.http.start()

    async def stop(self) -> None:
        await self.http.stop()

    @property
    def port(self) -> int:
        return self.http.port

    @property
    def host(self) -> str:
        return self.http.host

    # -- request telemetry ---------------------------------------------
    def _observe_request(self, method: str, path: str, status: int, seconds: float) -> None:
        registry = self.controlplane.metrics
        registry.incr(names.SERVE_REQUESTS_TOTAL, method=method, status=status)
        registry.observe(names.SERVE_REQUEST_SECONDS, seconds, method=method)
        if status >= 400:
            registry.incr(names.SERVE_ERRORS_TOTAL, status=status)

    def _observe_connection(self) -> None:
        self.controlplane.metrics.incr(names.SERVE_CONNECTIONS_TOTAL)

    # -- handlers ------------------------------------------------------
    async def _health(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        return HttpResponse.json_response({"ok": True})

    async def _status(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        return HttpResponse.json_response(self.controlplane.status())

    async def _metrics(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        text = prometheus_text(self.controlplane.metrics)
        return HttpResponse.text(text, content_type="text/plain; version=0.0.4")

    async def _tenants(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        return HttpResponse.json_response({"tenants": self.controlplane.tenants.tenants()})

    async def _list_tasks(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        tasks = self.controlplane.tenants.tasks(params["tenant"])
        return HttpResponse.json_response(
            {"tenant": params["tenant"], "tasks": [task_as_dict(t) for t in tasks]}
        )

    async def _submit_task(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        task = self._parse_task(request, task_id=None)
        try:
            self.controlplane.submit_task(params["tenant"], task)
        except DuplicateTaskError as exc:
            raise HttpError(
                409, f"task {exc.args[0]!r} already exists for tenant {params['tenant']!r}"
            ) from None
        except InvalidTenantError as exc:
            raise HttpError(400, str(exc)) from None
        return HttpResponse.json_response(
            {"tenant": params["tenant"], "task": task_as_dict(task), "staged": True},
            status=201,
        )

    async def _get_task(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        task = self._resolve_task(params)
        return HttpResponse.json_response(
            {"tenant": params["tenant"], "task": task_as_dict(task)}
        )

    async def _update_task(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        task = self._parse_task(request, task_id=params["task_id"])
        try:
            self.controlplane.update_task(params["tenant"], task)
        except UnknownTaskError:
            raise HttpError(404, self._unknown_task(params)) from None
        except InvalidTenantError as exc:
            raise HttpError(400, str(exc)) from None
        return HttpResponse.json_response(
            {"tenant": params["tenant"], "task": task_as_dict(task), "staged": True}
        )

    async def _delete_task(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        try:
            self.controlplane.delete_task(params["tenant"], params["task_id"])
        except UnknownTaskError:
            raise HttpError(404, self._unknown_task(params)) from None
        return HttpResponse.json_response(
            {"tenant": params["tenant"], "task_id": params["task_id"], "staged": True}
        )

    async def _adapt(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        body = request.json()
        force = body.get("force_rebuild", False) if isinstance(body, dict) else False
        if not isinstance(force, bool):
            raise HttpError(400, f"force_rebuild must be a JSON bool, got {force!r}")
        try:
            record = self.controlplane.adapt(force_rebuild=force)
        except NoPlanError as exc:
            raise HttpError(409, str(exc)) from None
        return HttpResponse.json_response(record)

    async def _adaptations(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        return HttpResponse.json_response({"adaptations": self.controlplane.adaptations})

    async def _plan(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        try:
            return HttpResponse.json_response(self.controlplane.plan_summary())
        except NoPlanError as exc:
            raise HttpError(409, str(exc)) from None

    async def _run(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        body = request.json()
        periods = DEFAULT_RUN_PERIODS
        if isinstance(body, dict) and "periods" in body:
            periods = body["periods"]
            if isinstance(periods, bool) or not isinstance(periods, int):
                raise HttpError(400, f"periods must be a JSON integer, got {periods!r}")
        if not 1 <= periods <= MAX_RUN_PERIODS:
            raise HttpError(400, f"periods must be in [1, {MAX_RUN_PERIODS}], got {periods}")
        try:
            payload = await self.controlplane.run(periods)
        except NoPlanError as exc:
            raise HttpError(409, str(exc)) from None
        return HttpResponse.json_response(payload)

    async def _reports(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        return HttpResponse.json_response({"reports": self.controlplane.reports})

    async def _reports_stream(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        lines = "".join(
            json.dumps(report, sort_keys=True) + "\n"
            for report in self.controlplane.reports
        )
        return HttpResponse.text(lines, content_type="application/x-ndjson")

    # -- helpers -------------------------------------------------------
    def _parse_task(self, request: HttpRequest, task_id: Optional[str]):
        try:
            return parse_task(request.json(), task_id=task_id)
        except (ValueError, TypeError) as exc:
            raise HttpError(400, str(exc)) from None

    def _resolve_task(self, params: Dict[str, str]):
        try:
            return self.controlplane.get_task(params["tenant"], params["task_id"])
        except UnknownTaskError:
            raise HttpError(404, self._unknown_task(params)) from None

    @staticmethod
    def _unknown_task(params: Dict[str, str]) -> str:
        return f"tenant {params['tenant']!r} has no task {params['task_id']!r}"


def _write_announce(path: str, host: str, port: int) -> None:
    """Persist the bound endpoint for scripts that picked port 0."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"host": host, "port": port}, fh)
        fh.write("\n")


async def _serve_async(
    server: ControlPlaneServer,
    announce: Optional[str],
    max_seconds: Optional[float],
) -> None:
    await server.start()
    if announce:
        _write_announce(announce, server.host, server.port)
    # Structured instead of an ad-hoc print: the event lands in the
    # flight-recorder ring (and any JSONL sink) with trace identity,
    # and echoes one human-readable line to stdout.
    log.set_console(sys.stdout)
    try:
        log.emit(
            names.LOG_SERVE_READY,
            lane=names.LANE_SERVE,
            host=server.host,
            port=server.port,
            url=f"http://{server.host}:{server.port}",
        )
        if max_seconds is not None:
            await asyncio.sleep(max_seconds)
        else:
            while True:
                await asyncio.sleep(3600.0)
    finally:
        await server.stop()
        log.emit(names.LOG_SERVE_STOPPED, lane=names.LANE_SERVE)
        log.set_console(None)


def run_serve(
    controlplane: ControlPlane,
    host: str = "127.0.0.1",
    port: int = 0,
    announce: Optional[str] = None,
    max_seconds: Optional[float] = None,
) -> None:
    """Blocking entry point behind ``repro serve``.

    ``port=0`` binds an ephemeral port; ``announce`` writes the bound
    ``{"host", "port"}`` to a JSON file so callers can find it.
    ``max_seconds`` bounds the lifetime (CI smoke jobs); the default is
    to serve until interrupted.
    """
    server = ControlPlaneServer(controlplane, host=host, port=port)
    try:
        asyncio.run(_serve_async(server, announce, max_seconds))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass

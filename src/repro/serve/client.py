"""A small synchronous client for the control-plane API.

Built on stdlib ``http.client`` so tests, CI smoke jobs, and the churn
benchmark can drive ``repro serve`` without pulling in an HTTP
library.  Synchronous on purpose: callers are load generators and test
harnesses living outside the server's event loop, where blocking I/O
is the simple and correct tool.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, List, Optional


class ControlPlaneClientError(RuntimeError):
    """A non-2xx response from the control plane."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ControlPlaneClient:
    """One keep-alive connection to a control-plane server."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._conn = http.client.HTTPConnection(host, port, timeout=30.0)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ControlPlaneClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Any:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (ConnectionError, http.client.HTTPException):
            # One reconnect: the server may have idled out the keep-alive.
            self._conn.close()
            self._conn.connect()
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        content_type = response.getheader("Content-Type", "")
        # NDJSON ("application/x-ndjson") is many documents, not one --
        # it must take the text path and be split line-by-line upstream.
        if "application/json" in content_type:
            decoded: Any = json.loads(raw) if raw else {}
        else:
            decoded = raw.decode("utf-8")
        if response.status >= 400:
            message = (
                decoded.get("error", raw.decode("utf-8", "replace"))
                if isinstance(decoded, dict)
                else str(decoded)
            )
            raise ControlPlaneClientError(response.status, message)
        return decoded

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def status(self) -> Dict[str, Any]:
        return self._request("GET", "/status")

    def metrics_text(self) -> str:
        return self._request("GET", "/metrics")

    def tenants(self) -> List[str]:
        return self._request("GET", "/tenants")["tenants"]

    def list_tasks(self, tenant: str) -> List[Dict[str, Any]]:
        return self._request("GET", f"/tenants/{tenant}/tasks")["tasks"]

    def submit_task(
        self, tenant: str, task_id: str, attributes: List[str], nodes: List[int]
    ) -> Dict[str, Any]:
        return self._request(
            "POST",
            f"/tenants/{tenant}/tasks",
            {"task_id": task_id, "attributes": attributes, "nodes": nodes},
        )

    def get_task(self, tenant: str, task_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/tenants/{tenant}/tasks/{task_id}")["task"]

    def update_task(
        self, tenant: str, task_id: str, attributes: List[str], nodes: List[int]
    ) -> Dict[str, Any]:
        return self._request(
            "PUT",
            f"/tenants/{tenant}/tasks/{task_id}",
            {"attributes": attributes, "nodes": nodes},
        )

    def delete_task(self, tenant: str, task_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/tenants/{tenant}/tasks/{task_id}")

    def adapt(self, force_rebuild: bool = False) -> Dict[str, Any]:
        return self._request("POST", "/adapt", {"force_rebuild": force_rebuild})

    def adaptations(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/adaptations")["adaptations"]

    def plan(self) -> Dict[str, Any]:
        return self._request("GET", "/plan")

    def run(self, periods: int) -> Dict[str, Any]:
        return self._request("POST", "/run", {"periods": periods})

    def reports(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/reports")["reports"]

    def reports_stream(self) -> List[Dict[str, Any]]:
        text = self._request("GET", "/reports/stream")
        return [json.loads(line) for line in text.splitlines() if line.strip()]

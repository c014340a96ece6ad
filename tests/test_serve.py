"""End-to-end tests for the control-plane service (`repro serve`).

A real :class:`ControlPlaneServer` runs on an ephemeral port in a
background thread; every interaction goes over HTTP through the
synchronous :class:`ControlPlaneClient`, exactly as an operator's
script would.
"""

import asyncio
import http.client
import json
import re
import threading

import pytest

from repro.core.attributes import NodeAttributePair
from repro.obs import names, trace
from repro.obs.export import check_prometheus_text, parse_prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.runtime import RuntimeConfig
from repro.serve import (
    ControlPlane,
    ControlPlaneClient,
    ControlPlaneClientError,
    ControlPlaneServer,
    HttpResponse,
    HttpServer,
    Router,
)
from repro.workloads.presets import quickstart_workload

FAST = RuntimeConfig(period_seconds=0.02, seed=3)


class ServerThread:
    """A control-plane server on its own event loop, in a thread."""

    def __init__(self, controlplane):
        self._controlplane = controlplane
        self._server = None
        self._loop = None
        self._stop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._server = ControlPlaneServer(self._controlplane, port=0)
        await self._server.start()
        self._ready.set()
        await self._stop.wait()
        await self._server.stop()

    def start(self):
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("control-plane server failed to start")
        return self._server.port

    def stop(self):
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10.0)


@pytest.fixture()
def controlplane():
    cluster, cost, _tasks = quickstart_workload()
    return ControlPlane(
        cluster, cost, collectors=2, config=FAST, metrics=MetricsRegistry()
    )


@pytest.fixture()
def client(controlplane):
    server = ServerThread(controlplane)
    port = server.start()
    with ControlPlaneClient("127.0.0.1", port) as cli:
        yield cli
    server.stop()


@pytest.fixture()
def server_port(controlplane):
    server = ServerThread(controlplane)
    port = server.start()
    yield port
    server.stop()


class TestTraceparent:
    """Every response carries a W3C traceparent; inbound ones are adopted."""

    PATTERN = re.compile(r"^00-([0-9a-f]{32})-[0-9a-f]{16}-01$")
    INBOUND = "00-" + "ab" * 16 + "-00000000000000ff-01"

    def _get(self, port, headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("GET", "/health", headers=headers or {})
            response = conn.getresponse()
            response.read()
            return response.getheader("traceparent")
        finally:
            conn.close()

    def test_response_mints_traceparent(self, server_port):
        header = self._get(server_port)
        match = self.PATTERN.match(header or "")
        assert match, f"malformed traceparent {header!r}"
        assert match.group(1) != "0" * 32

    def test_inbound_traceparent_adopted(self, server_port):
        header = self._get(server_port, headers={"traceparent": self.INBOUND})
        match = self.PATTERN.match(header or "")
        assert match
        assert match.group(1) == "ab" * 16  # same trace, the server's span

    def test_request_span_joins_inbound_trace(self, server_port):
        with trace.installed() as tracer:
            self._get(server_port, headers={"traceparent": self.INBOUND})
            spans = [
                s for s in tracer.spans() if s.name == names.SPAN_SERVE_REQUEST
            ]
        assert spans, "no serve.request span recorded"
        (span,) = spans
        assert span.trace_id == "ab" * 16
        assert span.attrs["path"] == "/health"
        assert span.attrs["status"] == 200


class TestTwoTenantEndToEnd:
    """The acceptance scenario: two tenants, overlapping tasks, two
    collector shards, online adaptation, reconciled metrics."""

    def test_full_lifecycle(self, controlplane, client):
        assert client.health()["ok"] is True
        # Overlapping submissions: both tenants want attr00/attr01 on
        # nodes 0-5; beta additionally wants attr02.
        client.submit_task("acme", "cpu", ["attr00", "attr01"], [0, 1, 2, 3, 4, 5])
        client.submit_task("beta", "cpu", ["attr00", "attr01"], [0, 1, 2, 3, 4, 5])
        client.submit_task("beta", "mem", ["attr02"], [0, 1, 2, 3])

        # Per-tenant dedup: the planner-side pair set is the union, so
        # the overlapping pairs are counted once.
        status = client.status()
        assert status["tenants"] == ["acme", "beta"]
        assert status["tasks"] == 3
        assert status["pairs"] == 6 * 2 + 4  # union, not 6*2 + 6*2 + 4
        assert status["pending_ops"] == 3
        overlap = NodeAttributePair(0, "attr00")
        assert overlap in controlplane.tenants.pairs()

        # First adaptation builds the plan and shards the collectors.
        record = client.adapt()
        assert record["coverage"] == pytest.approx(1.0)
        assert record["shards"]["shards"] == 2
        plan = client.plan()
        assert plan["coverage"] == pytest.approx(1.0)
        assert plan["shards"]["shards"] == 2

        report = client.run(4)
        assert report["coverage"]["final"] == pytest.approx(1.0)
        assert report["collectors"] == 2
        assert report["periods"] == 4
        assert len(report["per_period"]) == 4

        # Online adaptation: beta retires a task, acme grows one; the
        # shared pairs survive because acme still needs them.
        client.delete_task("beta", "cpu")
        client.submit_task("acme", "disk", ["attr03"], [0, 1])
        record2 = client.adapt()
        assert record2["sequence"] == 1
        assert record2["ops"] == 2
        assert overlap in controlplane.tenants.pairs()
        report2 = client.run(4)
        assert report2["coverage"]["final"] == pytest.approx(1.0)
        assert report2["run"] == 1

        # /metrics reconciles with the run reports: both are views of
        # the same registry, so the scrape equals the latest report's
        # cumulative counter (run 2's snapshot includes run 1).
        prom = client.metrics_text()
        assert check_prometheus_text(prom) == []
        samples = parse_prometheus_text(prom)
        sent = sum(
            value
            for series, value in samples.items()
            if series == "messages_sent" or series.startswith("messages_sent{")
        )
        assert sent == report2["messages"]["sent"]
        assert sent > report["messages"]["sent"] > 0
        runs = sum(
            value
            for series, value in samples.items()
            if series.startswith("controlplane_runs_total")
        )
        assert runs == 2.0
        adapts = sum(
            value
            for series, value in samples.items()
            if series.startswith("controlplane_adaptations_total")
        )
        assert adapts == 2.0

        # The report archive and its NDJSON stream agree.
        archived = client.reports()
        assert [r["run"] for r in archived] == [0, 1]
        streamed = client.reports_stream()
        assert streamed == sorted(
            (json.loads(json.dumps(r, sort_keys=True)) for r in archived),
            key=lambda r: r["run"],
        )


class TestErrorMapping:
    def test_duplicate_task_is_409(self, client):
        client.submit_task("acme", "cpu", ["attr00"], [0, 1])
        with pytest.raises(ControlPlaneClientError) as err:
            client.submit_task("acme", "cpu", ["attr00"], [0, 1])
        assert err.value.status == 409

    def test_unknown_task_is_404(self, client):
        with pytest.raises(ControlPlaneClientError) as err:
            client.get_task("ghost", "nothing")
        assert err.value.status == 404
        with pytest.raises(ControlPlaneClientError) as err:
            client.delete_task("ghost", "nothing")
        assert err.value.status == 404

    def test_bad_task_id_is_400(self, client):
        # A separator in the tenant segment never reaches the handler
        # (the router 404s the malformed path); a separator in the
        # JSON-carried task id is the namespace-integrity 400.
        with pytest.raises(ControlPlaneClientError) as err:
            client.submit_task("acme", "bad/task", ["attr00"], [0])
        assert err.value.status == 400

    def test_adapt_without_changes_is_409(self, client):
        with pytest.raises(ControlPlaneClientError) as err:
            client.adapt()
        assert err.value.status == 409

    def test_run_without_plan_is_409(self, client):
        with pytest.raises(ControlPlaneClientError) as err:
            client.run(2)
        assert err.value.status == 409

    def test_bad_periods_is_400(self, client):
        client.submit_task("acme", "cpu", ["attr00"], [0, 1])
        client.adapt()
        with pytest.raises(ControlPlaneClientError) as err:
            client.run(0)
        assert err.value.status == 400


class TestTaskBodyValidation:
    """A task body is taken as JSON types, never coerced: what GET
    renders is exactly what was stored."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nodes", [3.7]),
            ("nodes", [True]),
            ("nodes", ["4"]),
            ("attributes", [1, 2]),
            ("attributes", [""]),
            ("frequency", True),
        ],
    )
    def test_uncoerced_field_is_400(self, client, field, value):
        body = {"task_id": "cpu", "attributes": ["attr00"], "nodes": [0, 1], field: value}
        with pytest.raises(ControlPlaneClientError) as err:
            client._request("POST", "/tenants/acme/tasks", body)
        assert err.value.status == 400
        assert field in err.value.message
        assert client.tenants() == []

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_uncoerced_force_rebuild_is_400(self, client, value):
        client.submit_task("acme", "cpu", ["attr00"], [0, 1])
        with pytest.raises(ControlPlaneClientError) as err:
            client._request("POST", "/adapt", {"force_rebuild": value})
        assert err.value.status == 400
        assert "force_rebuild" in err.value.message and "\n" not in err.value.message
        assert client.adaptations() == []

    @pytest.mark.parametrize("value", [True, 2.9, "5"])
    def test_uncoerced_periods_is_400(self, client, value):
        client.submit_task("acme", "cpu", ["attr00"], [0, 1])
        client.adapt()
        with pytest.raises(ControlPlaneClientError) as err:
            client._request("POST", "/run", {"periods": value})
        assert err.value.status == 400
        assert "periods" in err.value.message and "\n" not in err.value.message
        assert client.reports() == []

    def test_get_put_round_trip_changes_nothing(self, controlplane, client):
        client._request("POST", "/tenants/acme/tasks", {
            "task_id": "cpu", "attributes": ["attr01", "attr00"], "nodes": [5, 0, 3],
            "frequency": 0.5,
        })
        first = client.adapt()
        before = client.get_task("acme", "cpu")
        pairs = controlplane.tenants.pairs()
        client._request("PUT", "/tenants/acme/tasks/cpu", {
            key: before[key] for key in ("attributes", "nodes", "frequency")
        })
        assert client.get_task("acme", "cpu") == before
        assert controlplane.tenants.pairs() == pairs
        # The staged modify nets to nothing: the plan does not move.
        record = client.adapt()
        assert record["requested_pairs"] == first["requested_pairs"]
        assert record["coverage"] == first["coverage"]
        assert record["adaptation_messages"] == 0


class TestHostileHeads:
    """Malformed or truncated requests get a 4xx or a clean close, and
    nothing reaches the event loop's exception handler."""

    VALID_POST = (
        b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 14\r\n\r\n"
        b'{"echo": true}'
    )

    @staticmethod
    def exchange(payloads):
        """Send each payload on its own connection, half-close, and
        return every reply plus what the loop's exception handler saw."""

        async def echo(request, params):
            return HttpResponse.json_response({"bytes": len(request.body)})

        async def main():
            loop = asyncio.get_running_loop()
            unhandled = []
            loop.set_exception_handler(lambda _loop, context: unhandled.append(context))
            router = Router()
            router.add("POST", "/echo", echo)
            server = HttpServer(router)
            await server.start()
            replies = []
            try:
                for payload in payloads:
                    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                    writer.write(payload)
                    writer.write_eof()
                    replies.append(await asyncio.wait_for(reader.read(), timeout=5))
                    writer.close()
                    await writer.wait_closed()
                await asyncio.sleep(0.05)  # let the last handler finish
            finally:
                await server.stop()
            return replies, unhandled

        return asyncio.run(main())

    @pytest.mark.parametrize("value", [b"abc", b"-5", b"1e3"])
    def test_malformed_content_length_is_400(self, value):
        head = b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: " + value + b"\r\n\r\n"
        (reply,), unhandled = self.exchange([head])
        assert reply.startswith(b"HTTP/1.1 400 "), reply
        assert b"Content-Length" in reply
        assert unhandled == []

    def test_truncated_post_closes_cleanly_at_every_offset(self):
        request = self.VALID_POST
        replies, unhandled = self.exchange(
            [request[:cut] for cut in range(len(request))] + [request]
        )
        *truncated, whole = replies
        assert whole.startswith(b"HTTP/1.1 200 "), whole
        for cut, reply in enumerate(truncated):
            assert reply == b"" or reply.startswith(b"HTTP/1.1 4"), (cut, reply)
        assert unhandled == []

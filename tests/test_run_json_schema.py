"""Schema checks for ``repro run --json`` / ``repro simulate --json``
and the ``--metrics`` export.

Golden-*key* assertions, not golden values: runs are timing-sensitive,
so these tests pin the shape consumers (CI, dashboards) rely on, and
check that the Prometheus snapshot reconciles with the report -- both
are views of the same registry, so they can never legitimately drift.
"""

import json

import pytest

from repro.cli import main
from repro.obs.export import check_prometheus_text, parse_prometheus_text

RUN_ARGS = [
    "run",
    "--nodes",
    "24",
    "--tasks",
    "6",
    "--periods",
    "3",
    "--period-seconds",
    "0.03",
    "--json",
]


@pytest.fixture(scope="module")
def run_output(tmp_path_factory):
    """One shared live run with --json, --trace, and --metrics."""
    tmp = tmp_path_factory.mktemp("run_schema")
    trace_path = tmp / "run.trace.json"
    metrics_path = tmp / "run.prom"
    import contextlib
    import io

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(
            RUN_ARGS + ["--trace", str(trace_path), "--metrics", str(metrics_path)]
        )
    assert code == 0
    return (
        json.loads(stdout.getvalue()),
        trace_path.read_text(),
        metrics_path.read_text(),
    )


RUN_KEYS = {
    "command",
    "scheme",
    "workload",
    "plan",
    "plan_check",
    "requested_pairs",
    "periods",
    "wall_seconds",
    "coverage",
    "mean_percentage_error",
    "messages",
    "values",
    "cost_units_spent",
    "failure_events",
    "per_period",
    "metrics",
}


def _prom_total(samples, base):
    """Sum of every Prometheus series named ``base``, labels collapsed."""
    return sum(v for k, v in samples.items() if k == base or k.startswith(base + "{"))


class TestRunJsonSchema:
    def test_top_level_keys(self, run_output):
        payload, _trace, _prom = run_output
        assert RUN_KEYS <= set(payload)

    def test_nested_keys(self, run_output):
        payload, _trace, _prom = run_output
        assert set(payload["coverage"]) == {"mean", "final", "fresh_mean"}
        assert set(payload["messages"]) == {
            "sent",
            "delivered",
            "dropped_capacity",
            "dropped_failure",
        }
        assert set(payload["values"]) == {"trimmed"}
        assert set(payload["plan"]) >= {
            "coverage",
            "collected_pairs",
            "requested_pairs",
            "trees",
            "traffic_per_period",
        }
        for sample in payload["per_period"]:
            assert set(sample) == {"period", "coverage", "fresh", "mean_error"}

    def test_metrics_block_shape(self, run_output):
        payload, _trace, _prom = run_output
        metrics = payload["metrics"]
        assert set(metrics) == {"counters", "histograms"}
        # Counters in the report are label-collapsed base names.
        assert all("{" not in name for name in metrics["counters"])
        for summary in metrics["histograms"].values():
            assert set(summary) == {"count", "mean", "p50", "p95", "max"}

    def test_value_types(self, run_output):
        payload, _trace, _prom = run_output
        assert isinstance(payload["periods"], int)
        assert isinstance(payload["wall_seconds"], float)
        for value in payload["messages"].values():
            assert isinstance(value, int)


class TestPrometheusReconciliation:
    def test_snapshot_is_well_formed(self, run_output):
        _payload, _trace, prom = run_output
        assert check_prometheus_text(prom) == []

    def test_counters_reconcile_with_report(self, run_output):
        payload, _trace, prom = run_output
        samples = parse_prometheus_text(prom)
        messages = payload["messages"]
        assert _prom_total(samples, "messages_sent") == messages["sent"]
        assert _prom_total(samples, "messages_delivered") == messages["delivered"]
        assert (
            _prom_total(samples, "messages_dropped_capacity") == messages["dropped_capacity"]
        )
        assert _prom_total(samples, "messages_dropped_failure") == messages["dropped_failure"]
        assert _prom_total(samples, "heartbeats_sent") == 0  # liveness rides the updates
        assert _prom_total(samples, "cost_units_spent") == pytest.approx(
            payload["cost_units_spent"]
        )


class TestSimulateJsonSchema:
    """``repro simulate --json`` reports through the same
    :class:`~repro.runtime.report.RuntimeReport` as ``run``, under the
    same metric names, minus the launch gate's ``plan_check``."""

    @pytest.fixture(scope="class")
    def simulate_output(self, tmp_path_factory):
        import contextlib
        import io

        metrics_path = tmp_path_factory.mktemp("simulate_schema") / "sim.prom"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(
                ["simulate", "--nodes", "24", "--tasks", "6", "--periods", "3", "--json"]
                + ["--metrics", str(metrics_path)]
            )
        assert code == 0
        return json.loads(stdout.getvalue()), metrics_path.read_text()

    def test_top_level_keys_are_runs_without_plan_check(self, simulate_output):
        payload, _prom = simulate_output
        assert payload["command"] == "simulate"
        assert set(payload) == RUN_KEYS - {"plan_check"}

    def test_messages_sent_reconciles_with_report(self, simulate_output):
        payload, prom = simulate_output
        assert check_prometheus_text(prom) == []
        sent = _prom_total(parse_prometheus_text(prom), "messages_sent")
        assert sent == payload["messages"]["sent"] > 0

    def test_no_series_is_sim_prefixed(self, simulate_output):
        payload, prom = simulate_output
        series = set(parse_prometheus_text(prom)) | set(payload["metrics"]["counters"])
        assert not [name for name in series if name.startswith("sim_")]


class TestTraceArtifact:
    def test_chrome_trace_loads_and_is_monotonic(self, run_output):
        _payload, trace_text, _prom = run_output
        trace_doc = json.loads(trace_text)
        events = trace_doc["traceEvents"]
        assert events
        last = {}
        for event in events:
            if event["ph"] == "M":
                continue
            key = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(key, 0.0)
            last[key] = event["ts"]

    def test_trace_covers_runtime_actors(self, run_output):
        _payload, trace_text, _prom = run_output
        events = json.loads(trace_text)["traceEvents"]
        names = {e["name"] for e in events}
        assert {"runtime.period", "agent.wave", "collector.close_period"} <= names
        lanes = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "engine" in lanes
        assert "collector" in lanes
        assert any(lane.startswith("node-") for lane in lanes)


class TestIsolationBetweenInvocations:
    def test_two_runs_do_not_bleed_counters(self, tmp_path):
        import contextlib
        import io

        outputs = []
        for idx in range(2):
            metrics_path = tmp_path / f"m{idx}.prom"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(RUN_ARGS + ["--metrics", str(metrics_path)]) == 0
            payload = json.loads(stdout.getvalue())
            samples = parse_prometheus_text(metrics_path.read_text())
            sent = sum(
                v for k, v in samples.items() if k.startswith("messages_sent")
            )
            outputs.append((payload["messages"]["sent"], sent))
        for reported, snapshot in outputs:
            assert snapshot == reported

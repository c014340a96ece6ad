"""Recording staleness once per distinct age changes no figure.

``CollectorAgent.score`` observes a period's pair ages with one
``Histogram.observe(age, times)`` per distinct age.  The reference is
the rule it replaced, kept here: one ``observe(age)`` per received
pair.  Both engines run each scenario once per rule; the
``staleness_periods`` count, sum, min and max, every sample and every
counter series must be identical.  The runs pass the sketch threshold,
and the outage runs record ages above zero.
"""

import pytest

from repro.core.planner import RemoPlanner
from repro.obs import names
from repro.runtime import AgentOutage, MonitoringRuntime, RuntimeConfig
from repro.runtime.collector import CollectorAgent, score_period
from repro.simulation import FailureInjector, MonitoringSimulation
from repro.workloads.presets import Scenario, quickstart_workload
from tests.virtual_time import run_virtual

PERIODS = 30


def per_pair_score(self, period):
    """``CollectorAgent.score`` with one observation per received pair."""
    sample, ages = score_period(period, self._truths(), self._cells)
    if ages:
        staleness = self.metrics.histogram(names.STALENESS_PERIODS)
        for age in ages:
            staleness.observe(age)
    self.samples.append(sample)
    self.metrics.observe(names.PERIOD_COVERAGE, sample.received_fraction)
    return sample


def quickstart():
    cluster, cost, tasks = quickstart_workload()
    return RemoPlanner(cost).plan(tasks, cluster), cluster, []


def outage():
    """The OUTAGE pin's plan and node outage: pairs below the dead node
    go stale for four periods."""
    scenario = Scenario(nodes=40, tasks=10, seed=1)
    plan = scenario.plan()
    members = sorted({node for result in plan.trees.values() for node in result.tree.nodes})
    return plan, scenario.workload[0], [AgentOutage(members[3], 2, 6)]


def simulate(plan, cluster, outages):
    injector = FailureInjector(node_outages=outages)
    return MonitoringSimulation(plan, cluster, seed=5, failures=injector).run(PERIODS)


def live(plan, cluster, outages):
    config = RuntimeConfig(period_seconds=1.0, seed=5, outages=outages)
    return run_virtual(MonitoringRuntime(plan, cluster, config=config).run_async(PERIODS))


def observed(report):
    staleness = report.metrics.histogram(names.STALENESS_PERIODS)
    return {
        "staleness": (staleness.count, staleness.sum, staleness.min, staleness.max),
        "samples": report.samples,
        "counters": report.metrics.registry.counters(),
    }


@pytest.mark.parametrize("engine", [simulate, live], ids=["simulator", "runtime"])
@pytest.mark.parametrize("scenario", [quickstart, outage], ids=["quickstart", "outage"])
def test_per_age_staleness_matches_per_pair(engine, scenario, monkeypatch):
    setup = scenario()
    per_age = observed(engine(*setup))
    monkeypatch.setattr(CollectorAgent, "score", per_pair_score)
    per_pair = observed(engine(*setup))
    assert per_age == per_pair
    assert per_age["staleness"][0] > 4096  # past the sketch threshold
    if scenario is outage:
        assert per_age["staleness"][3] > 0.0

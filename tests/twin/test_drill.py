"""The end-to-end twin drill and its SLO surface."""

import pytest

from repro.obs import Observability
from repro.tools.noc import scenario_slos
from repro.twin.drill import DEFAULT_POLICIES, run_twin_drill


@pytest.fixture(scope="module")
def result():
    return run_twin_drill(
        seed=0, smoke=True, obs=Observability.sim(),
        num_primaries=600, ensemble_members=12,
        policies=DEFAULT_POLICIES[:2],
    )


class TestTwinDrill:
    def test_summary_carries_the_gated_slos(self, result):
        slos = scenario_slos("twin", result["summary"])
        assert set(slos) == {
            "twin_forecast_miss_rate",
            "twin_forecast_mae_excess",
            "twin_plan_divergence",
        }
        assert slos["twin_plan_divergence"] == 0.0  # replay determinism
        assert slos["twin_forecast_mae_excess"] < 0.0  # beats naive

    def test_plans_match_policies(self, result):
        plans = result["plans"]
        assert [p.policy.name for p in plans] == [
            p.name for p in DEFAULT_POLICIES[:2]
        ]
        for plan in plans:
            assert plan.timeline_digest == result["summary"]["timeline_digest"]

    def test_aggregates_are_exportable(self, result):
        records = result["aggregates"]
        assert records[0]["type"] == "meta"
        assert any(r.get("type") == "aggregate" for r in records)

    def test_drill_is_deterministic(self, result):
        again = run_twin_drill(
            seed=0, smoke=True, obs=Observability.sim(),
            num_primaries=600, ensemble_members=12,
            policies=DEFAULT_POLICIES[:2],
        )
        assert again["summary"] == result["summary"]

    def test_gauges_published_on_the_shared_registry(self):
        obs = Observability.sim()
        out = run_twin_drill(
            seed=0, smoke=True, obs=obs, num_primaries=600,
            ensemble_members=12, policies=DEFAULT_POLICIES[:1],
        )
        summary = out["summary"]
        assert obs.metrics.value("twin.forecast.miss_rate") == summary[
            "twin_forecast_miss_rate"
        ]
        assert obs.metrics.value("twin.plan.divergence") == 0.0
        assert len(obs.tracer.find("twin.plan.replay")) == 2  # plan + recheck

"""Tests for repro.faults.chaos (scenarios + cross-layer acceptance checks)."""

import dataclasses

import pytest

from repro.availability.model import fabric_availability
from repro.core.errors import ConfigurationError
from repro.faults.chaos import (
    SCENARIOS,
    SMOKE_KWARGS,
    controller_crash_recovery,
    correlated_hv_batch,
    partition_failover,
    repair_race,
    rolling_transceiver_flaps,
    run_chaos_drill,
    run_scenario,
    single_ocs_loss,
)
from repro.ml.models import LLM_ZOO
from repro.ml.parallelism import ParallelismPlan
from repro.ml.perfmodel import TrainingStepModel
from repro.ocs.reliability import SINGLE_OCS_AVAILABILITY
from repro.tpu.degradation import quarantine_step_degradation
from repro.tpu.superpod import NUM_OCSES


class TestSingleOcsLoss:
    def test_step_hit_matches_degradation_model_within_1pct(self):
        report = single_ocs_loss(seed=3, horizon_hours=2000.0)
        assert report.metrics["step_hit_chaos"] > 0
        assert report.metrics["step_hit_rel_error"] < 0.01

    def test_long_run_availability_matches_fig15_analytic(self):
        report = single_ocs_loss(seed=0, horizon_hours=20000.0)
        analytic = fabric_availability(NUM_OCSES, SINGLE_OCS_AVAILABILITY)
        assert report.metrics["availability_analytic"] == pytest.approx(analytic)
        # Monte-Carlo agreement: ~240 outages over the horizon puts the
        # sampling noise well under one point of availability.
        assert report.metrics["availability_abs_error"] < 0.01
        assert report.metrics["outages"] > 100

    def test_timeline_brackets_goodput(self):
        report = single_ocs_loss(seed=1, horizon_hours=2000.0)
        assert report.timeline[0] == (0.0, 1.0)
        assert all(0.0 <= g <= 1.0 for _, g in report.timeline)
        times = [t for t, _ in report.timeline]
        assert times == sorted(times)
        assert 0.0 < report.mean_goodput() <= 1.0


class TestCorrelatedHvBatch:
    def test_batch_drops_then_resilient_restore(self):
        report = correlated_hv_batch(seed=0, num_ocses=2, circuits_per_ocs=3)
        assert report.metrics["dropped"] == 6.0
        assert report.metrics["restored"] == 6.0
        assert report.metrics["final_up_fraction"] == 1.0
        assert report.metrics["rollbacks"] == 0.0
        # Two injected timeouts per switch cost two retries each.
        assert report.metrics["retries"] == 4.0
        assert report.metrics["backoff_ms"] > 0
        # Goodput dipped below 1 mid-run and recovered.
        assert min(g for _, g in report.timeline) < 1.0
        assert report.timeline[-1][1] == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            correlated_hv_batch(circuits_per_ocs=9)


class TestRollingTransceiverFlaps:
    def test_availability_accounting(self):
        report = rolling_transceiver_flaps(seed=2, num_links=4, horizon_s=300.0)
        assert report.metrics["flaps"] > 0
        assert 0.0 < report.metrics["link_availability"] <= 1.0
        assert report.metrics["worst_concurrent_dark"] >= 1.0
        assert report.timeline[-1][1] == 1.0  # all flaps cleared by the end


class TestDampedFlaps:
    def test_quarantine_on_third_flap_and_release_after_hold_down(self):
        report = rolling_transceiver_flaps(
            seed=2, num_links=4, horizon_s=300.0, damping=True, spares=1
        )
        # The penalty crosses suppress exactly on the third flap of the
        # deterministic train (30 + 2*15 = 60 s).
        assert report.metrics["quarantine_t_s"] == 60.0
        assert report.metrics["quarantines"] == 1.0
        assert report.metrics["steered"] == 1.0
        # Release waits for the hold-down plus penalty decay, then the
        # circuit goes home.
        assert report.metrics["release_t_s"] >= 60.0 + 120.0
        assert report.metrics["released"] == 1.0
        assert report.metrics["released_home"] == 1.0

    def test_bystanders_never_disturbed(self):
        report = rolling_transceiver_flaps(
            seed=2, num_links=4, horizon_s=300.0, damping=True, spares=1
        )
        assert report.metrics["bystanders_disturbed"] == 0.0
        # Steering kept capacity: nothing was held out of service.
        assert report.metrics["held_out_max_fraction"] == 0.0
        assert report.metrics["goodput_during_quarantine"] == 1.0

    def test_hold_out_goodput_matches_degradation_analytic(self):
        report = rolling_transceiver_flaps(
            seed=2, num_links=4, horizon_s=300.0, damping=True, spares=0
        )
        # With no spares the quarantine holds 1 of 4 watched circuits out.
        assert report.metrics["held_out_max_fraction"] == 0.25
        plan = ParallelismPlan.for_shape(LLM_ZOO["llm2"], (16, 16, 16))
        analytic = 1.0 / (
            1.0 + quarantine_step_degradation(plan, TrainingStepModel(), 0, 0.25)
        )
        observed = report.metrics["goodput_during_quarantine"]
        assert abs(observed - analytic) / analytic < 0.01
        assert report.metrics["final_goodput"] == 1.0  # released by the end

    def test_undamped_path_byte_identical_to_classic(self):
        classic = rolling_transceiver_flaps(seed=2, num_links=4, horizon_s=300.0)
        explicit = rolling_transceiver_flaps(
            seed=2, num_links=4, horizon_s=300.0, damping=False
        )
        assert explicit.digest() == classic.digest()


class TestControllerCrashRecovery:
    def test_every_crash_point_recovers_deterministically(self):
        report = controller_crash_recovery(seed=0, num_ocses=2, links_per_ocs=4)
        points = report.metrics["crash_points"]
        assert points == 10.0  # 2-OCS txn has 10 instrumented steps
        assert report.metrics["recoveries_ok"] == points
        assert report.metrics["reconciles_converged"] == points
        assert report.metrics["deterministic"] == 1.0
        # Every pre-commit crash rolls back to one digest; the lone
        # post-commit crash rolls forward to the committed digest.
        assert report.metrics["rollback_digests"] == 1.0
        assert report.metrics["forward_digests"] == 1.0
        assert report.metrics["forward_matches_committed"] == 1.0

    def test_report_digest_stable(self):
        a = controller_crash_recovery(seed=0, num_ocses=2, links_per_ocs=4)
        b = controller_crash_recovery(seed=0, num_ocses=2, links_per_ocs=4)
        assert a.digest() == b.digest()


class TestRepairRace:
    def test_pool_exhaustion_surfaces_capacity_context(self):
        report = repair_race(seed=1, num_circuits=4, num_spares=2, horizon_s=400.0)
        assert report.metrics["repairs"] >= 1.0
        assert report.metrics["capacity_errors"] >= 1.0
        # The surfaced CapacityError enumerated the whole (small) pool.
        assert report.metrics["attempted_spares_last"] == 2.0
        assert report.timeline[-1][1] < 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            repair_race(num_spares=1, damaged_spares=2)


class TestPartitionFailover:
    def test_invariants_hold_under_storm(self):
        report = partition_failover(seed=0, horizon_s=24.0)
        # The storm forced real failovers...
        assert report.metrics["storm_cycles"] >= 3.0
        assert report.metrics["elections"] >= report.metrics["storm_cycles"]
        assert report.metrics["epochs"] >= 3.0
        # ...yet the HA invariants held.
        assert report.metrics["committed_ops_lost"] == 0.0
        assert report.metrics["digest_match"] == 1.0
        assert report.metrics["settled"] == 1.0
        # Most ticks commit; election gaps carve the rest.
        assert 0.5 < report.metrics["goodput"] < 1.0
        assert 0.0 < report.metrics["availability"] <= 1.0
        assert min(g for _, g in report.timeline) == 0.0
        assert report.timeline[-1][1] == 1.0

    def test_report_digest_stable(self):
        a = partition_failover(seed=3, horizon_s=24.0)
        b = partition_failover(seed=3, horizon_s=24.0)
        assert a.digest() == b.digest()

    def test_seed_perturbs_background_skew(self):
        a = partition_failover(seed=0, horizon_s=24.0, skew_rate_per_s=0.05)
        b = partition_failover(seed=7, horizon_s=24.0, skew_rate_per_s=0.05)
        assert a.schedule != b.schedule

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            partition_failover(num_replicas=2)
        with pytest.raises(ConfigurationError):
            partition_failover(horizon_s=0.0)


class TestRegistry:
    def test_registry_covers_all_scenarios(self):
        assert set(SCENARIOS) == {
            "single_ocs_loss",
            "correlated_hv_batch",
            "rolling_transceiver_flaps",
            "repair_race",
            "controller_crash_recovery",
            "partition_failover",
        }
        assert set(SMOKE_KWARGS) == set(SCENARIOS)

    def test_run_scenario_dispatch_and_unknown(self):
        report = run_scenario("repair_race", seed=0, **SMOKE_KWARGS["repair_race"])
        assert report.scenario == "repair_race"
        assert report.seed == 0
        with pytest.raises(ConfigurationError):
            run_scenario("nope")

    def test_smoke_runs_everything(self):
        reports = run_chaos_drill(seed=0)["reports"]
        assert set(reports) == set(SCENARIOS)
        for name, report in reports.items():
            assert report.scenario == name
            assert len(report.digest()) == 64

    def test_chaos_drill_slos_read_zero_when_healthy(self):
        summary = run_chaos_drill(seed=0)["summary"]
        for name in ("chaos_crash_unrecovered", "chaos_crash_unconverged",
                     "chaos_crash_nondeterministic", "chaos_partition_ops_lost",
                     "chaos_partition_digest_mismatch"):
            assert summary[name] == 0.0, name

    def test_chaos_drill_slos_catch_broken_invariants(self, monkeypatch):
        def broken(scenario, **overrides):
            def run(**kwargs):
                report = scenario(**kwargs)
                return dataclasses.replace(
                    report, metrics={**report.metrics, **overrides}
                )
            return run

        crash = SCENARIOS["controller_crash_recovery"]
        partition = SCENARIOS["partition_failover"]
        monkeypatch.setitem(SCENARIOS, "controller_crash_recovery", broken(
            crash, recoveries_ok=8.0, reconciles_converged=9.0, deterministic=0.0,
        ))
        monkeypatch.setitem(SCENARIOS, "partition_failover", broken(
            partition, committed_ops_lost=3.0, digest_match=0.0,
        ))
        summary = run_chaos_drill(seed=0)["summary"]
        assert summary["chaos_crash_unrecovered"] == 2.0
        assert summary["chaos_crash_unconverged"] == 1.0
        assert summary["chaos_crash_nondeterministic"] == 1.0
        assert summary["chaos_partition_ops_lost"] == 3.0
        assert summary["chaos_partition_digest_mismatch"] == 1.0

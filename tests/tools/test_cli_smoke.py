"""The operator CLIs run end-to-end: every drill scenario through
``python -m repro.tools.noc run``, gated and exported the way CI runs it."""

import contextlib
import io
import json

import pytest

from repro.tools import noc
from repro.tools.noc import DEFAULT_THRESHOLDS, SCENARIOS
from repro.tools.noc import main as noc_main
from repro.tools.report import main as report_main

COMMITTED = json.loads(DEFAULT_THRESHOLDS.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each scenario once as CI runs it (``--smoke --check --out-dir``):
    name -> (exit code, stdout, out dir, first drill result)."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, scenario in sorted(SCENARIOS.items()):
            results = []

            def recorded(seed, smoke, run=scenario.run, results=results):
                results.append(run(seed, smoke))
                return results[-1]

            mp.setitem(SCENARIOS, name, scenario._replace(run=recorded))
            out_dir = tmp_path_factory.mktemp(name)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = noc_main(["run", name, "--smoke", "--check",
                                 "--out-dir", str(out_dir)])
            out[name] = (code, stdout.getvalue(), out_dir, results[0])
    return out


def rerun(monkeypatch, runs, name, *args):
    """``noc run <name> --smoke`` again on the recorded drill result."""
    result = runs[name][3]
    monkeypatch.setitem(
        SCENARIOS, name, SCENARIOS[name]._replace(run=lambda seed, smoke: result)
    )
    return noc_main(["run", name, "--smoke", *args])


def summary_json(runs, name):
    return json.loads((runs[name][2] / "summary.json").read_text())


def thresholds_file(tmp_path, **overrides):
    path = tmp_path / "slo.json"
    path.write_text(json.dumps({**COMMITTED, **overrides}))
    return str(path)


class TestReportCli:
    def test_runs_and_exits_zero(self, capsys):
        assert report_main([]) == 0
        out = capsys.readouterr().out
        assert "headline report" in out


class TestScenarioRunner:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_smoke_check_passes_and_writes_artifacts(self, runs, name):
        code, _, out_dir, _ = runs[name]
        assert code == 0
        payload = summary_json(runs, name)
        assert payload["deterministic"] is True
        assert payload["slo_ok"] is True
        assert set(payload["slos"]) == set(SCENARIOS[name].slos)
        for filename in SCENARIOS[name].artifacts:
            assert (out_dir / filename).stat().st_size > 0, filename

    def test_every_slo_has_a_committed_threshold_and_an_owner(self):
        claimed = {slo for scenario in SCENARIOS.values() for slo in scenario.slos}
        assert claimed == set(COMMITTED)

    def test_runner_takes_the_scenario_and_five_flags(self):
        help_text = io.StringIO()
        with contextlib.redirect_stdout(help_text), pytest.raises(SystemExit):
            noc_main(["run", "--help"])
        flags = {word.strip("[],") for word in help_text.getvalue().split()
                 if word.strip("[").startswith("--")}
        assert flags == {"--seed", "--smoke", "--check", "--thresholds",
                         "--out-dir", "--help"}

    def test_nondeterministic_summary_fails_check(self, monkeypatch, capsys):
        calls = []

        def drifting(seed, smoke):
            calls.append(seed)
            return {"summary": {"serve_p99_ms": 1.0, "serve_shed_rate": 0.0,
                                "serve_retry_amplification": 0.0,
                                "run": len(calls)}}

        monkeypatch.setitem(SCENARIOS, "serve", SCENARIOS["serve"]._replace(
            run=drifting, artifacts={}, render=lambda result, rows: None))
        assert noc_main(["run", "serve", "--smoke", "--check"]) == 1
        assert len(calls) == 2
        assert "NONDETERMINISM" in capsys.readouterr().err

    def test_missing_thresholds_file_fails_check(self, runs, monkeypatch, capsys, tmp_path):
        missing = tmp_path / "nonexistent.json"
        assert rerun(monkeypatch, runs, "chaos", "--check",
                     "--thresholds", str(missing)) == 1
        err = capsys.readouterr().err
        assert "UNREADABLE" in err and "nonexistent.json" in err

    def test_unparseable_thresholds_file_fails_check(self, runs, monkeypatch, capsys, tmp_path):
        broken = tmp_path / "slo.json"
        broken.write_text('{"serve_p99_ms": 350.0,')
        assert rerun(monkeypatch, runs, "serve", "--check",
                     "--thresholds", str(broken)) == 1
        assert "UNREADABLE" in capsys.readouterr().err

    def test_declared_slo_without_threshold_fails_check(self, runs, monkeypatch, capsys, tmp_path):
        thresholds = dict(COMMITTED)
        del thresholds["chaos_partition_ops_lost"]
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(thresholds))
        assert rerun(monkeypatch, runs, "chaos", "--check", "--thresholds", str(path)) == 1
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines()
                   if line.startswith("chaos_partition_ops_lost"))
        assert "NO THRESHOLD" in row

    def test_without_check_a_failed_gate_still_exits_zero(self, runs, monkeypatch, capsys, tmp_path):
        assert rerun(monkeypatch, runs, "chaos",
                     "--thresholds", str(tmp_path / "nonexistent.json")) == 0
        capsys.readouterr()


class TestNocCli:
    def test_smoke_report_exits_zero(self, runs):
        code, out, _, _ = runs["fabric"]
        assert code == 0
        assert "FLEET NOC REPORT" in out
        assert "SLOs" in out
        assert "Per-OCS telemetry" in out

    def test_check_passes_committed_thresholds(self, runs):
        assert runs["fabric"][0] == 0
        assert summary_json(runs, "fabric")["slo_ok"] is True

    def test_check_fails_on_regressed_threshold(self, runs, monkeypatch, capsys, tmp_path):
        tight = thresholds_file(tmp_path, reconfig_p99_ms=0.001)
        assert rerun(monkeypatch, runs, "fabric", "--check", "--thresholds", tight) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_json_mode(self, runs):
        payload = summary_json(runs, "fabric")
        assert payload["slo_ok"] is True
        assert set(payload["slos"]) == {
            "reconfig_p99_ms", "recovery_p99_ms", "ber_anomaly_rate",
            "sweep_cache_miss_rate", "sweep_chunk_p99_ms",
            "serve_p99_ms", "serve_shed_rate", "serve_retry_amplification",
            "failover_p99_s", "committed_ops_lost", "failover_unavailability",
            "twin_forecast_miss_rate", "twin_forecast_mae_excess",
            "twin_plan_divergence",
        }
        assert payload["slos"]["sweep_cache_miss_rate"] == 0.5
        summary = payload["summary"]
        assert summary["notes"]["sweep_warm_hits"] == summary["notes"]["sweep_tasks"]
        assert summary["num_spans"] > 0
        report = runs["fabric"][3]["report"]
        assert payload["slos"] == noc.compute_slos(report)

    def test_exports_trace_and_metrics(self, runs):
        out_dir = runs["fabric"][2]
        head = json.loads((out_dir / "trace.jsonl").read_text().splitlines()[0])
        assert head["type"] == "meta" and head["stream"] == "trace"
        assert head["schema_version"] >= 1
        head = json.loads((out_dir / "metrics.jsonl").read_text().splitlines()[0])
        assert head["type"] == "meta" and head["stream"] == "metrics"


class TestNocTwinCli:
    def test_twin_report_and_check_exit_zero(self, runs):
        code, out, _, _ = runs["twin"]
        assert code == 0
        assert "DIGITAL TWIN REPORT" in out
        assert "Twin SLOs" in out
        assert "What-if plans" in out

    def test_twin_json_mode(self, runs):
        payload = summary_json(runs, "twin")
        assert payload["slo_ok"] is True
        assert payload["slos"]["twin_plan_divergence"] == 0.0
        assert payload["slos"]["twin_forecast_mae_excess"] < 0.0
        plans = (runs["twin"][2] / "plans.jsonl").read_text().splitlines()
        assert {json.loads(p)["policy"]["name"] for p in plans} == {
            "pin_brownout_2", "quarantine_eighth", "replicate_3",
        }

    def test_twin_writes_jsonl_artifacts(self, runs):
        out_dir = runs["twin"][2]
        head = json.loads((out_dir / "timeline.jsonl").read_text().splitlines()[0])
        assert head["type"] == "meta" and head["stream"] == "timeline"
        plan = json.loads((out_dir / "plans.jsonl").read_text().splitlines()[0])
        assert plan["type"] == "plan" and "predicted" in plan
        head = json.loads((out_dir / "aggregates.jsonl").read_text().splitlines()[0])
        assert head["type"] == "meta"

    def test_twin_check_fails_on_tight_threshold(self, runs, monkeypatch, capsys, tmp_path):
        tight = thresholds_file(tmp_path, twin_forecast_miss_rate=-1.0)
        assert rerun(monkeypatch, runs, "twin", "--check", "--thresholds", tight) == 1
        assert "REGRESS" in capsys.readouterr().out

"""Fleet NOC: one runner for every seeded drill.

``python -m repro.tools.noc run <scenario> [--seed N] [--smoke] [--check]
[--thresholds PATH] [--out-dir DIR]`` runs one entry of :data:`SCENARIOS`
(``fabric``, ``serve``, ``failover``, ``twin``, ``chaos``) and renders
its report; ``fabric`` is the fleet NOC view of the observed fabric
drill (metric snapshot, slowest spans, per-OCS telemetry, quarantine).

Every scenario takes the same path.  Its SLOs are the summary values it
declares, checked against the committed ``benchmarks/slo_thresholds.json``.
``--smoke`` runs the small drill twice and requires identical summaries.
``--out-dir`` receives ``summary.json`` plus the scenario's JSONL
artifacts.  With ``--check`` an SLO over its limit or without one, an
unreadable thresholds file, or a nondeterministic smoke run exits 1
(the CI gate).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.tables import render_table
from repro.faults.chaos import run_chaos_drill
from repro.obs.drill import DrillReport, run_fabric_drill
from repro.obs.export import export_metrics, export_trace, write_jsonl
from repro.serve.drill import report_records, run_failover_drill, run_serve_drill
from repro.twin.drill import run_twin_drill

#: Default location of the committed SLO thresholds (repo root relative).
DEFAULT_THRESHOLDS = Path(__file__).resolve().parents[3] / "benchmarks" / "slo_thresholds.json"

#: Slowest spans shown in the fabric report.
TOP_SPANS = 10

Result = Dict[str, object]
SloRow = Tuple[str, float, float, bool]


def _split_series(series: str) -> Tuple[str, Dict[str, str]]:
    """``name{k=v,...}`` -> (name, labels)."""
    if "{" not in series:
        return series, {}
    name, _, rest = series.partition("{")
    labels = dict(pair.split("=", 1) for pair in rest.rstrip("}").split(","))
    return name, labels


def compute_slos(report: DrillReport) -> Dict[str, float]:
    """The headline SLOs, straight off the drill's registry."""
    registry = report.obs.metrics
    loss_obs = registry.sum_counters("ocs.loss.observations")
    anomalies = registry.sum_counters("ocs.anomaly.fired")
    hits = registry.sum_counters("sweep.cache.hits")
    misses = registry.sum_counters("sweep.cache.misses")
    lookups = hits + misses
    serve_offered = registry.sum_counters("serve.outcomes")
    serve_shed = registry.sum_counters("serve.outcomes", outcome="shed")
    serve_attempts = registry.sum_counters("serve.attempts")
    serve_deposits = registry.sum_counters("serve.retry.deposits")
    return {
        "reconfig_p99_ms": registry.histogram("fabric.plan.duration_ms").quantile(0.99),
        "recovery_p99_ms": registry.histogram("control.recover.duration_ms").quantile(0.99),
        "ber_anomaly_rate": anomalies / loss_obs if loss_obs else 0.0,
        "sweep_cache_miss_rate": misses / lookups if lookups else 0.0,
        "sweep_chunk_p99_ms": registry.histogram("sweep.chunk.duration_ms").quantile(0.99),
        "serve_p99_ms": registry.histogram("serve.latency_ms", outcome="ok").quantile(0.99),
        "serve_shed_rate": serve_shed / serve_offered if serve_offered else 0.0,
        "serve_retry_amplification": (
            serve_attempts / serve_deposits if serve_deposits else 0.0
        ),
        # Replicated-control-plane HA (published by the failover drill).
        "failover_p99_s": registry.value("serve.failover.p99_s"),
        "committed_ops_lost": registry.value("serve.failover.committed_ops_lost"),
        "failover_unavailability": registry.value("serve.failover.unavailability"),
        # Digital twin (published by the twin drill phase): forecast
        # coverage gated as a miss rate, forecast skill gated as
        # model-minus-naive MAE (<= 0 means the forecaster earns its
        # keep), and what-if replay divergence (must be exactly 0).
        "twin_forecast_miss_rate": registry.value("twin.forecast.miss_rate"),
        "twin_forecast_mae_excess": registry.value("twin.forecast.mae_excess"),
        "twin_plan_divergence": registry.value("twin.plan.divergence"),
    }


def check_slos(
    slos: Dict[str, float], thresholds: Mapping[str, object]
) -> List[SloRow]:
    """(slo, value, max allowed, ok) per SLO.  An SLO without a committed
    threshold gets a NaN limit, which no value meets: it fails."""
    rows = []
    for name in sorted(slos):
        limit = thresholds.get(name)
        limit = float("nan") if limit is None else float(limit)  # type: ignore[arg-type]
        rows.append((name, slos[name], limit, slos[name] <= limit))
    return rows


def _section(title: str) -> None:
    print()
    print(f"== {title} " + "=" * max(0, 60 - len(title)))


def _slo_section(title: str, slo_rows: List[SloRow]) -> None:
    _section(title)
    print(render_table(
        ["slo", "value", "max allowed", "status"],
        [[name, f"{value:.4f}", f"{limit:.4f}",
          "ok" if ok else "NO THRESHOLD" if math.isnan(limit) else "REGRESSED"]
         for name, value, limit, ok in slo_rows],
    ))


def render_summary(result: Result, slo_rows: List[SloRow]) -> None:
    print(json.dumps(result["summary"], indent=2, sort_keys=True))
    _slo_section("SLOs", slo_rows)


def render_chaos_report(result: Result, slo_rows: List[SloRow]) -> None:
    summary: Dict[str, object] = result["summary"]  # type: ignore[assignment]
    print(f"CHAOS REPORT  seed={summary['seed']}"
          f"  mode={'smoke' if summary['smoke'] else 'full'}")
    for name, report in sorted(result["reports"].items()):  # type: ignore[union-attr]
        _section(f"{name}  digest {report.digest()[:16]}")
        rows = [[k, f"{v:.6g}"] for k, v in sorted(report.metrics.items())]
        rows.append(["mean goodput", f"{report.mean_goodput():.4f}"])
        print(render_table(["metric", "value"], rows))
    _slo_section("Chaos SLOs", slo_rows)


def render_report(report: DrillReport, slo_rows: List[SloRow]) -> None:
    tracer, registry = report.obs.tracer, report.obs.metrics
    trace_digest, metrics_digest = report.digests()
    print(f"FLEET NOC REPORT  seed={report.seed}"
          f"  mode={'smoke' if report.smoke else 'full'}")
    print(f"spans={tracer.num_spans}  series={registry.num_series}"
          f"  clock={report.obs.clock.now():.1f} ms")
    print(f"trace digest   {trace_digest}")
    print(f"metrics digest {metrics_digest}")

    _slo_section("SLOs", slo_rows)

    _section(f"Slowest spans (top {TOP_SPANS})")
    print(render_table(
        ["span", "duration (ms)", "start (ms)", "attrs"],
        [[s.name, f"{s.duration_ms:.1f}", f"{s.start_ms:.1f}",
          ",".join(f"{k}={v}" for k, v in s.attrs) or "-"]
         for s in tracer.slowest(TOP_SPANS)],
    ))

    _section("Per-OCS telemetry")
    ocses = {dict(c.labels).get("ocs") for c in registry.counters()
             if c.name.startswith("ocs.")} - {None}
    print(render_table(
        ["ocs", "connects", "reconfigs", "disturbed", "loss obs", "anomalies"],
        [[ocs, *(f"{registry.sum_counters(name, ocs=ocs):.0f}" for name in (
            "ocs.circuit.connect", "ocs.reconfig.transactions",
            "ocs.reconfig.circuits_disturbed", "ocs.loss.observations",
            "ocs.anomaly.fired"))]
         for ocs in sorted(ocses)],  # type: ignore[type-var]
    ))

    _section("Quarantine / health")
    actions = {dict(c.labels).get("action", "?"): c.value
               for c in registry.counters("health.actions")}
    held_out = registry.value("health.held_out.fraction")
    if actions:
        print(render_table(
            ["action", "count"],
            [[a, f"{c:.0f}"] for a, c in sorted(actions.items())],
        ))
    print(f"held-out fraction: {held_out:.3f}")

    _section("Metric snapshot (counters and gauges)")
    rows = []
    for record in registry.to_records():
        if record["type"] == "histogram":
            continue
        rows.append([str(record["series"]), record["type"],
                     f"{float(record['value']):g}"])
    print(render_table(["series", "type", "value"], rows))

    _section("Latency histograms")
    hist_rows = []
    for record in registry.to_records():
        if record["type"] != "histogram":
            continue
        name = _split_series(str(record["series"]))[0]
        hist = registry.histogram(name, **_split_series(str(record["series"]))[1])
        hist_rows.append([str(record["series"]), f"{hist.count}",
                          f"{hist.quantile(0.5):.2f}", f"{hist.quantile(0.99):.2f}",
                          f"{hist.max:.2f}"])
    print(render_table(["series", "count", "p50", "p99", "max"], hist_rows))


def render_twin_report(out: Result, slo_rows: List[SloRow]) -> None:
    summary: Dict[str, object] = out["summary"]  # type: ignore[assignment]
    forecast: Dict[str, float] = summary["forecast"]  # type: ignore[assignment]
    print(f"DIGITAL TWIN REPORT  seed={summary['seed']}"
          f"  mode={'smoke' if summary['smoke'] else 'full'}")
    print(f"timeline samples={summary['timeline_samples']}"
          f"  aggregates={summary['aggregates']}"
          f"  ensemble members={summary['ensemble_members']}")
    print(f"timeline digest   {summary['timeline_digest']}")
    print(f"aggregates digest {summary['aggregates_digest']}")

    _slo_section("Twin SLOs", slo_rows)

    _section("Availability forecast (held-out chaos ensemble)")
    print(render_table(
        ["metric", "value"],
        [["model", str(summary["forecast_model"])],
         ["model MAE", f"{forecast['model_mae']:.5f}"],
         ["naive last-value MAE", f"{forecast['naive_mae']:.5f}"],
         ["coverage (±{:.2f})".format(forecast["band"]), f"{forecast['coverage']:.3f}"],
         ["held-out members", f"{forecast['n_heldout']:.0f}"],
         ["beats naive", "yes" if forecast["beats_naive"] else "NO"]],
    ))

    _section("What-if plans (predicted SLO deltas vs recorded baseline)")
    rows = []
    for plan in out["plans"]:  # type: ignore[union-attr]
        deltas = plan.deltas
        rows.append([
            plan.policy.name,
            f"{plan.predicted['serve_p99_ms']:.1f}",
            f"{deltas['serve_p99_ms']:+.1f}",
            f"{plan.predicted['serve_shed_rate']:.4f}",
            f"{deltas['serve_shed_rate']:+.4f}",
            f"{plan.predicted['availability']:.4f}",
            f"{deltas['availability']:+.4f}",
            plan.digest()[:12],
        ])
    print(render_table(
        ["policy", "p99 ms", "Δp99", "shed", "Δshed", "avail", "Δavail",
         "digest"],
        rows,
    ))


class Scenario(NamedTuple):
    """One drill: its run function, the summary values it gates, its
    JSONL artifact writers by file name, and its on-screen report."""

    run: Callable[[int, bool], Result]
    slos: Tuple[str, ...]
    artifacts: Dict[str, Callable[[Result, Path], object]]
    render: Callable[[Result, List[SloRow]], None]


def _run_fabric(seed: int, smoke: bool) -> Result:
    report = run_fabric_drill(seed=seed, smoke=smoke)
    trace_digest, metrics_digest = report.digests()
    summary: Dict[str, object] = {
        "seed": seed,
        "smoke": smoke,
        "notes": report.notes,
        "num_spans": report.obs.tracer.num_spans,
        "num_series": report.obs.metrics.num_series,
        "trace_digest": trace_digest,
        "metrics_digest": metrics_digest,
        **compute_slos(report),
    }
    return {"summary": summary, "report": report}


def _fabric_export(export, attr: str):
    """Artifact writer for one observability stream of the fabric drill."""
    return lambda r, path: export(
        path, getattr(r["report"].obs, attr),
        seed=r["report"].seed, smoke=r["report"].smoke,
    )


def _requests(result: Result, path: Path) -> Path:
    return write_jsonl(path, report_records(result["report"]))


SERVE_SLOS = ("serve_p99_ms", "serve_shed_rate", "serve_retry_amplification")
#: Gate bounds are upper bounds, so availability is gated as unavailability.
FAILOVER_SLOS = ("failover_p99_s", "committed_ops_lost", "failover_unavailability")
TWIN_SLOS = (
    "twin_forecast_miss_rate", "twin_forecast_mae_excess", "twin_plan_divergence",
)

SCENARIOS: Dict[str, Scenario] = {
    # The fabric drill runs the serve, failover and twin drills as phases
    # and republishes their SLOs from its own registry.
    "fabric": Scenario(
        _run_fabric,
        ("reconfig_p99_ms", "recovery_p99_ms", "ber_anomaly_rate",
         "sweep_cache_miss_rate", "sweep_chunk_p99_ms")
        + SERVE_SLOS + FAILOVER_SLOS + TWIN_SLOS,
        {"trace.jsonl": _fabric_export(export_trace, "tracer"),
         "metrics.jsonl": _fabric_export(export_metrics, "metrics")},
        lambda r, rows: render_report(r["report"], rows),
    ),
    "serve": Scenario(
        run_serve_drill, SERVE_SLOS, {"requests.jsonl": _requests}, render_summary,
    ),
    "failover": Scenario(
        run_failover_drill, FAILOVER_SLOS, {"requests.jsonl": _requests},
        render_summary,
    ),
    "twin": Scenario(
        run_twin_drill,
        TWIN_SLOS,
        {"timeline.jsonl": lambda r, path: write_jsonl(path, r["timeline"].to_records()),
         "plans.jsonl": lambda r, path: write_jsonl(
             path, [plan.to_record() for plan in r["plans"]]),
         "aggregates.jsonl": lambda r, path: write_jsonl(path, r["aggregates"])},
        render_twin_report,
    ),
    "chaos": Scenario(
        run_chaos_drill,
        ("chaos_crash_unrecovered", "chaos_crash_unconverged",
         "chaos_crash_nondeterministic", "chaos_partition_ops_lost",
         "chaos_partition_digest_mismatch"),
        {},
        render_chaos_report,
    ),
}


def scenario_slos(name: str, summary: Dict[str, object]) -> Dict[str, float]:
    """The SLO values scenario ``name`` gates, read off its summary."""
    return {slo: float(summary[slo]) for slo in SCENARIOS[name].slos}  # type: ignore[arg-type]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.noc", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    run = parser.add_subparsers(dest="command", required=True).add_parser(
        "run", help="run one drill scenario")
    run.add_argument("scenario", choices=sorted(SCENARIOS))
    run.add_argument("--seed", type=int, default=0, help="drill seed")
    run.add_argument("--smoke", action="store_true",
                     help="small drill, run twice to prove determinism (CI)")
    run.add_argument("--check", action="store_true",
                     help="exit 1 on any failed SLO or nondeterminism")
    run.add_argument("--thresholds", type=Path, default=DEFAULT_THRESHOLDS,
                     help="committed SLO thresholds JSON")
    run.add_argument("--out-dir", type=Path, default=None,
                     help="write summary.json and the JSONL artifacts here")
    args = parser.parse_args(argv)

    scenario = SCENARIOS[args.scenario]
    result = scenario.run(args.seed, args.smoke)
    summary = result["summary"]
    deterministic: Optional[bool] = None
    if args.smoke:
        # Cheap enough to prove, so prove it: same seed, same summary.
        deterministic = scenario.run(args.seed, args.smoke)["summary"] == summary
    slos = scenario_slos(args.scenario, summary)  # type: ignore[arg-type]
    try:
        thresholds = json.loads(args.thresholds.read_text())
    except (OSError, ValueError) as err:
        print(f"SLO THRESHOLDS UNREADABLE: {err}", file=sys.stderr)
        thresholds = {}
    slo_rows = check_slos(slos, thresholds)
    slo_ok = all(ok for *_, ok in slo_rows)

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        (args.out_dir / "summary.json").write_text(json.dumps({
            "summary": summary, "slos": slos, "slo_ok": slo_ok,
            "deterministic": deterministic,
        }, indent=2, sort_keys=True) + "\n")
        for filename, write in scenario.artifacts.items():
            write(result, args.out_dir / filename)

    scenario.render(result, slo_rows)
    if not slo_ok:
        print("SLO REGRESSION: one or more SLOs exceed or lack their "
              f"thresholds in {args.thresholds}", file=sys.stderr)
    if deterministic is False:
        print("NONDETERMINISM: same seed produced a different summary",
              file=sys.stderr)
    return 1 if args.check and (not slo_ok or deterministic is False) else 0


if __name__ == "__main__":
    sys.exit(main())

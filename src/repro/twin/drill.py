"""The end-to-end twin drill: record, aggregate, forecast, plan, gate.

One call walks the whole predictive-operations loop the ROADMAP's
digital-twin item describes:

1. **record** a fleet timeline from the overload serving drill
   (:func:`repro.twin.timeline.record_fleet_timeline`);
2. **aggregate** it through the streaming time-series pipeline
   (tumbling windows, EWMA/rate derived series, emission digest);
3. **forecast** availability from a chaos ensemble
   (:func:`repro.twin.forecast.train_availability_forecaster`) and score
   it against the naive last-value bar on held-out members;
4. **plan**: evaluate candidate policies against the recorded timeline
   (:class:`repro.twin.planner.WhatIfPlanner`) and re-evaluate the first
   one to prove replay determinism (byte-equal report digests);
5. **gate**: publish the twin SLO gauges (``twin.forecast.miss_rate``,
   ``twin.forecast.mae_excess``, ``twin.plan.divergence``) on the shared
   registry for the NOC / CI thresholds.

``python -m repro.tools.noc run twin`` renders the result; the ``twin``
phase of :func:`repro.obs.drill.run_fabric_drill` republishes the
gauges into the fleet NOC gate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.faults.ensemble import chaos_ensemble_serial
from repro.obs import NULL_OBS, Observability
from repro.obs.timeseries import TimeSeriesPipeline, WindowSpec
from repro.twin.forecast import train_availability_forecaster
from repro.twin.planner import PlanReport, TwinPolicy, WhatIfPlanner
from repro.twin.timeline import record_fleet_timeline

#: The chaos-ensemble parameterization the forecaster trains on: enough
#: injected OCS failures that the last-value predictor is genuinely
#: wrong about the suffix (see tests/twin/test_forecast.py).
ENSEMBLE_SCENARIO = "single_ocs_loss"
ENSEMBLE_KWARGS: Dict[str, float] = {
    "horizon_hours": 2000.0,
    "ocs_availability": 0.995,
    "mttr_hours": 8.0,
}

#: Candidate policies the drill evaluates (the operator's usual asks:
#: pin deep brownout, quarantine an eighth of capacity, go replicated).
DEFAULT_POLICIES = (
    TwinPolicy(name="pin_brownout_2", pinned_brownout=2),
    TwinPolicy(name="quarantine_eighth", quarantine_fraction=0.125),
    TwinPolicy(name="replicate_3", num_controller_replicas=3),
)


def run_twin_drill(
    seed: int = 0,
    smoke: bool = True,
    obs: Optional[Observability] = None,
    num_primaries: Optional[int] = None,
    ensemble_members: Optional[int] = None,
    policies: Optional[Sequence[TwinPolicy]] = None,
) -> Dict[str, object]:
    """Run the full twin loop; returns the JSON-able result bundle.

    Keys: ``summary`` (flat SLO-facing numbers), ``timeline`` (the
    recorded :class:`~repro.twin.timeline.FleetTimeline`), ``plans``
    (one :class:`~repro.twin.planner.PlanReport` per policy),
    ``forecast`` (the held-out evaluation), and ``aggregates`` (the
    pipeline's emitted records, JSONL-ready).
    """
    if obs is None:
        obs = NULL_OBS
    if num_primaries is None:
        # 1,500 primaries puts the first crash/timeout cycle of the
        # overload storm (t = 0.35..1.2 s) inside the recorded horizon.
        num_primaries = 1_500 if smoke else 5_000
    if ensemble_members is None:
        ensemble_members = 24 if smoke else 64
    policies = list(policies) if policies is not None else list(DEFAULT_POLICIES)

    with obs.tracer.span("twin.drill", seed=seed, smoke=smoke):
        # 1. Record the fleet timeline from the overload drill.
        timeline = record_fleet_timeline(
            seed=seed, profile="serve", num_primaries=num_primaries,
            sample_every_s=0.1, name=f"serve-s{seed}", obs=obs,
        )

        # 2. Stream it through the windowed-aggregation pipeline.
        with obs.tracer.span("twin.aggregate"):
            pipeline = TimeSeriesPipeline(
                WindowSpec(width_ms=200.0), obs=obs
            )
            replayed = pipeline.replay(timeline.to_records())
            pipeline.flush()
            p99_ewma = pipeline.ewma("serve.latency_p99_ms", alpha=0.4)
            shed_rate = pipeline.rate("serve.shed")
            aggregates_digest = pipeline.digest()

        # 3. Train + score the availability forecaster on a chaos
        # ensemble (serial: members are milliseconds each).
        with obs.tracer.span("twin.forecast", members=ensemble_members):
            reports = chaos_ensemble_serial(
                ENSEMBLE_SCENARIO,
                [seed * 1_000 + i for i in range(ensemble_members)],
                dict(ENSEMBLE_KWARGS),
            )
            evaluation = train_availability_forecaster(reports, seed=seed)

        # 4. What-if planning, plus the determinism re-evaluation.
        planner = WhatIfPlanner(timeline, obs=obs)
        plans: List[PlanReport] = [planner.evaluate(p) for p in policies]
        replayed_first = planner.evaluate(policies[0])
        divergence = 0.0 if replayed_first.digest() == plans[0].digest() else 1.0

        # 5. Publish the twin SLO gauges.
        obs.metrics.gauge("twin.forecast.miss_rate").set(evaluation.miss_rate)
        obs.metrics.gauge("twin.forecast.mae_excess").set(evaluation.mae_excess)
        obs.metrics.gauge("twin.plan.divergence").set(divergence)

    summary: Dict[str, object] = {
        "seed": seed,
        "smoke": smoke,
        "num_primaries": num_primaries,
        "timeline_digest": timeline.digest(),
        "timeline_samples": len(timeline.samples),
        "aggregates": len(pipeline.aggregates()),
        "aggregates_digest": aggregates_digest,
        "replayed_samples": replayed,
        "ensemble_members": ensemble_members,
        "forecast_model": evaluation.model_name,
        "twin_forecast_miss_rate": evaluation.miss_rate,
        "twin_forecast_mae_excess": evaluation.mae_excess,
        "twin_plan_divergence": divergence,
        "forecast": evaluation.summary(),
        "baseline_slos": dict(sorted(timeline.baseline.items())),
        "policies": [p.name for p in policies],
        "p99_ewma_final_ms": p99_ewma[-1][1] if p99_ewma else 0.0,
        "shed_rate_final_per_s": shed_rate[-1][1] if shed_rate else 0.0,
    }
    return {
        "summary": summary,
        "timeline": timeline,
        "plans": plans,
        "forecast": evaluation,
        "aggregates": pipeline.to_records(),
    }


__all__ = [
    "DEFAULT_POLICIES",
    "ENSEMBLE_KWARGS",
    "ENSEMBLE_SCENARIO",
    "run_twin_drill",
]

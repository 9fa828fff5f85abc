"""Chaos scenarios: seeded end-to-end fault drills over the whole stack.

Each scenario builds a real assembly (superpod degradation model,
LightwaveFabric, repair loop), drives it from one
:class:`~repro.faults.injector.FaultInjector` timeline, and emits a
:class:`ChaosReport` -- a goodput/availability timeline plus summary
metrics, hashable for byte-level determinism checks.

The scenarios double as cross-checks between layers:

- :func:`single_ocs_loss` must reproduce the per-slice step-time hit of
  :func:`repro.tpu.degradation.step_time_degradation` and, over a long
  renewal run, the Fig 15 analytic fabric availability
  (:func:`repro.availability.model.fabric_availability`);
- :func:`correlated_hv_batch` exercises the resilient transaction path
  under injected RPC timeouts after a correlated FRU failure burst;
- :func:`rolling_transceiver_flaps` measures link availability under
  staggered endpoint optics bounces -- and, with ``damping=True``, runs
  the fleet health watchdog's flap-damping/quarantine loop against them,
  pricing held-out capacity through the §4.2.2 degradation analytic;
- :func:`repair_race` races the spare-port repair loop against incoming
  fiber pinches until the pool runs dry (a contextful
  :class:`~repro.core.errors.CapacityError`);
- :func:`controller_crash_recovery` kills the durable controller at
  every WAL offset of a multi-OCS reconfiguration and checks that
  recovery + anti-entropy reconciliation converge to byte-identical
  state digests;
- :func:`partition_failover` runs the replicated control plane
  (:mod:`repro.control.replication`) through a rolling crash /
  network-partition / clock-skew storm and checks the HA invariants:
  no committed op lost, at most one leader per epoch, and a final
  state digest byte-identical to serial replay of the committed log.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.availability.model import fabric_availability
from repro.core.errors import CapacityError, ConfigurationError
from repro.core.ids import OcsId
from repro.faults.events import (
    FaultEvent,
    FaultKind,
    circuit_target,
    controller_target,
    endpoint_target,
    network_target,
    ocs_target,
    partition_groups_param,
    schedule_digest,
    target_index,
)
from repro.faults.injector import FaultInjector
from repro.faults.resilience import ControlPlaneFaults, RetryPolicy
from repro.ml.models import LLM_ZOO
from repro.ml.parallelism import ParallelismPlan
from repro.ml.perfmodel import TrainingStepModel
from repro.ocs.reliability import SINGLE_OCS_AVAILABILITY, AvailabilityModel
from repro.tpu.cube import DIMS
from repro.tpu.degradation import (
    multi_ocs_step_degradation,
    ocs_dimension,
    quarantine_step_degradation,
    step_time_degradation,
)
from repro.tpu.superpod import NUM_OCSES


@dataclass(frozen=True)
class ChaosReport:
    """Outcome of one chaos scenario run.

    Attributes:
        scenario: registry name of the scenario.
        seed: the injector seed the run used.
        timeline: (time_s, goodput fraction in [0, 1]) at every state
            transition, starting at t=0.
        metrics: scenario-specific summary numbers.
        schedule: the fault events delivered during the run, in order.
    """

    scenario: str
    seed: int
    timeline: Tuple[Tuple[float, float], ...]
    metrics: Mapping[str, float]
    schedule: Tuple[FaultEvent, ...]

    def digest(self) -> str:
        """SHA-256 over the full report: equal digests mean the runs were
        byte-identical (timeline, metrics, and fault schedule)."""
        h = hashlib.sha256()
        h.update(f"{self.scenario}|{self.seed}\n".encode("utf-8"))
        for t, g in self.timeline:
            h.update(f"{t!r},{g!r}\n".encode("utf-8"))
        for key in sorted(self.metrics):
            h.update(f"{key}={self.metrics[key]!r}\n".encode("utf-8"))
        h.update(schedule_digest(self.schedule).encode("utf-8"))
        return h.hexdigest()

    def mean_goodput(self) -> float:
        """Time-weighted mean of the goodput timeline."""
        if len(self.timeline) < 2:
            return self.timeline[0][1] if self.timeline else 1.0
        total = self.timeline[-1][0] - self.timeline[0][0]
        if total <= 0:
            return self.timeline[-1][1]
        area = 0.0
        for (t0, g0), (t1, _) in zip(self.timeline, self.timeline[1:]):
            area += g0 * (t1 - t0)
        return area / total


# ---------------------------------------------------------------------- #
# Scenario: single OCS loss (degradation + Fig 15 cross-check)
# ---------------------------------------------------------------------- #


def single_ocs_loss(
    seed: int = 0,
    horizon_hours: float = 20000.0,
    mttr_hours: float = 4.0,
    ocs_availability: float = SINGLE_OCS_AVAILABILITY,
    model_name: str = "llm2",
) -> ChaosReport:
    """OCS failures on the superpod fabric: step-time hit + availability.

    Two cross-checks in one run.  First, a seeded single-OCS failure is
    priced through the graceful-degradation path
    (:func:`~repro.tpu.degradation.multi_ocs_step_degradation`) and
    compared against the §4.2.2 analytic
    (:func:`~repro.tpu.degradation.step_time_degradation`).  Second, the
    injector runs a renewal process over all 48 OCSes (exponential
    up/down times matching ``ocs_availability`` at ``mttr_hours``) and
    the observed all-up fraction is compared against the Fig 15 analytic
    ``A_ocs ** 48``.

    The goodput timeline is the relative training throughput
    ``t_healthy / t_degraded`` of a full-pod slice under the currently
    failed OCS set.
    """
    injector = FaultInjector(seed=seed)
    model = LLM_ZOO[model_name]
    plan = ParallelismPlan.for_shape(model, (16, 16, 16))
    step_model = TrainingStepModel()

    # -- cross-check 1: one failed OCS vs the analytic degradation -------- #
    failed_index = int(injector.uniform(0, NUM_OCSES))
    failed_ocs = OcsId(failed_index)
    chaos_hit = multi_ocs_step_degradation(plan, step_model, [failed_ocs])
    axis = DIMS.index(ocs_dimension(failed_ocs))
    analytic_hit = step_time_degradation(plan, step_model, axis)
    hit_rel_error = abs(chaos_hit - analytic_hit) / analytic_hit

    # -- cross-check 2: renewal Monte-Carlo vs Fig 15 --------------------- #
    availability_model = AvailabilityModel.from_availability(
        ocs_availability, mttr_hours=mttr_hours
    )
    horizon_s = horizon_hours * 3600.0
    for index in range(NUM_OCSES):
        t_h = 0.0
        while True:
            t_h += injector.exponential(availability_model.mtbf_hours)
            if t_h >= horizon_hours:
                break
            repair_h = injector.exponential(availability_model.mttr_hours)
            injector.schedule(
                t_h * 3600.0,
                FaultKind.OCS_HV_DRIVER,
                ocs_target(index),
                clear_after_s=min(repair_h, horizon_hours - t_h) * 3600.0,
            )
            t_h += repair_h

    goodput_cache: Dict[FrozenSet[int], float] = {}

    def goodput(down: FrozenSet[int]) -> float:
        if down not in goodput_cache:
            try:
                hit = multi_ocs_step_degradation(
                    plan, step_model, [OcsId(i) for i in sorted(down)]
                )
                goodput_cache[down] = 1.0 / (1.0 + hit)
            except CapacityError:
                goodput_cache[down] = 0.0  # a whole dimension went dark
        return goodput_cache[down]

    down: set = set()
    timeline: List[Tuple[float, float]] = [(0.0, 1.0)]
    all_up_s = 0.0
    outages = 0
    t_prev = 0.0
    while injector.num_pending:
        event = injector.pop_next()
        assert event is not None
        if not down:
            all_up_s += event.time_s - t_prev
        t_prev = event.time_s
        if event.recovery:
            down.discard(target_index(event.target))
        else:
            down.add(target_index(event.target))
            outages += 1
        timeline.append((event.time_s, goodput(frozenset(down))))
    if not down:
        all_up_s += horizon_s - t_prev
    timeline.append((horizon_s, goodput(frozenset(down))))

    availability_mc = all_up_s / horizon_s
    availability_analytic = fabric_availability(NUM_OCSES, ocs_availability)
    metrics = {
        "failed_ocs": float(failed_index),
        "step_hit_chaos": chaos_hit,
        "step_hit_analytic": analytic_hit,
        "step_hit_rel_error": hit_rel_error,
        "availability_mc": availability_mc,
        "availability_analytic": availability_analytic,
        "availability_abs_error": abs(availability_mc - availability_analytic),
        "outages": float(outages),
    }
    return ChaosReport(
        scenario="single_ocs_loss",
        seed=seed,
        timeline=tuple(timeline),
        metrics=metrics,
        schedule=injector.delivered(),
    )


# ---------------------------------------------------------------------- #
# Scenario: correlated HV driver-board batch failure
# ---------------------------------------------------------------------- #


def correlated_hv_batch(
    seed: int = 0,
    num_ocses: int = 3,
    circuits_per_ocs: int = 4,
    board_index: int = 0,
    rpc_timeouts: int = 2,
    repair_s: float = 4 * 3600.0,
) -> ChaosReport:
    """A bad HV driver-board lot fails across several OCSes at once.

    Each affected switch drops every circuit on the board; after the
    FRU swaps land, the circuits are re-established through a resilient
    transaction while the control plane times out ``rpc_timeouts``
    programming RPCs per switch -- the retries must absorb them without
    rolling back.  Goodput is the fraction of circuits up.
    """
    from repro.fabric.lightwave import LightwaveFabric

    if circuits_per_ocs < 1 or 2 * circuits_per_ocs > 16:
        raise ConfigurationError("circuits_per_ocs must be in [1, 8]")
    injector = FaultInjector(seed=seed)
    faults = ControlPlaneFaults().attach(injector)
    fabric = LightwaveFabric()
    pairs: Dict[int, List[Tuple[str, str]]] = {}
    for i in range(num_ocses):
        fabric.add_ocs(OcsId(i))
        pairs[i] = []
        for j in range(2 * circuits_per_ocs):
            name = f"srv{i}-{j}"
            fabric.add_endpoint(name, 2)
            fabric.wire(name, 0, OcsId(i), "N", j)
            fabric.wire(name, 1, OcsId(i), "S", j)
        for k in range(circuits_per_ocs):
            a, b = f"srv{i}-{2 * k}", f"srv{i}-{2 * k + 1}"
            fabric.connect(a, b)
            pairs[i].append((a, b))
    total = num_ocses * circuits_per_ocs

    # The correlated burst: one board per OCS, seconds apart, then the
    # FRU swap (recovery edge) and a flaky control plane during re-make.
    for i in range(num_ocses):
        t_fail = 60.0 + float(i)
        injector.schedule(
            t_fail,
            FaultKind.OCS_HV_DRIVER,
            ocs_target(i),
            severity=float(board_index),
            clear_after_s=repair_s,
        )
        if rpc_timeouts > 0:
            injector.schedule(
                t_fail + repair_s - 1.0,
                FaultKind.RPC_TIMEOUT,
                ocs_target(i),
                severity=float(rpc_timeouts),
            )

    policy = RetryPolicy(max_retries=max(3, rpc_timeouts + 1))
    up = total
    dropped_total = restored_total = attempts_total = 0
    backoff_total = 0.0
    rollbacks = 0
    timeline: List[Tuple[float, float]] = [(0.0, 1.0)]
    while injector.num_pending:
        event = injector.pop_next()
        assert event is not None
        if event.kind is not FaultKind.OCS_HV_DRIVER:
            continue  # RPC_TIMEOUT feeds ``faults`` via its subscription
        index = target_index(event.target)
        device = fabric.ocs(OcsId(index))
        if not event.recovery:
            dropped = device.fail_driver_board("north", int(event.severity))
            fabric.manager.drop_stale_links()
            dropped_total += len(dropped)
            up -= len(dropped)
            timeline.append((event.time_s, up / total))
            continue
        device.replace_driver_board("north", int(event.severity))
        result, link_ids = fabric.connect_all(
            pairs[index], policy=policy, faults=faults, seed=seed + index
        )
        attempts_total += result.total_attempts
        backoff_total += result.backoff_ms
        restored_total += len(link_ids)
        up += len(link_ids)
        timeline.append((event.time_s, up / total))

    metrics = {
        "circuits": float(total),
        "dropped": float(dropped_total),
        "restored": float(restored_total),
        "attempts": float(attempts_total),
        "retries": float(attempts_total - num_ocses),
        "backoff_ms": backoff_total,
        "rollbacks": float(rollbacks),
        "final_up_fraction": up / total,
    }
    return ChaosReport(
        scenario="correlated_hv_batch",
        seed=seed,
        timeline=tuple(timeline),
        metrics=metrics,
        schedule=injector.delivered(),
    )


# ---------------------------------------------------------------------- #
# Scenario: rolling transceiver flaps
# ---------------------------------------------------------------------- #


def rolling_transceiver_flaps(
    seed: int = 0,
    num_links: int = 8,
    flap_rate_per_s: float = 1.0 / 120.0,
    flap_duration_s: float = 10.0,
    horizon_s: float = 900.0,
    damping: bool = False,
    spares: int = 1,
    model_name: str = "llm2",
) -> ChaosReport:
    """Endpoint optics bounce across a fabric's links, staggered.

    Each link's A-side endpoint flaps as an independent Poisson stream;
    a flap darkens the link for ``flap_duration_s``.  Goodput is the
    fraction of links currently lit, and the metrics summarize flap
    count, time-weighted availability, and the worst concurrent outage.

    With ``damping=True`` the scenario instead runs the fleet health
    watchdog (:mod:`repro.control.health`) against a single flapping
    link (bystanders stay quiet): BGP-style flap damping quarantines the
    circuit once its penalty crosses the suppress threshold, steering it
    to one of ``spares`` re-qualified spare ports -- or holding it out of
    service when ``spares=0``, with the capacity loss priced through
    :func:`repro.tpu.degradation.quarantine_step_degradation` for
    ``model_name`` -- then releases it after the hold-down once the
    penalty decays below reuse.  Defaults (``damping=False``) preserve
    the classic timeline and digest exactly.
    """
    from repro.fabric.lightwave import LightwaveFabric

    if damping:
        return _rolling_flaps_damped(
            seed=seed,
            num_links=num_links,
            flap_rate_per_s=flap_rate_per_s,
            flap_duration_s=flap_duration_s,
            horizon_s=horizon_s,
            spares=spares,
            model_name=model_name,
        )
    injector = FaultInjector(seed=seed)
    fabric = LightwaveFabric()
    fabric.add_ocs(OcsId(0))
    targets = []
    for j in range(num_links):
        a, b = f"tx{j}-a", f"tx{j}-b"
        fabric.add_endpoint(a, 1)
        fabric.add_endpoint(b, 1)
        fabric.wire(a, 0, OcsId(0), "N", j)
        fabric.wire(b, 0, OcsId(0), "S", j)
        fabric.connect(a, b)
        targets.append(endpoint_target(a))
    flaps = injector.schedule_poisson(
        FaultKind.TRANSCEIVER_FLAP,
        targets,
        flap_rate_per_s,
        horizon_s,
        clear_after_s=flap_duration_s,
    )

    dark_count: Dict[str, int] = {}
    timeline: List[Tuple[float, float]] = [(0.0, 1.0)]
    up_area = 0.0
    worst_dark = 0
    t_prev = 0.0
    while injector.num_pending:
        event = injector.pop_next()
        assert event is not None
        dark = sum(1 for c in dark_count.values() if c > 0)
        up_area += (num_links - dark) / num_links * (event.time_s - t_prev)
        t_prev = event.time_s
        delta = -1 if event.recovery else 1
        dark_count[event.target] = dark_count.get(event.target, 0) + delta
        dark = sum(1 for c in dark_count.values() if c > 0)
        worst_dark = max(worst_dark, dark)
        timeline.append((event.time_s, (num_links - dark) / num_links))
    dark = sum(1 for c in dark_count.values() if c > 0)
    end_s = max(horizon_s, t_prev)
    up_area += (num_links - dark) / num_links * (end_s - t_prev)
    timeline.append((end_s, (num_links - dark) / num_links))

    metrics = {
        "links": float(num_links),
        "flaps": float(flaps),
        "link_availability": up_area / end_s,
        "worst_concurrent_dark": float(worst_dark),
    }
    return ChaosReport(
        scenario="rolling_transceiver_flaps",
        seed=seed,
        timeline=tuple(timeline),
        metrics=metrics,
        schedule=injector.delivered(),
    )


def _rolling_flaps_damped(
    seed: int,
    num_links: int,
    flap_rate_per_s: float,
    flap_duration_s: float,
    horizon_s: float,
    spares: int,
    model_name: str,
) -> ChaosReport:
    """The ``damping=True`` arm of :func:`rolling_transceiver_flaps`."""
    from repro.control.health import DampingPolicy, FleetHealthWatchdog
    from repro.fabric.lightwave import LightwaveFabric
    from repro.fabric.repair import RepairLoop
    from repro.ocs.palomar import PALOMAR_USABLE_PORTS

    if num_links < 2:
        raise ConfigurationError("damped drill needs a bystander: num_links >= 2")
    if spares < 0:
        raise ConfigurationError("spares must be non-negative")
    injector = FaultInjector(seed=seed)
    fabric = LightwaveFabric()
    fabric.add_ocs(OcsId(0))
    device = fabric.ocs(OcsId(0))
    policy = DampingPolicy()
    watchdog = FleetHealthWatchdog(policy=policy)
    loop = RepairLoop(
        device,
        spare_south_ports=list(
            range(PALOMAR_USABLE_PORTS, PALOMAR_USABLE_PORTS + spares)
        ),
    )
    if spares > 0:
        watchdog.add_repair_loop(0, loop)
    for j in range(num_links):
        a, b = f"tx{j}-a", f"tx{j}-b"
        fabric.add_endpoint(a, 1)
        fabric.add_endpoint(b, 1)
        fabric.wire(a, 0, OcsId(0), "N", j)
        fabric.wire(b, 0, OcsId(0), "S", j)
        fabric.connect(a, b)
        watchdog.watch_circuit(0, j, j)
        watchdog.map_endpoint(endpoint_target(a), 0, j)
    watchdog.attach(injector)
    bystander_souths = {j: device.state.south_of(j) for j in range(1, num_links)}

    # One flapping link, deterministic train: the gap is chosen so the
    # decayed penalty crosses suppress on the third flap (bystanders
    # never flap -- the drill checks they are never disturbed either).
    flap_gap_s = max(1.0 / flap_rate_per_s / 8.0, flap_duration_s + 1.0)
    num_flaps = 4
    for k in range(num_flaps):
        injector.schedule(
            30.0 + k * flap_gap_s,
            FaultKind.TRANSCEIVER_FLAP,
            endpoint_target("tx0-a"),
            clear_after_s=flap_duration_s,
        )

    model = LLM_ZOO[model_name]
    plan = ParallelismPlan.for_shape(model, (16, 16, 16))
    step_model = TrainingStepModel()

    def goodput_now() -> float:
        frac = watchdog.held_out_fraction(0)
        if frac == 0.0:
            return 1.0
        return 1.0 / (1.0 + quarantine_step_degradation(plan, step_model, 0, frac))

    timeline: List[Tuple[float, float]] = [(0.0, 1.0)]
    quarantine_t = release_t = -1.0
    quarantines = steered = released = released_home = 0
    held_out_max = 0.0
    goodput_during_quarantine = 1.0
    now = 0.0

    def act(t: float) -> None:
        nonlocal quarantine_t, release_t, quarantines, steered
        nonlocal released, released_home, held_out_max, goodput_during_quarantine
        for action in watchdog.poll(t):
            if action.action in ("steer", "hold-out"):
                quarantines += 1
                quarantine_t = t if quarantine_t < 0 else quarantine_t
                steered += 1 if action.action == "steer" else 0
            else:
                released += 1
                released_home += 1 if action.action == "release-home" else 0
                release_t = t
        held_out_max = max(held_out_max, watchdog.held_out_fraction(0))
        g = goodput_now()
        if watchdog.quarantined():
            goodput_during_quarantine = min(goodput_during_quarantine, g)
        timeline.append((t, g))

    while injector.num_pending:
        event = injector.pop_next()
        assert event is not None
        now = event.time_s
        act(now)
    # Keep polling past the flap train until the hold-down and penalty
    # decay release the circuit (bounded by the policy's worst case).
    deadline = now + policy.hold_down_s + policy.max_suppress_s() + horizon_s
    poll_gap_s = 15.0
    while watchdog.quarantined() and now < deadline:
        now += poll_gap_s
        act(now)
    timeline.append((now, goodput_now()))

    bystanders_disturbed = sum(
        1
        for j, south in bystander_souths.items()
        if device.state.south_of(j) != south
    )
    metrics = {
        "links": float(num_links),
        "flaps": float(num_flaps),
        "quarantines": float(quarantines),
        "steered": float(steered),
        "released": float(released),
        "released_home": float(released_home),
        "quarantine_t_s": quarantine_t,
        "release_t_s": release_t,
        "bystanders_disturbed": float(bystanders_disturbed),
        "held_out_max_fraction": held_out_max,
        "goodput_during_quarantine": goodput_during_quarantine,
        "final_goodput": timeline[-1][1],
    }
    return ChaosReport(
        scenario="rolling_transceiver_flaps",
        seed=seed,
        timeline=tuple(timeline),
        metrics=metrics,
        schedule=injector.delivered(),
    )


# ---------------------------------------------------------------------- #
# Scenario: repair loop vs incoming pinches
# ---------------------------------------------------------------------- #


def repair_race(
    seed: int = 0,
    num_circuits: int = 6,
    num_spares: int = 3,
    damaged_spares: int = 1,
    pinch_db: float = 1.0,
    pinch_rate_per_s: float = 1.0 / 60.0,
    horizon_s: float = 600.0,
) -> ChaosReport:
    """Fiber pinches race the spare-port repair loop until the pool dries.

    Pinches arrive as Poisson streams per circuit; each drives the loop
    through telemetry -> re-qualify -> spare swap.  The pool is small
    and partially damaged (``damaged_spares`` fail re-qualification), so
    late repairs exhaust it and surface
    :class:`~repro.core.errors.CapacityError` with the degraded circuit
    and attempted spares attached.  Goodput is the fraction of circuits
    not stuck in an unrepairable state.
    """
    from repro.fabric.repair import RepairLoop
    from repro.ocs.palomar import PALOMAR_USABLE_PORTS, PalomarOcs

    if num_spares < 1 or damaged_spares > num_spares:
        raise ConfigurationError("need 1+ spares and damaged_spares <= num_spares")
    injector = FaultInjector(seed=seed)
    ocs = PalomarOcs.build(name="chaos-repair", seed=seed)
    spares = list(range(PALOMAR_USABLE_PORTS, PALOMAR_USABLE_PORTS + num_spares))
    loop = RepairLoop(ocs, spare_south_ports=spares)
    for d in range(damaged_spares):
        loop.degrade_south_port(spares[d], loop.requalify_fail_db + 1.5)
    for j in range(num_circuits):
        ocs.connect(j, j)
    pinches = injector.schedule_poisson(
        FaultKind.FIBER_PINCH,
        [circuit_target(0, j, j) for j in range(num_circuits)],
        pinch_rate_per_s,
        horizon_s,
        severity=pinch_db,
    )

    unrepairable: set = set()
    capacity_errors = 0
    last_error: Optional[CapacityError] = None
    timeline: List[Tuple[float, float]] = [(0.0, 1.0)]
    while injector.num_pending:
        event = injector.pop_next()
        assert event is not None
        # Target "ocs-0/N<j>-S<j>": the pinch lands on the fiber behind
        # north port j wherever its circuit currently terminates.
        tail = event.target.partition("/")[2]
        north = int(tail.split("-", 1)[0][1:])
        south = ocs.state.south_of(north)
        if south is None:
            continue  # circuit stuck unrepaired and torn down; pinch moot
        loop.degrade_circuit(north, south, event.severity)
        for anomaly in loop.scan():
            if anomaly.circuit[0] in unrepairable:
                continue
            try:
                loop.remediate(anomaly)
            except CapacityError as err:
                capacity_errors += 1
                last_error = err
                unrepairable.add(anomaly.circuit[0])
        healthy = (num_circuits - len(unrepairable)) / num_circuits
        timeline.append((event.time_s, healthy))

    metrics = {
        "circuits": float(num_circuits),
        "pinches": float(pinches),
        "repairs": float(len(loop.actions)),
        "capacity_errors": float(capacity_errors),
        "unrepairable": float(len(unrepairable)),
        "attempted_spares_last": float(
            len(last_error.attempted_spares) if last_error is not None else 0
        ),
    }
    return ChaosReport(
        scenario="repair_race",
        seed=seed,
        timeline=tuple(timeline),
        metrics=metrics,
        schedule=injector.delivered(),
    )


# ---------------------------------------------------------------------- #
# Scenario: controller crash sweep over a 3-OCS reconfiguration
# ---------------------------------------------------------------------- #


def controller_crash_recovery(
    seed: int = 0,
    num_ocses: int = 3,
    links_per_ocs: int = 6,
    moved_per_ocs: int = 4,
    obs=None,
) -> ChaosReport:
    """Kill the durable controller at every step of a reconfiguration.

    One WAL-backed controller (:mod:`repro.control.journal`) establishes
    ``links_per_ocs`` links on each of ``num_ocses`` switches, then runs
    a multi-OCS reconfiguration moving ``moved_per_ocs`` circuits per
    switch.  The drill sweeps a deterministic crash through **every**
    instrumented step of that transaction -- each WAL append (including
    the one the crash tears) and each per-switch hardware apply.  After
    each crash a fresh controller recovers from the surviving WAL bytes
    and the hardware the dead one left behind; the run checks that

    - :meth:`~repro.core.fabric_manager.FabricManager.verify_links` is
      empty after recovery (intent == hardware),
    - the anti-entropy :class:`~repro.control.reconcile.Reconciler`
      converges with nothing to do,
    - every crash *after* the commit marker recovers to the one
      rolled-forward state digest, every crash *before* it to the one
      rolled-back digest -- byte-determinism across all crash points.

    Goodput is the fraction of links realized after each recovery (1.0
    at every point, or the drill failed); metrics count the crash
    points and distinct digests.

    Pass an :class:`~repro.obs.Observability` bundle as ``obs`` to trace
    the whole sweep (transaction, crash, recovery, reconcile spans) --
    the report and its digest are identical with or without it.
    """
    from repro.control import CrashSchedule, DurableController, Reconciler, recover
    from repro.core.crossconnect import CrossConnectMap
    from repro.core.errors import ControllerCrash
    from repro.core.fabric_manager import FabricManager
    from repro.core.ids import LinkId
    from repro.ocs.palomar import PalomarOcs

    if num_ocses < 1 or links_per_ocs < 1 or not 0 < moved_per_ocs <= links_per_ocs:
        raise ConfigurationError(
            "need >=1 OCS, >=1 link, and 0 < moved_per_ocs <= links_per_ocs"
        )
    injector = FaultInjector(seed=seed, obs=obs)

    def build() -> FabricManager:
        mgr = FabricManager(obs=obs)
        for i in range(num_ocses):
            mgr.add_switch(OcsId(i), PalomarOcs.build(name=f"crash-ocs{i}", seed=seed + i))
        return mgr

    def targets_for(mgr: FabricManager) -> Dict[OcsId, CrossConnectMap]:
        out: Dict[OcsId, CrossConnectMap] = {}
        for i in range(num_ocses):
            sw = mgr.switch(OcsId(i))
            circuits = dict(sw.state.circuits)
            moved = {
                n: n + 2 * links_per_ocs for n in sorted(circuits)[:moved_per_ocs]
            }
            merged = {n: s for n, s in circuits.items() if n not in moved}
            merged.update(moved)
            out[OcsId(i)] = CrossConnectMap.from_circuits(sw.radix, merged)
        return out

    # Straight-line run: the WAL bytes after adoption, and the digest a
    # committed transaction must recover to.
    mgr0 = build()
    ctl0 = DurableController(manager=mgr0, obs=obs)
    for i in range(num_ocses):
        for n in range(links_per_ocs):
            ctl0.establish(LinkId(f"lk-{i}-{n}"), OcsId(i), n, n + links_per_ocs)
    wal_after_adopt = bytes(ctl0.wal.storage)
    ctl0.reconfigure(targets_for(mgr0))
    committed_digest = ctl0.state_digest()
    total_links = num_ocses * links_per_ocs

    timeline: List[Tuple[float, float]] = [(0.0, 1.0)]
    forward_digests: set = set()
    rollback_digests: set = set()
    recoveries_ok = 0
    reconciles_converged = 0
    tail_bytes_total = 0
    step = 1
    while True:
        mgr = build()
        storage = bytearray(wal_after_adopt)
        ctl, _ = recover(mgr, storage, obs=obs)
        crash = CrashSchedule(at_step=step)
        ctl.crash = crash
        ctl.wal.crash = crash
        try:
            ctl.reconfigure(targets_for(mgr))
        except ControllerCrash:
            injector.schedule(
                float(step), FaultKind.CONTROLLER_CRASH, controller_target(0),
                severity=float(step),
            )
            injector.pop_next()
            _, report = recover(mgr, storage, obs=obs)
            surviving = total_links - len(mgr.verify_links())
            if surviving == total_links:
                recoveries_ok += 1
            if Reconciler(manager=mgr, drop_orphans=False, obs=obs).run().converged:
                reconciles_converged += 1
            tail_bytes_total += report.tail_bytes_dropped
            if report.open_txn == "rolled-forward":
                forward_digests.add(report.state_digest)
            else:
                rollback_digests.add(report.state_digest)
            timeline.append((float(step), surviving / total_links))
            step += 1
            continue
        break

    crash_points = step - 1
    metrics = {
        "crash_points": float(crash_points),
        "recoveries_ok": float(recoveries_ok),
        "reconciles_converged": float(reconciles_converged),
        "forward_digests": float(len(forward_digests)),
        "rollback_digests": float(len(rollback_digests)),
        "forward_matches_committed": float(
            forward_digests in ({committed_digest}, set())
        ),
        "tail_bytes_dropped": float(tail_bytes_total),
        "deterministic": float(
            len(forward_digests) <= 1 and len(rollback_digests) <= 1
        ),
    }
    return ChaosReport(
        scenario="controller_crash_recovery",
        seed=seed,
        timeline=tuple(timeline),
        metrics=metrics,
        schedule=injector.delivered(),
    )


# ---------------------------------------------------------------------- #
# Scenario: replicated control plane under a partition/skew/crash storm
# ---------------------------------------------------------------------- #


def partition_failover(
    seed: int = 0,
    num_replicas: int = 3,
    horizon_s: float = 60.0,
    storm_period_s: float = 6.0,
    submit_gap_s: float = 0.25,
    lease_s: float = 1.0,
    skew_rate_per_s: float = 0.01,
    obs=None,
) -> ChaosReport:
    """Partition/skew/crash storm against the replicated control plane.

    A :class:`~repro.control.replication.ReplicationGroup` of
    ``num_replicas`` controllers serves a steady client stream (one
    retarget every ``submit_gap_s``) while a rolling storm, one cycle
    per ``storm_period_s``, (a) crashes the cycle's victim replica,
    (b) maroons a second replica behind a network partition, and
    (c) skews a third replica's clock -- the three new failure modes of
    the HA control plane, all driven through one injector timeline.  A
    background Poisson stream of additional clock-skew events adds
    seed-dependent jitter on top of the deterministic storm.

    The client mirrors the serving layer's breaker edge: when a submit
    bounces (dead or deposed leader, lost quorum) it sweeps the
    client-reachable live replicas for one election attempt and retries
    once.  Goodput at each tick is the commit indicator, so the
    timeline shows the election gaps carved by each storm cycle.

    After the storm clears, the run checks the invariants the
    replication layer exists to provide:

    - ``committed_ops_lost == 0``: every client-acked commit is in the
      surviving log, byte-for-byte (fencing kept deposed leaders out);
    - ``digest_match == 1``: the final fabric state digest equals a
      from-scratch serial replay of the committed log;
    - at most one leader per epoch (the group raises internally on a
      violation, so finishing at all certifies it; ``epochs`` counts
      the distinct epochs the storm forced).
    """
    from repro.control.replication import ReplicationGroup
    from repro.core.errors import NotLeaderError, QuorumError
    from repro.core.fabric_manager import FabricManager, SimpleSwitch

    if num_replicas < 3 or num_replicas % 2 == 0:
        raise ConfigurationError("need an odd replica group of 3+")
    if horizon_s <= 0 or storm_period_s <= 0 or submit_gap_s <= 0 or lease_s <= 0:
        raise ConfigurationError("horizon, storm period, gap, lease must be > 0")

    injector = FaultInjector(seed=seed, obs=obs)

    def build() -> FabricManager:
        mgr = FabricManager(obs=obs)
        mgr.add_switch(OcsId(0), SimpleSwitch(16))
        return mgr

    group = ReplicationGroup(
        num_replicas=num_replicas,
        manager_factory=build,
        lease_s=lease_s,
        obs=obs,
    )
    group.elect(0, 0.0)
    group.attach_faults(injector)

    # The deterministic storm: victim/marooned/skewed roles rotate each
    # cycle so every replica sees every failure mode.
    storm_cycles = 0
    t = storm_period_s / 2.0
    while t + storm_period_s * 0.9 < horizon_s:
        cycle = storm_cycles
        victim = cycle % num_replicas
        marooned = (cycle + 1) % num_replicas
        skewed = (cycle + 2) % num_replicas
        injector.schedule(
            t, FaultKind.CONTROLLER_CRASH, controller_target(victim),
            severity=1.0, clear_after_s=storm_period_s * 0.4,
        )
        rest = sorted(set(range(num_replicas)) - {marooned})
        injector.schedule(
            t + storm_period_s * 0.25, FaultKind.NETWORK_PARTITION,
            network_target("control"),
            params=(partition_groups_param([[marooned], rest]),),
            clear_after_s=storm_period_s * 0.3,
        )
        injector.schedule(
            t + storm_period_s * 0.5, FaultKind.CLOCK_SKEW,
            controller_target(skewed),
            severity=2.0 if cycle % 2 == 0 else -2.0,
            clear_after_s=storm_period_s * 0.4,
        )
        storm_cycles += 1
        t += storm_period_s
    # Seed-dependent background skew on top of the deterministic storm.
    extra_skews = injector.schedule_poisson(
        FaultKind.CLOCK_SKEW,
        [controller_target(i) for i in range(num_replicas)],
        skew_rate_per_s,
        horizon_s,
        severity=1.5,
        clear_after_s=2.0 * lease_s,
    )

    def submit_with_failover(payload: Dict[str, object], now_s: float,
                             token: str) -> bool:
        # Mirrors FabricService._gate_attempt: a bounced submit earns one
        # election sweep (ReplicationGroup.elect_reachable), then one
        # retry against the new leader.
        for _ in range(2):
            try:
                group.submit(payload, now_s, token=token)
                return True
            except (NotLeaderError, QuorumError):
                pass
            if not group.elect_reachable(now_s):
                return False
        return False

    offered = 0
    committed = 0
    timeline: List[Tuple[float, float]] = [(0.0, 1.0)]
    now = 0.0
    k = 0
    while now + submit_gap_s <= horizon_s:
        now = round(now + submit_gap_s, 9)
        injector.advance_to(now)
        payload = {
            "op": "retarget",
            "changes": [[0, k % 8, 8 + ((k // 8 + k) % 8)]],
        }
        offered += 1
        ok = submit_with_failover(payload, now, token=f"op-{k}")
        committed += 1 if ok else 0
        timeline.append((now, 1.0 if ok else 0.0))
        k += 1

    # Let the last clears land, settle with a final barrier commit, then
    # close any open outage window before accounting.
    settle_s = horizon_s + storm_period_s
    injector.advance_to(settle_s)
    settled = submit_with_failover({"op": "noop"}, settle_s, token="settle")
    group.finalize_outage(settle_s)
    timeline.append((settle_s, 1.0 if settled else 0.0))

    metrics = {
        "replicas": float(num_replicas),
        "storm_cycles": float(storm_cycles),
        "extra_skews": float(extra_skews),
        "ops_offered": float(offered),
        "ops_committed": float(committed),
        "goodput": committed / offered if offered else 1.0,
        "elections": float(group.elections),
        "election_failures": float(group.election_failures),
        "fencing_rejections": float(group.fencing_rejections),
        "lease_refusals": float(group.lease_refusals),
        "epochs": float(len(group.epoch_leaders())),
        "committed_ops_lost": float(group.committed_ops_lost()),
        "digest_match": float(group.state_digest() == group.replay_digest()),
        "settled": float(settled),
        "availability": group.availability(settle_s),
    }
    return ChaosReport(
        scenario="partition_failover",
        seed=seed,
        timeline=tuple(timeline),
        metrics=metrics,
        schedule=injector.delivered(),
    )


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #

Scenario = Callable[..., ChaosReport]

SCENARIOS: Dict[str, Scenario] = {
    "single_ocs_loss": single_ocs_loss,
    "correlated_hv_batch": correlated_hv_batch,
    "rolling_transceiver_flaps": rolling_transceiver_flaps,
    "repair_race": repair_race,
    "controller_crash_recovery": controller_crash_recovery,
    "partition_failover": partition_failover,
}

#: Fast parameterizations for CI smoke runs (< 30 s altogether).
SMOKE_KWARGS: Dict[str, Dict[str, float]] = {
    "single_ocs_loss": {"horizon_hours": 2000.0},
    "correlated_hv_batch": {"num_ocses": 2, "circuits_per_ocs": 2},
    "rolling_transceiver_flaps": {"num_links": 4, "horizon_s": 300.0},
    "repair_race": {"num_circuits": 4, "horizon_s": 300.0},
    "controller_crash_recovery": {"num_ocses": 2, "links_per_ocs": 4},
    "partition_failover": {"horizon_s": 24.0},
}


def run_scenario(name: str, seed: int = 0, **kwargs) -> ChaosReport:
    """Run a registered scenario by name."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; have {sorted(SCENARIOS)}"
        ) from None
    return scenario(seed=seed, **kwargs)


def run_chaos_drill(seed: int = 0, smoke: bool = True) -> Dict[str, object]:
    """Every scenario once, at its fast CI parameters -- except that
    without ``smoke`` ``single_ocs_loss`` runs its full horizon.  The
    summary carries each report's digest and five safety SLOs that read
    0 on a healthy fabric."""
    reports = {
        name: run_scenario(name, seed=seed, **(
            {} if name == "single_ocs_loss" and not smoke else SMOKE_KWARGS[name]
        ))
        for name in sorted(SCENARIOS)
    }
    crash = reports["controller_crash_recovery"].metrics
    partition = reports["partition_failover"].metrics
    summary: Dict[str, object] = {
        "seed": seed,
        "smoke": smoke,
        "digests": {name: report.digest() for name, report in reports.items()},
        "chaos_crash_unrecovered": crash["crash_points"] - crash["recoveries_ok"],
        "chaos_crash_unconverged": (
            crash["crash_points"] - crash["reconciles_converged"]
        ),
        "chaos_crash_nondeterministic": (
            1.0 - crash["deterministic"] * crash["forward_matches_committed"]
        ),
        "chaos_partition_ops_lost": partition["committed_ops_lost"],
        "chaos_partition_digest_mismatch": 1.0 - partition["digest_match"],
    }
    return {"summary": summary, "reports": reports}

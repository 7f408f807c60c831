"""The scalar §8 flow engine as ``repro.sim`` shipped it beside the batch one.

Frozen copies of the per-flow replay (``simulate_flow`` and the
``_execute_action`` walk over ``RateAdaptation``), the oracles' candidate
scan with the oracle policies built on it, the scalar branches of
``simulate_timeline`` and ``profile_from_timeline``, and the grid's
per-flow point loop.  :class:`repro.sim.batch.BatchFlowSimulator` is the
only engine in ``src/``; the parity suites hold it to these functions bit
for bit: same ``FlowResult`` floats, same trace events, same metrics.
"""

from __future__ import annotations

from typing import Optional

from repro.constants import (
    DEAD_LINK_CDR,
    WORKING_MCS_MIN_CDR,
    WORKING_MCS_MIN_THROUGHPUT_MBPS,
)
from repro.core.ground_truth import Action
from repro.core.policies import LinkAdaptationPolicy, Observation, PolicyDecision
from repro.core.rate_adaptation import RateAdaptation
from repro.dataset.entry import DatasetEntry
from repro.obs.events import FlowEvent, RepairStep
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, get_metrics
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.sim.engine import FlowResult, SimulationConfig
from repro.sim.vr import COTS_SCALE, BandwidthProfile


# -- the scalar flow engine (repro.sim.engine) ------------------------------


def observation_from_entry(entry: DatasetEntry, config: SimulationConfig) -> Observation:
    """What the transmitter can see right after the impairment.

    The ACK goes missing when the old pair's CDR at the current MCS is
    (near) zero — no codeword of the frame decodes, so no Block ACK
    returns and no fresh metrics arrive.
    """
    cdr_now = float(entry.traces_same_pair.cdr[entry.initial_mcs])
    tput_now = float(entry.traces_same_pair.throughput_mbps[entry.initial_mcs])
    ack_missing = cdr_now < DEAD_LINK_CDR
    working = cdr_now > WORKING_MCS_MIN_CDR and tput_now > WORKING_MCS_MIN_THROUGHPUT_MBPS
    return Observation(
        features=None if ack_missing else entry.features,
        ack_missing=ack_missing,
        current_mcs=entry.initial_mcs,
        current_mcs_working=working,
        ba_overhead_s=config.ba_overhead_s,
    )


def _record_repair(trace: Optional[FlowEvent], pair: str, start_mcs: int, repair) -> None:
    if trace is not None:
        trace.repairs.append(
            RepairStep(
                pair=pair,
                start_mcs=start_mcs,
                frames_spent=repair.frames_spent,
                found_mcs=repair.found_mcs,
                bytes_during_search=repair.bytes_during_search,
            )
        )


def _execute_action(
    action: Action,
    entry: DatasetEntry,
    config: SimulationConfig,
    duration_s: float,
    trace: Optional[FlowEvent] = None,
) -> FlowResult:
    """Charge the chosen recovery procedure and the steady state after it.

    ``trace``, when given, accumulates the repair ladder — which beam pair
    each RA round probed, the frames it spent, and where it settled.
    """
    ra = RateAdaptation(frame_time_s=config.frame_time_s)
    elapsed = 0.0
    delivered = 0.0

    if action is Action.NA:
        # Keep transmitting at the current MCS on the old pair.
        delivered = ra.steady_state_bytes(
            entry.traces_same_pair, entry.initial_mcs, duration_s
        )
        cdr = float(entry.traces_same_pair.cdr[entry.initial_mcs])
        return FlowResult(delivered, 0.0, action, entry.initial_mcs, cdr < DEAD_LINK_CDR)

    if action is Action.RA:
        repair = ra.repair(entry.traces_same_pair, entry.initial_mcs)
        _record_repair(trace, "same", entry.initial_mcs, repair)
        elapsed += repair.frames_spent * config.frame_time_s
        delivered += repair.bytes_during_search
        if repair.found_mcs is not None:
            remaining = max(0.0, duration_s - elapsed)
            delivered += ra.steady_state_bytes(
                entry.traces_same_pair, repair.found_mcs, remaining
            )
            return FlowResult(delivered, elapsed, action, repair.found_mcs)
        # Algorithm 1 fallback: failed RA -> BA -> RA on the new pair.
        elapsed += config.ba_overhead_s
        if trace is not None:
            trace.ba_invoked = True
        repair2 = ra.repair(entry.traces_best_pair, entry.initial_mcs)
        _record_repair(trace, "best", entry.initial_mcs, repair2)
        elapsed += repair2.frames_spent * config.frame_time_s
        delivered += repair2.bytes_during_search
        if repair2.found_mcs is None:
            return FlowResult(delivered, min(elapsed, duration_s), action, None, True)
        remaining = max(0.0, duration_s - elapsed)
        delivered += ra.steady_state_bytes(
            entry.traces_best_pair, repair2.found_mcs, remaining
        )
        return FlowResult(delivered, elapsed, action, repair2.found_mcs)

    # BA first: sweep (zero goodput), then RA on the new best pair.
    elapsed += config.ba_overhead_s
    if trace is not None:
        trace.ba_invoked = True
    repair = ra.repair(entry.traces_best_pair, entry.initial_mcs)
    _record_repair(trace, "best", entry.initial_mcs, repair)
    elapsed += repair.frames_spent * config.frame_time_s
    delivered += repair.bytes_during_search
    if repair.found_mcs is None:
        return FlowResult(delivered, min(elapsed, duration_s), action, None, True)
    remaining = max(0.0, duration_s - elapsed)
    delivered += ra.steady_state_bytes(entry.traces_best_pair, repair.found_mcs, remaining)
    return FlowResult(delivered, elapsed, action, repair.found_mcs)


def simulate_flow(
    policy: LinkAdaptationPolicy,
    entry: DatasetEntry,
    config: SimulationConfig,
    duration_s: float,
    recorder: TraceRecorder = NULL_RECORDER,
    metrics: MetricsRegistry = NULL_METRICS,
) -> FlowResult:
    """Simulate one flow that hits the entry's impairment at t = 0.

    An enabled recorder receives one :class:`~repro.obs.events.FlowEvent`
    per call.
    """
    if duration_s <= 0:
        raise ValueError("flow duration must be positive")
    bind = getattr(policy, "bind", None)
    if bind is not None:  # oracles are clairvoyant: hand them the entry
        bind(entry, duration_s)
    observation = observation_from_entry(entry, config)
    try:
        decision = policy.decide(observation)
    except Exception as error:  # isolation boundary: a crashing policy must not kill the run
        # Count the degradation on the process-wide registry (never the
        # per-call one: scalar/batch metric parity compares those), then
        # retry with the feedback discarded — the degraded observation is
        # the missing-ACK shape every policy must handle (§7).
        get_metrics().counter("sim.policy_decide_error").inc()
        rule = policy.decide(observation.degraded())
        decision = PolicyDecision(
            rule.action,
            f"policy error ({type(error).__name__}: {error}); "
            f"retried degraded: {rule.reason}",
            fallback=True,
        )
    action = decision.action
    trace: Optional[FlowEvent] = None
    if recorder.enabled:
        trace = FlowEvent(
            policy=getattr(policy, "name", type(policy).__name__),
            decided_action=action.value,
            executed_action=action.value,
            ack_missing=observation.ack_missing,
            current_mcs=observation.current_mcs,
            current_mcs_working=observation.current_mcs_working,
            bytes_delivered=0.0,
            recovery_delay_s=0.0,
            duration_s=duration_s,
            decision_fallback=decision.fallback,
            decision_reason=decision.reason,
            features=None if observation.features is None
            else [float(v) for v in observation.features.to_array()],
            kind=entry.kind.value,
            room=entry.room,
            position=entry.position_label,
        )
    if action is Action.NA and not observation.current_mcs_working:
        # A policy that ignores a dead link would deliver nothing forever;
        # every real device falls back once the ACK timeout fires.  Charge
        # one frame of silence, then force the device's default (RA).
        inner = _execute_action(
            Action.RA, entry, config,
            max(duration_s - config.frame_time_s, 0.0),
            trace,
        )
        result = FlowResult(
            inner.bytes_delivered,
            inner.recovery_delay_s + config.frame_time_s,
            Action.RA,
            inner.settled_mcs,
            inner.link_died,
        )
        if trace is not None:
            trace.forced_ra = True
    else:
        result = _execute_action(action, entry, config, duration_s, trace)
    if trace is not None:
        trace.executed_action = result.action.value
        trace.bytes_delivered = result.bytes_delivered
        trace.recovery_delay_s = result.recovery_delay_s
        trace.settled_mcs = result.settled_mcs
        trace.link_died = result.link_died
        recorder.record(trace)
    if metrics.enabled:
        metrics.counter("sim.flows").inc()
        metrics.counter(f"sim.action.{result.action.value}").inc()
        metrics.histogram("sim.recovery_delay_s").observe(result.recovery_delay_s)
        metrics.histogram("sim.bytes_delivered").observe(result.bytes_delivered)
        if result.link_died:
            metrics.counter("sim.link_died").inc()
    return result


def simulate_timeline(
    policy: LinkAdaptationPolicy,
    timeline,
    config: SimulationConfig,
    recorder: TraceRecorder = NULL_RECORDER,
    metrics: MetricsRegistry = NULL_METRICS,
) -> tuple[float, float, int]:
    """``repro.sim.engine.simulate_timeline`` without a simulator.

    Returns ``(total_bytes, mean_recovery_delay_s, num_breaks)``.
    """
    total_bytes = 0.0
    total_delay = 0.0
    breaks = 0
    policy.reset()
    for segment in timeline.segments:
        if segment.entry is None:
            # Clear segment: steady state at the recovered link rate.
            total_bytes += segment.clear_rate_mbps * 1e6 / 8.0 * segment.duration_s
            continue
        result = simulate_flow(
            policy, segment.entry, config, segment.duration_s, recorder, metrics
        )
        total_bytes += result.bytes_delivered
        total_delay += min(result.recovery_delay_s, segment.duration_s)
        breaks += 1
    mean_delay = total_delay / breaks if breaks else 0.0
    return total_bytes, mean_delay, breaks


def profile_from_timeline(
    policy,
    timeline,
    sim_config,
    rate_scale: float = COTS_SCALE,
) -> BandwidthProfile:
    """``repro.sim.vr.profile_from_timeline`` without a simulator."""
    times = [0.0]
    rates = []
    clock = 0.0
    policy.reset()
    for segment in timeline.segments:
        if segment.entry is None:
            rates.append(segment.clear_rate_mbps * rate_scale)
            clock += segment.duration_s
            times.append(clock)
            continue
        result = simulate_flow(
            policy, segment.entry, sim_config, segment.duration_s
        )
        delay = min(result.recovery_delay_s, segment.duration_s)
        if delay > 0.0:
            rates.append(0.0)
            clock += delay
            times.append(clock)
        remaining = segment.duration_s - delay
        if remaining > 0.0:
            rate = result.bytes_delivered * 8.0 / 1e6 / remaining
            rates.append(rate * rate_scale)
            clock += remaining
            times.append(clock)
    times.pop()  # the last entry is the end time, not a segment start
    if not rates:
        raise ValueError("timeline produced no segments")
    return BandwidthProfile(tuple(times), tuple(rates))


# -- the oracle scan (repro.sim.oracle) --------------------------------------


def _candidates(
    entry: DatasetEntry, config: SimulationConfig, duration_s: float
) -> list[tuple[Action, FlowResult]]:
    """All three actions' outcomes.

    NA is a candidate too: when the impairment left the current MCS
    working, the *right* adaptation decision can be not to adapt (that is
    LiBRA's third class, §7) — on a broken link NA delivers nothing and
    never wins.
    """
    return [
        (action, _execute_action(action, entry, config, duration_s))
        for action in (Action.NA, Action.RA, Action.BA)
    ]


def oracle_data_choice(
    entry: DatasetEntry, config: SimulationConfig, duration_s: float
) -> tuple[Action, FlowResult]:
    """The bytes-maximising action and its outcome.

    Ties prefer NA over RA over BA (cheaper mechanisms first).
    """
    candidates = _candidates(entry, config, duration_s)
    best_action, best = candidates[0]
    for action, result in candidates[1:]:
        if result.bytes_delivered > best.bytes_delivered + 1e-9:
            best_action, best = action, result
    # NA on a dead link delivers ~0 but also reports 0 delay; never allow
    # it to mask a dead link.
    if best_action is Action.NA and best.link_died:
        return oracle_data_choice_no_na(entry, config, duration_s)
    return best_action, best


def oracle_data_choice_no_na(
    entry: DatasetEntry, config: SimulationConfig, duration_s: float
) -> tuple[Action, FlowResult]:
    """Bytes-maximising choice restricted to the two repair mechanisms."""
    ra = _execute_action(Action.RA, entry, config, duration_s)
    ba = _execute_action(Action.BA, entry, config, duration_s)
    if ra.bytes_delivered >= ba.bytes_delivered:
        return Action.RA, ra
    return Action.BA, ba


def oracle_delay_choice(
    entry: DatasetEntry, config: SimulationConfig, duration_s: float
) -> tuple[Action, FlowResult]:
    """The delay-minimising action and its outcome.

    A working current MCS means zero recovery delay without adapting (NA);
    otherwise RA and BA compete, with ties broken toward the higher byte
    count (a free secondary criterion).
    """
    na = _execute_action(Action.NA, entry, config, duration_s)
    if not na.link_died and na.bytes_delivered > 0.0:
        if observation_from_entry(entry, config).current_mcs_working:
            return Action.NA, na
    ra = _execute_action(Action.RA, entry, config, duration_s)
    ba = _execute_action(Action.BA, entry, config, duration_s)
    if ra.recovery_delay_s < ba.recovery_delay_s:
        return Action.RA, ra
    if ba.recovery_delay_s < ra.recovery_delay_s:
        return Action.BA, ba
    return oracle_data_choice_no_na(entry, config, duration_s)


class _OracleBase(LinkAdaptationPolicy):
    """Policy adapter: looks up the pre-computed choice for the entry."""

    def __init__(self, config: SimulationConfig, duration_s: float):
        self.config = config
        self.duration_s = duration_s
        self._bound_entry: Optional[DatasetEntry] = None

    def bind(self, entry: DatasetEntry, duration_s: Optional[float] = None) -> None:
        self._bound_entry = entry
        if duration_s is not None:
            self.duration_s = duration_s

    def _choose(self, entry: DatasetEntry) -> Action:
        raise NotImplementedError

    def decide(self, observation: Observation) -> PolicyDecision:
        if self._bound_entry is None:
            raise RuntimeError("oracle was not bound to an entry before deciding")
        return PolicyDecision(self._choose(self._bound_entry), "clairvoyant")


class OracleData(_OracleBase):
    """Always picks the bytes-maximising mechanism."""

    name = "Oracle-Data"

    def _choose(self, entry: DatasetEntry) -> Action:
        action, _ = oracle_data_choice(entry, self.config, self.duration_s)
        return action


class OracleDelay(_OracleBase):
    """Always picks the delay-minimising mechanism."""

    name = "Oracle-Delay"

    def _choose(self, entry: DatasetEntry) -> Action:
        action, _ = oracle_delay_choice(entry, self.config, self.duration_s)
        return action


# -- the scalar grid loop (repro.sim.sweep.EvaluationGrid) -------------------


def run_point_scalar(grid, point, recorder: TraceRecorder = NULL_RECORDER):
    """``EvaluationGrid._run_point_scalar``: one operating point, flow by flow."""
    metrics = grid.metrics
    with metrics.span("sweep.run_point") as span:
        config = point.simulation_config()
        duration = point.flow_duration_s
        policies = grid.policies_for(point)
        data_oracle = OracleData(config, duration)
        delay_oracle = OracleDelay(config, duration)
        byte_gaps = {name: [] for name in policies}
        delay_gaps = {name: [] for name in policies}
        for entry in grid.evaluation_dataset.without_na():
            best_bytes = simulate_flow(
                data_oracle, entry, config, duration, recorder, metrics
            )
            best_delay = simulate_flow(
                delay_oracle, entry, config, duration, recorder, metrics
            )
            for name, policy in policies.items():
                result = simulate_flow(
                    policy, entry, config, duration, recorder, metrics
                )
                byte_gaps[name].append(
                    (best_bytes.bytes_delivered - result.bytes_delivered) / 1e6
                )
                delay_gaps[name].append(
                    (result.recovery_delay_s - best_delay.recovery_delay_s) * 1e3
                )
    return grid._finish_point(point, byte_gaps, delay_gaps, span, metrics)


def run_grid_scalar(grid, points, recorder: TraceRecorder = NULL_RECORDER):
    """``EvaluationGrid.run`` without checkpoints or workers, flow by flow."""
    return [run_point_scalar(grid, point, recorder) for point in points]

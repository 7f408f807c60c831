"""No-op instrumentation must not tax the simulator hot path.

The acceptance bar: with tracing disabled (the default arguments),
``simulate_flow`` builds no trace event and touches the recorder and the
registry only through their ``enabled`` attributes.  The benchmark
compares the disabled path against the actively-recording path
— the disabled path must never be slower (modulo timer noise), which
bounds its overhead by the cost of real recording.
"""

import time

import pytest

from repro.core.policies import RAFirstPolicy
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import InMemoryTraceRecorder, NULL_RECORDER
from repro.sim.engine import SimulationConfig, simulate_flow
from tests.conftest import make_entry

FLOWS_PER_RUN = 150
REPEATS = 7
FLOW_DURATION_S = 0.05  # short steady state → overhead would be visible


def _best_run_seconds(*factories) -> list[float]:
    """Best-of-``REPEATS`` time per (recorder, metrics) factory pair.

    The pairs take turns within every repeat, so drift in host speed
    during the measurement hits each side equally.
    """
    entry = make_entry([300, 450, 800, 0, 0], [300, 450, 800, 1200], 4)
    config = SimulationConfig()
    policy = RAFirstPolicy()
    best = [float("inf")] * len(factories)
    for _ in range(REPEATS):
        for i, (recorder_factory, metrics_factory) in enumerate(factories):
            recorder = recorder_factory()
            metrics = metrics_factory()
            start = time.perf_counter()
            for _ in range(FLOWS_PER_RUN):
                simulate_flow(policy, entry, config, FLOW_DURATION_S, recorder, metrics)
            best[i] = min(best[i], time.perf_counter() - start)
    return best


class TestNoopOverhead:
    def test_disabled_path_not_slower_than_recording(self):
        noop, recording = _best_run_seconds(
            (lambda: NULL_RECORDER, lambda: NULL_METRICS),
            (InMemoryTraceRecorder, MetricsRegistry),
        )
        # Recording does strictly more work per flow (event construction,
        # list append, three histogram observations); the no-op path must
        # sit at or below it, give or take timer noise.
        assert noop <= recording * 1.25, (noop, recording)

    def test_default_arguments_are_the_shared_no_ops(self):
        import inspect

        signature = inspect.signature(simulate_flow)
        assert signature.parameters["recorder"].default is NULL_RECORDER
        assert signature.parameters["metrics"].default is NULL_METRICS

    def test_no_event_is_built_when_disabled(self, monkeypatch):
        entry = make_entry([300, 450, 800], [300, 450, 800], 2)

        def explode(*args, **kwargs):
            raise AssertionError("FlowEvent built")

        import repro.sim.batch as batch

        monkeypatch.setattr(batch, "FlowEvent", explode)
        result = simulate_flow(RAFirstPolicy(), entry, SimulationConfig(), 0.1)
        assert result.bytes_delivered >= 0.0
        # The patch sits where events are built: recording trips it.
        with pytest.raises(AssertionError, match="FlowEvent built"):
            simulate_flow(
                RAFirstPolicy(), entry, SimulationConfig(), 0.1,
                InMemoryTraceRecorder(),
            )

"""Engine-vs-reference parity: the byte-identity contract of `repro.sim.batch`.

The flow engine must be indistinguishable from looping the frozen scalar
`simulate_flow` in `tests/reference/flow_engine.py` — same `FlowResult`
floats, same trace events, same metric observations — for every policy
class, fault plans included.
"""

import numpy as np
import pytest

from repro.core.ground_truth import Action
from repro.core.libra import LiBRA, ThresholdClassifier
from repro.core.policies import BAFirstPolicy, RAFirstPolicy, StaticPolicy
from repro.dataset.entry import Dataset
from repro.faults import FaultPlan, FaultyPolicy
from repro.ml.forest import RandomForestClassifier
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import InMemoryTraceRecorder
from repro.sim.batch import BatchFlowSimulator, simulate_flows_batch
from repro.sim.engine import SimulationConfig, simulate_timeline
from repro.sim.oracle import OracleData, OracleDelay
from repro.sim.report import grid_report
from repro.sim.sweep import EvaluationGrid, OperatingPoint
from tests.conftest import make_entry
from tests.reference import flow_engine

CFG = SimulationConfig(ba_overhead_s=5e-3, frame_time_s=2e-3)
SLOW_CFG = SimulationConfig(ba_overhead_s=250e-3, frame_time_s=10e-3)


def parity_entries() -> list:
    """Entries spanning the edge cases: working links, dead current MCS
    (missing ACK), failed same-pair repairs, and a fully dead link."""
    variants = [
        ([300, 450, 865, 0, 0], [300, 450, 865, 1300], 4, Action.BA),
        ([300, 450, 0, 0], [300, 450, 865], 3, Action.BA),
        ([300, 450, 865, 1300], [300, 450, 865, 1300], 3, Action.RA),
        ([300, 0, 0], [300, 450], 2, Action.BA),
        ([300, 450, 865], [300, 450, 865], 2, Action.RA),
        ([], [300, 450], 4, Action.BA),   # same-pair repair fails outright
        ([], [], 4, Action.BA),           # dead everywhere: link death
    ]
    return [
        make_entry(tput_same, tput_best, mcs, label)
        for tput_same, tput_best, mcs, label in variants
    ]


def tiny_forest() -> RandomForestClassifier:
    dataset = Dataset(parity_entries(), "tiny")
    model = RandomForestClassifier(n_estimators=4, max_depth=4, random_state=0)
    model.fit(dataset.feature_matrix(), dataset.labels())
    return model


def policy_factories():
    """(name, factory) pairs — factories so each run gets fresh state."""
    forest = tiny_forest()
    return [
        ("ra_first", RAFirstPolicy),
        ("ba_first", BAFirstPolicy),
        ("static", StaticPolicy),
        ("libra_threshold", lambda: LiBRA(ThresholdClassifier())),
        ("libra_forest", lambda: LiBRA(forest)),
        ("faulty", lambda: FaultyPolicy(RAFirstPolicy(), FaultPlan.full(seed=5))),
    ]


def strip_cache_metrics(snapshot: dict) -> dict:
    """Drop the trajectory-cache counters: they exist only on the batched
    side and are not part of the replay-parity contract."""
    snapshot["counters"] = {
        name: value
        for name, value in snapshot["counters"].items()
        if not name.startswith("sim.traj_cache")
    }
    return snapshot


def run_scalar(make_policy, entries, config, duration_s):
    policy = make_policy()
    recorder, metrics = InMemoryTraceRecorder(), MetricsRegistry()
    results = [
        flow_engine.simulate_flow(
            policy, entry, config, duration_s, recorder, metrics
        )
        for entry in entries
    ]
    return results, recorder, metrics


def run_batch(make_policy, entries, config, duration_s, simulator=None):
    policy = make_policy()
    recorder, metrics = InMemoryTraceRecorder(), MetricsRegistry()
    results = simulate_flows_batch(
        policy, entries, config, duration_s, recorder, metrics,
        simulator=simulator,
    )
    return results, recorder, metrics


def assert_flow_parity(scalar, batch):
    scalar_results, scalar_recorder, scalar_metrics = scalar
    batch_results, batch_recorder, batch_metrics = batch
    assert len(batch_results) == len(scalar_results)
    for got, want in zip(batch_results, scalar_results):
        assert got.bytes_delivered == want.bytes_delivered  # bitwise
        assert got.recovery_delay_s == want.recovery_delay_s
        assert got.action == want.action
        assert got.settled_mcs == want.settled_mcs
        assert got.link_died == want.link_died
    assert [e.to_dict() for e in batch_recorder.events] == [
        e.to_dict() for e in scalar_recorder.events
    ]
    assert strip_cache_metrics(batch_metrics.snapshot()) == strip_cache_metrics(
        scalar_metrics.snapshot()
    )


class TestFlowParity:
    @pytest.mark.parametrize("config", [CFG, SLOW_CFG], ids=["cheap", "slow"])
    @pytest.mark.parametrize("duration_s", [0.2, 0.313])
    def test_all_policies_byte_identical(self, config, duration_s):
        entries = parity_entries()
        for name, make_policy in policy_factories():
            scalar = run_scalar(make_policy, entries, config, duration_s)
            batch = run_batch(make_policy, entries, config, duration_s)
            assert_flow_parity(scalar, batch)

    @pytest.mark.parametrize(
        "oracle_cls, reference_cls",
        [
            (OracleData, flow_engine.OracleData),
            (OracleDelay, flow_engine.OracleDelay),
        ],
        ids=["OracleData", "OracleDelay"],
    )
    def test_oracles_byte_identical(self, oracle_cls, reference_cls):
        entries = parity_entries()
        duration_s = 0.25
        scalar = run_scalar(
            lambda: reference_cls(CFG, duration_s), entries, CFG, duration_s
        )
        batch = run_batch(lambda: oracle_cls(CFG, duration_s), entries, CFG, duration_s)
        assert_flow_parity(scalar, batch)

    def test_warm_cache_is_identical_to_cold(self):
        entries = parity_entries()
        simulator = BatchFlowSimulator(CFG)
        cold = run_batch(RAFirstPolicy, entries, CFG, 0.2, simulator)
        warm = run_batch(RAFirstPolicy, entries, CFG, 0.2, simulator)
        assert_flow_parity(cold, warm)

    def test_checkpointed_trajectories_replay_identically(self):
        from repro.sim.trajectory import TrajectoryCache

        entries = parity_entries()
        warm_cache = TrajectoryCache()
        reference = run_batch(
            BAFirstPolicy, entries, CFG, 0.2, BatchFlowSimulator(CFG, warm_cache)
        )
        adopted = TrajectoryCache()
        adopted.adopt_payload(warm_cache.to_payload())
        resumed = run_batch(
            BAFirstPolicy, entries, CFG, 0.2, BatchFlowSimulator(CFG, adopted)
        )
        assert_flow_parity(reference, resumed)
        assert adopted.stats()["loaded"] == len(set(
            e for e in adopted.to_payload()["entries"]
        ))

    def test_mismatched_simulator_config_rejected(self):
        simulator = BatchFlowSimulator(SLOW_CFG)
        with pytest.raises(ValueError, match="different SimulationConfig"):
            simulate_flows_batch(
                RAFirstPolicy(), parity_entries(), CFG, 0.2, simulator=simulator
            )

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            simulate_flows_batch(RAFirstPolicy(), parity_entries(), CFG, 0.0)


def tiny_grid() -> EvaluationGrid:
    dataset = Dataset(parity_entries(), "tiny")
    return EvaluationGrid(dataset, dataset, n_estimators=4, max_depth=4)


GRID_POINTS = [
    OperatingPoint(5e-3, 2e-3, flow_duration_s=0.2),
    OperatingPoint(250e-3, 2e-3, flow_duration_s=0.2),
]


class TestGridParity:
    def test_batch_and_scalar_grids_byte_identical(self):
        batch_results = tiny_grid().run(GRID_POINTS)
        scalar_results = flow_engine.run_grid_scalar(tiny_grid(), GRID_POINTS)
        for got, want in zip(batch_results, scalar_results):
            assert got.point == want.point
            assert set(got.byte_gaps_mb) == set(want.byte_gaps_mb)
            for name in want.byte_gaps_mb:
                assert np.array_equal(got.byte_gaps_mb[name],
                                      want.byte_gaps_mb[name])
                assert np.array_equal(got.delay_gaps_ms[name],
                                      want.delay_gaps_ms[name])
                assert got.oracle_match_fraction(name) == want.oracle_match_fraction(
                    name
                )
        assert grid_report(batch_results) == grid_report(scalar_results)

    def test_trace_streams_byte_identical(self):
        batch_recorder, scalar_recorder = (
            InMemoryTraceRecorder(), InMemoryTraceRecorder()
        )
        tiny_grid().run_point(GRID_POINTS[0], batch_recorder)
        flow_engine.run_point_scalar(tiny_grid(), GRID_POINTS[0], scalar_recorder)
        assert [e.to_dict() for e in batch_recorder.events] == [
            e.to_dict() for e in scalar_recorder.events
        ]

    def test_match_fraction_and_report_shapes_under_batch(self):
        results = tiny_grid().run(GRID_POINTS)
        n = len(parity_entries())
        for result in results:
            for name in ("LiBRA", "BA First", "RA First"):
                assert result.byte_gaps_mb[name].shape == (n,)
                assert result.delay_gaps_ms[name].shape == (n,)
                assert 0.0 <= result.oracle_match_fraction(name) <= 1.0
        report = grid_report(results)
        assert "LiBRA" in report and "BA First" in report

    def test_checkpoint_resume_matches_uncheckpointed(self, tmp_path):
        from repro.checkpoint import CheckpointStore

        reference = tiny_grid().run(GRID_POINTS)
        tiny_grid().run(GRID_POINTS, checkpoint_dir=tmp_path)
        store = CheckpointStore(tmp_path)
        assert "trajectories" in store.keys()
        # Drop the point results but keep the trajectory cache: the resumed
        # run replays everything from adopted trajectories.
        store.path("point-0000").unlink()
        store.path("point-0001").unlink()
        resumed = tiny_grid().run(
            GRID_POINTS, checkpoint_dir=tmp_path, resume=True
        )
        for got, want in zip(resumed, reference):
            for name in want.byte_gaps_mb:
                assert np.array_equal(got.byte_gaps_mb[name],
                                      want.byte_gaps_mb[name])
                assert np.array_equal(got.delay_gaps_ms[name],
                                      want.delay_gaps_ms[name])


class TestTimelineAndVRParity:
    @pytest.fixture(scope="class")
    def timelines(self, main_dataset):
        from repro.sim.timeline import ScenarioType, TimelineGenerator

        generator = TimelineGenerator(main_dataset, seed=11)
        return generator.batch(ScenarioType.MIXED, 3)

    def test_simulate_timeline_with_simulator_is_identical(self, timelines):
        simulator = BatchFlowSimulator(CFG)
        for policy_factory in (RAFirstPolicy, BAFirstPolicy):
            for timeline in timelines:
                want = flow_engine.simulate_timeline(policy_factory(), timeline, CFG)
                got = simulate_timeline(
                    policy_factory(), timeline, CFG, simulator=simulator
                )
                assert got == want  # (bytes, delay, segments) — bitwise

    def test_timeline_rejects_mismatched_simulator(self, timelines):
        simulator = BatchFlowSimulator(SLOW_CFG)
        with pytest.raises(ValueError, match="different SimulationConfig"):
            simulate_timeline(
                RAFirstPolicy(), timelines[0], CFG, simulator=simulator
            )

    def test_vr_profile_with_simulator_is_identical(self, timelines):
        from repro.sim.vr import profile_from_timeline

        simulator = BatchFlowSimulator(CFG)
        for timeline in timelines:
            want = flow_engine.profile_from_timeline(RAFirstPolicy(), timeline, CFG)
            got = profile_from_timeline(
                RAFirstPolicy(), timeline, CFG, simulator=simulator
            )
            assert got == want  # frozen dataclass of tuples

    def test_impaired_entries_lists_the_breaks(self, timelines):
        for timeline in timelines:
            entries = timeline.impaired_entries()
            assert len(entries) == sum(
                1 for s in timeline.segments if s.entry is not None
            )

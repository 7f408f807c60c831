"""Property: the shipped flow engine replays any entry bit for bit like the
frozen scalar engine in `tests/reference/flow_engine.py`.

Hypothesis draws random per-MCS traces for both beam pairs (dead MCSs,
pairs with nothing working, CDRs and throughputs on the working/dead
thresholds), the initial MCS and features, a point of the paper's
BA-overhead × FAT grid (plus a free sweep, where RA and BA delays tie and
the oracles fall back to their byte tie-break), and flow durations that
need not be FAT multiples.  Every policy kind the engine dispatches on is replayed three
ways — the reference loop, the shipped `simulate_flow` loop, and
`simulate_flows_batch` — and the `FlowResult` fields, trace event dicts
and metric snapshots must be equal.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.constants import (
    BA_OVERHEADS_S,
    DEAD_LINK_CDR,
    FRAME_AGGREGATION_TIMES_S,
    WORKING_MCS_MIN_CDR,
    WORKING_MCS_MIN_THROUGHPUT_MBPS,
)
from repro.core.ground_truth import Action
from repro.core.libra import LiBRA, ThresholdClassifier
from repro.core.metrics import FeatureVector
from repro.core.policies import BAFirstPolicy, RAFirstPolicy, StaticPolicy
from repro.dataset.entry import DatasetEntry, ImpairmentKind
from repro.faults import FaultPlan, FaultyPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import InMemoryTraceRecorder
from repro.sim import oracle
from repro.sim.engine import SimulationConfig, simulate_flow
from repro.testbed.traces import McsTraces
from tests.reference import flow_engine
from tests.sim.test_batch_parity import run_batch, run_scalar, strip_cache_metrics

NUM_MCS = 9

cdrs = st.one_of(
    st.sampled_from(
        [0.0, DEAD_LINK_CDR / 2, DEAD_LINK_CDR, WORKING_MCS_MIN_CDR, 0.5, 1.0]
    ),
    st.floats(0.0, 1.0),
)
throughputs = st.one_of(
    st.sampled_from([0.0, WORKING_MCS_MIN_THROUGHPUT_MBPS, 300.0, 865.0, 1300.0]),
    st.floats(0.0, 2000.0),
)


@st.composite
def pair_traces(draw) -> McsTraces:
    """One beam pair: all dead, or each MCS dead or drawn independently."""
    if draw(st.booleans()) and draw(st.booleans()):
        return McsTraces(np.zeros(NUM_MCS), np.zeros(NUM_MCS))
    cdr = np.zeros(NUM_MCS)
    tput = np.zeros(NUM_MCS)
    for mcs in range(NUM_MCS):
        if draw(st.integers(0, 3)):  # one MCS in four stays dead
            cdr[mcs] = draw(cdrs)
            tput[mcs] = draw(throughputs)
    return McsTraces(cdr, tput)


@st.composite
def entries(draw) -> DatasetEntry:
    initial_mcs = draw(st.integers(0, NUM_MCS - 1))
    same = draw(pair_traces())
    if draw(st.booleans()):
        best = draw(pair_traces())
    else:
        # The new pair as a scaled copy of the old one: both repair ladders
        # take the same frames, so RA and BA recovery delays tie.
        scale = draw(st.sampled_from([0.8, 1.0, 1.25]))
        best = McsTraces(same.cdr.copy(), same.throughput_mbps * scale)
    features = FeatureVector(
        draw(st.sampled_from([-12.0, -3.0, 0.0, 1.0, 8.0])),
        draw(st.sampled_from([-2.0, 0.0, 0.3, 4.0])),
        draw(st.sampled_from([-1.0, 0.0, 2.0])),
        draw(st.floats(0.0, 1.0)),
        draw(st.floats(0.0, 1.0)),
        float(same.cdr[initial_mcs]),
        initial_mcs,
    )
    return DatasetEntry(
        kind=draw(st.sampled_from(
            [ImpairmentKind.DISPLACEMENT, ImpairmentKind.BLOCKAGE]
        )),
        room="synthetic",
        position_label="p0",
        rep=0,
        features=features,
        label=Action.BA,
        initial_mcs=initial_mcs,
        initial_throughput_mbps=float(np.max(same.throughput_mbps)),
        traces_same_pair=same,
        traces_best_pair=best,
    )


configs = st.builds(
    SimulationConfig,
    st.sampled_from((0.0,) + BA_OVERHEADS_S),
    st.sampled_from(FRAME_AGGREGATION_TIMES_S),
)
durations = st.one_of(
    st.floats(1e-4, 0.6),
    st.sampled_from([0.2, 0.313, 1.0, 1.0 + 1e-4]),
)


def policy_pairs(config: SimulationConfig, oracle_config: SimulationConfig,
                 duration_s: float, fault_seed: int):
    """(shipped factory, reference factory) per policy kind.

    Plain policies are shared; the oracles pair the shipped classes with
    the frozen ones, once for the simulation config (the engine's
    memoized fast path) and once for ``oracle_config`` (their own
    ``decide``, which differs whenever the two configs do).
    """
    plain = [
        RAFirstPolicy,
        BAFirstPolicy,
        StaticPolicy,
        lambda: LiBRA(ThresholdClassifier()),
        lambda: FaultyPolicy(RAFirstPolicy(), FaultPlan.full(seed=fault_seed)),
    ]
    pairs = [(factory, factory) for factory in plain]
    for shipped, frozen in (
        (oracle.OracleData, flow_engine.OracleData),
        (oracle.OracleDelay, flow_engine.OracleDelay),
    ):
        for cfg in (config, oracle_config):
            pairs.append((
                lambda shipped=shipped, cfg=cfg: shipped(cfg, duration_s),
                lambda frozen=frozen, cfg=cfg: frozen(cfg, duration_s),
            ))
    return pairs


def run_shipped(make_policy, flows, config, duration_s):
    """A ``simulate_flow`` loop: one fresh simulator per flow."""
    policy = make_policy()
    recorder, metrics = InMemoryTraceRecorder(), MetricsRegistry()
    results = [
        simulate_flow(policy, entry, config, duration_s, recorder, metrics)
        for entry in flows
    ]
    return results, recorder, metrics


def assert_same(got, want, strip=False):
    got_results, got_recorder, got_metrics = got
    want_results, want_recorder, want_metrics = want
    assert [vars(r) for r in got_results] == [vars(r) for r in want_results]
    for g, w in zip(got_results, want_results):  # hex() tells -0.0 from 0.0
        assert float(g.bytes_delivered).hex() == float(w.bytes_delivered).hex()
        assert float(g.recovery_delay_s).hex() == float(w.recovery_delay_s).hex()
    assert [e.to_dict() for e in got_recorder.events] == [
        e.to_dict() for e in want_recorder.events
    ]
    got_snapshot, want_snapshot = got_metrics.snapshot(), want_metrics.snapshot()
    if strip:
        got_snapshot = strip_cache_metrics(got_snapshot)
    assert got_snapshot == want_snapshot


@settings(max_examples=60, deadline=None)
@given(
    pool=st.lists(entries(), min_size=1, max_size=3),
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=4),
    config=configs,
    oracle_config=configs,
    duration_s=durations,
    fault_seed=st.integers(0, 2**16),
)
def test_engine_matches_reference(
    pool, picks, config, oracle_config, duration_s, fault_seed
):
    # Picking from a small pool repeats entries, so memoized outcomes and
    # cached trajectories get reused within one replay.
    flows = [pool[i % len(pool)] for i in picks]
    for shipped, frozen in policy_pairs(config, oracle_config, duration_s, fault_seed):
        want = run_scalar(frozen, flows, config, duration_s)
        # The simulator behind simulate_flow keeps its own metrics off, so
        # the caller's snapshot has no trajectory-cache counters to strip.
        assert_same(run_shipped(shipped, flows, config, duration_s), want)
        assert_same(run_batch(shipped, flows, config, duration_s), want, strip=True)

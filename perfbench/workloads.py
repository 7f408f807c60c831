"""The benchmark's three closed-loop workloads: ``campaign``, ``grid``, ``live``.

Each workload turns the workload seed into its inputs, sets up once, and
then runs iterations back to back; the next iteration begins when the
previous one ends.  Everything starts cold, so no repeat reads a cache an
earlier one warmed: every set-up clears the PHY caches, the iterations
that trace rays (``campaign``, ``live``) clear the trace engines, and
every iteration builds its grid, trajectory cache, link, policy and
session afresh.  Only the inputs built in set-up (placement plans,
datasets, a fitted forest) carry over.

An iteration returns an :class:`Outcome`: how many work items it finished,
a digest of its output for the correctness check, the simulated figures it
produced, and layer counters.  ``traced`` names the layer functions (see
``layers.TARGETS``) that a workload's iterations call; the traced run
reports figures for those.  Wrapped functions such as
``builder.build_dataset`` are called through their modules, so that the
wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.libra import LiBRA
from repro.dataset import builder
from repro.dataset.builder import DatasetBuildConfig
from repro.env.geometry import Point
from repro.env.placement import RadioPose, main_building_plans, testing_building_plans
from repro.env.rooms import make_lobby
from repro.ml.forest import RandomForestClassifier
from repro.phy import tracing
from repro.phy.antenna import sibeam_codebook
from repro.phy.blockage import HumanBlocker
from repro.sim import sweep
from repro.sim.live import LinkEvent, LiveSession
from repro.testbed.x60 import X60Link

TRAINING_SEED = 0
"""Seed of the training campaign and of every forest.  Fit and predict
costs follow the forest's shape, so a forest that changed with the
workload seed would make ``grid`` and ``live`` throughput vary with the
seed instead of the code.  The workload seed drives what is replayed: the
testing impairments of ``grid`` and the session noise of ``live``."""
FOREST_TREES = 60
FOREST_DEPTH = 14
GRID_FLOW_S = 1.0
LIVE_DURATION_S = 6.0
LIVE_FAT_S = 2e-3
LIVE_BA_OVERHEAD_S = 5e-3


@dataclass
class Outcome:
    items: int
    digest: str
    summary: dict = field(default_factory=dict)  # simulated figures, printed
    counters: dict = field(default_factory=dict)  # layer counters, summed


def _cold_phy() -> None:
    """Drop every process-wide PHY cache: trace engines and the codebook."""
    tracing.clear_caches()
    sibeam_codebook.cache_clear()


def _sha(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def dataset_digest_parts(dataset):
    """Features, labels and entry order of one dataset, as hash input."""
    yield dataset.name
    yield len(dataset)
    yield np.ascontiguousarray(dataset.feature_matrix(), dtype=np.float64).tobytes()
    yield tuple(str(label) for label in dataset.labels())
    yield tuple(
        (str(e.kind), e.room, e.position_label, e.rep, e.detail)
        for e in dataset.entries
    )


def _check_dataset(dataset) -> None:
    if len(dataset) == 0:
        raise ValueError(f"dataset {dataset.name!r} is empty")
    if not np.all(np.isfinite(dataset.feature_matrix())):
        raise ValueError(f"dataset {dataset.name!r} has non-finite features")


def _build_main(seed: int, plans=None):
    """The main campaign: 6 rooms, NA-augmented."""
    return builder.build_dataset(
        plans or main_building_plans(), DatasetBuildConfig(include_na=True, seed=seed),
        name="main",
    )


def _build_testing(seed: int, plans=None):
    """The testing campaign (buildings 1-2) at workload seed ``seed``: its
    build seed is one past, the offset of the repository's defaults (main
    campaign 0, testing campaign 1)."""
    return builder.build_dataset(
        plans or testing_building_plans(), DatasetBuildConfig(seed=seed + 1),
        name="testing",
    )


class Campaign:
    """Build both measurement campaigns: PHY tracing, sweeps, measures."""

    name = "campaign"
    item = "entries"
    start_state = (
        "cold: PHY engine caches cleared before every iteration; "
        "placement plans and codebook built in set-up"
    )
    traced = (
        "phy.trace", "phy.snr_matrix", "testbed.channel_state",
        "testbed.sector_sweep", "testbed.measure", "dataset.build",
    )
    traced_extras = ("phy.engine_cache.hit_ratio",)

    def inputs(self, seed: int) -> dict:
        return {"main_seed": seed, "testing_seed": seed + 1, "include_na": True}

    def setup(self, seed: int):
        _cold_phy()
        sibeam_codebook()
        return seed, (main_building_plans(), testing_building_plans())

    def iterate(self, context) -> Outcome:
        seed, (main_plans, testing_plans) = context
        tracing.clear_caches()
        main = _build_main(seed, main_plans)
        testing = _build_testing(seed, testing_plans)
        _check_dataset(main)
        _check_dataset(testing)
        return Outcome(
            items=len(main) + len(testing),
            digest=_sha([*dataset_digest_parts(main), *dataset_digest_parts(testing)]),
            summary={"main_entries": len(main), "testing_entries": len(testing)},
        )


class Grid:
    """The §8 paper grid: 8 points, forest fit and batched replay each."""

    name = "grid"
    item = "points"
    start_state = (
        "cold: fresh EvaluationGrid and TrajectoryCache per iteration "
        "(no fitted forest, no trajectory); datasets built in set-up "
        "from cleared PHY caches"
    )
    traced = (
        "ml.forest.fit", "ml.tree.fit", "ml.forest.predict",
        "core.libra.decide_batch", "core.ground_truth.label_inputs",
        "core.ground_truth.label_from_inputs", "sim.batch.batch_decisions",
        "sim.batch.simulate", "sim.batch.simulate_with_decision",
    )
    traced_extras = ("ml.forest.predict.rows_per_call", "sim.trajectory.hit_ratio")

    def inputs(self, seed: int) -> dict:
        return {
            "main_seed": TRAINING_SEED, "testing_seed": seed + 1,
            "forest_seed": TRAINING_SEED,
            "points": len(sweep.paper_grid(GRID_FLOW_S)), "flow_s": GRID_FLOW_S,
        }

    def setup(self, seed: int):
        _cold_phy()
        main = _build_main(TRAINING_SEED)
        testing = _build_testing(seed)
        _check_dataset(main)
        _check_dataset(testing)
        return main, testing

    def iterate(self, context) -> Outcome:
        main, testing = context
        grid = sweep.EvaluationGrid(
            main, testing, n_estimators=FOREST_TREES, max_depth=FOREST_DEPTH,
            random_state=TRAINING_SEED,
        )
        results = grid.run(sweep.paper_grid(GRID_FLOW_S), workers=1)
        replayed = len(testing.without_na())
        parts = []
        for result in results:
            point = result.point
            parts.append((point.ba_overhead_s, point.frame_time_s, point.flow_duration_s))
            for gaps in (result.byte_gaps_mb, result.delay_gaps_ms):
                for policy, values in gaps.items():
                    if len(values) != replayed or not np.all(np.isfinite(values)):
                        raise ValueError(f"bad gap array for {policy} at {point}")
                    parts.append(policy)
                    parts.append(np.ascontiguousarray(values, dtype=np.float64).tobytes())
        stats = grid.trajectory_cache.stats()
        match = float(np.mean([r.oracle_match_fraction("LiBRA") for r in results]))
        return Outcome(
            items=len(results),
            digest=_sha(parts),
            summary={"libra_match_frac": match},
            counters={
                "sim.trajectory.hits": stats["hits"],
                "sim.trajectory.misses": stats["misses"],
            },
        )


def live_script() -> list[LinkEvent]:
    """The lobby script of ``examples/live_session.py``: a person steps into
    the LOS at 1.5 s and leaves at 3.0 s, then the client spins 60°."""
    blocker = HumanBlocker(Point(5.5, 6.0), 0.0, 25.0)
    return [
        LinkEvent(at_s=1.5, blockers=(blocker,)),
        LinkEvent(at_s=3.0, clear_blockers=True),
        LinkEvent(at_s=4.5, rx=RadioPose(Point(9.0, 6.0), 240.0)),
    ]


class Live:
    """One closed-loop LiBRA session: per-frame measure, per-decision predict."""

    name = "live"
    item = "frames"
    start_state = (
        "cold: PHY caches cleared, fresh X60Link, LiBRA and LiveSession per "
        "iteration; forest fitted in set-up on the main campaign"
    )
    traced = (
        "testbed.channel_state", "testbed.sector_sweep", "testbed.measure",
        "ml.forest.predict", "core.libra.decide", "sim.live",
    )
    traced_extras = ("ml.forest.predict.rows_per_call", "phy.engine_cache.hit_ratio")

    def inputs(self, seed: int) -> dict:
        return {
            "main_seed": TRAINING_SEED, "forest_seed": TRAINING_SEED,
            "session_seed": seed, "duration_s": LIVE_DURATION_S, "fat_s": LIVE_FAT_S,
        }

    def setup(self, seed: int):
        _cold_phy()
        main = _build_main(TRAINING_SEED)
        _check_dataset(main)
        model = RandomForestClassifier(
            n_estimators=FOREST_TREES, max_depth=FOREST_DEPTH,
            random_state=TRAINING_SEED,
        )
        model.fit(main.feature_matrix(), main.labels())
        return seed, model

    def iterate(self, context) -> Outcome:
        seed, model = context
        tracing.clear_caches()
        link = X60Link(make_lobby(), RadioPose(Point(2.0, 6.0), 0.0))
        session = LiveSession(
            link, LiBRA(model), RadioPose(Point(9.0, 6.0), 180.0),
            frame_time_s=LIVE_FAT_S, ba_overhead_s=LIVE_BA_OVERHEAD_S, seed=seed,
        )
        log = session.run(LIVE_DURATION_S, live_script())
        frames = len(log.frame_times_s)
        if frames == 0 or not math.isfinite(log.bytes_delivered) or log.bytes_delivered <= 0:
            raise ValueError("session delivered nothing")
        digest = _sha([
            tuple(log.mcs),
            tuple(log.beam_pairs),
            tuple((time, action.value) for time, action in log.actions),
            log.bytes_delivered,
        ])
        return Outcome(
            items=frames,
            digest=digest,
            summary={"goodput_mbps": log.throughput_mbps, "actions": len(log.actions)},
        )


WORKLOADS = {workload.name: workload for workload in (Campaign(), Grid(), Live())}

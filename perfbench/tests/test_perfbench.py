"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.core.ground_truth import Action  # noqa: E402
from repro.dataset import builder  # noqa: E402
from repro.dataset.builder import DatasetBuildConfig  # noqa: E402
from repro.dataset.entry import Dataset  # noqa: E402
from repro.env.placement import lobby_plan  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def lobby_dataset(seed: int) -> Dataset:
    return builder.build_dataset(
        [lobby_plan()], DatasetBuildConfig(seed=seed), name="lobby"
    )


def digest(dataset: Dataset) -> str:
    return workloads._sha(workloads.dataset_digest_parts(dataset))


class Replay:
    """A workload whose iterations hand back prepared outcomes or raise."""

    name = "replay"
    item = "items"

    def __init__(self, results):
        self.results = list(results)

    def setup(self, seed):
        return None

    def iterate(self, context):
        result = self.results.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == layers.metric_units(workloads.WORKLOADS.values())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    target_names = {target.name for target in layers.TARGETS}
    for workload in workloads.WORKLOADS.values():
        assert set(workload.traced) <= target_names
        assert set(workload.traced_extras) <= set(layers.EXTRA_UNITS)
    for name in [*end_to_end, *per_layer, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64, name


def test_perturbed_output_counts_as_failed_operation():
    dataset = lobby_dataset(0)
    first = dataset.entries[0]
    flipped = Action.RA if first.label is Action.BA else Action.BA
    perturbed = Dataset([first.with_label(flipped), *dataset.entries[1:]], dataset.name)
    features = dataclasses.replace(
        first.features, snr_diff_db=first.features.snr_diff_db + 1e-9
    )
    nudged = Dataset(
        [dataclasses.replace(first, features=features), *dataset.entries[1:]],
        dataset.name,
    )
    good = workloads.Outcome(items=len(dataset), digest=digest(dataset))
    workload = Replay([
        good,
        workloads.Outcome(items=len(dataset), digest=digest(perturbed)),
        workloads.Outcome(items=len(dataset), digest=digest(nudged)),
        RuntimeError("iteration crashed"),
        good,
    ])
    tally = run.Tally(workload, run.OutputCheck())
    for index in range(5):
        tally.attempt(None, f"iteration {index}")
    assert (tally.attempted, tally.failed) == (5, 3)


def test_recorded_reference_replaces_first_iteration():
    workload = Replay([workloads.Outcome(items=1, digest="b")])
    tally = run.Tally(workload, run.OutputCheck("a"))
    tally.attempt(None, "iteration 1")
    assert (tally.attempted, tally.failed) == (1, 1)


def test_wrappers_are_gone_after_traced_run():
    originals = {
        target.name: vars(target.holder())[target.attr]
        for target in (*layers.TARGETS, layers.ENGINE_TARGET)
    }

    class TinyCampaign(Replay):
        name = "tiny"
        traced = ("testbed.measure", "dataset.build")
        traced_extras = ("phy.engine_cache.hit_ratio",)

        def iterate(self, context):
            dataset = lobby_dataset(0)
            return workloads.Outcome(items=len(dataset), digest=digest(dataset))

    workload = TinyCampaign([])
    tally = run.Tally(workload, run.OutputCheck())
    metrics = run.traced_run(workload, 0, 0.0, tally)
    assert (tally.attempted, tally.failed) == (3, 0)  # warm-up and one pair
    assert set(metrics) == set(layers.metric_units([workload]))
    assert metrics["tiny.testbed.measure.calls"] > 0
    assert metrics["tiny.dataset.build.calls"] == 1
    assert layers.leftover_wrappers() == []
    for target in (*layers.TARGETS, layers.ENGINE_TARGET):
        assert vars(target.holder())[target.attr] is originals[target.name]


def test_tracer_restores_originals_when_the_traced_code_raises():
    holder = layers.TARGETS[0].holder()
    original = vars(holder)[layers.TARGETS[0].attr]
    with pytest.raises(ValueError):
        with layers.Tracer():
            assert layers.leftover_wrappers()
            raise ValueError("boom")
    assert layers.leftover_wrappers() == []
    assert vars(holder)[layers.TARGETS[0].attr] is original


def test_self_times_and_unattributed_time_add_up_to_wall_time():
    tracer = layers.Tracer()
    with tracer:
        start = time.perf_counter()
        lobby_dataset(0)
        wall = time.perf_counter() - start
    metrics = tracer.metrics(1, wall)
    total_self = sum(metrics[f"{t.name}.self_s"] for t in layers.TARGETS)
    unattributed = metrics["unattributed_frac"] * wall
    assert total_self + unattributed == pytest.approx(wall, rel=1e-9)
    assert 0.0 <= metrics["unattributed_frac"] < 0.5


def test_host_speed_kernel_runs_without_gc_and_restores_its_state():
    import gc

    assert gc.isenabled()
    try:
        gc.disable()
        hostspeed.time_reference()
        assert not gc.isenabled()
    finally:
        gc.enable()
    before = gc.get_count()[0]
    hostspeed.reference_kernel()
    assert gc.get_count()[0] <= before  # allocates nothing the GC tracks
    hostspeed.time_reference()
    assert gc.isenabled()


def test_host_speed_scale_uses_mean_kernel_speed_and_drops_sample_time(monkeypatch):
    section = hostspeed.Section()
    section.kernel_s = [0.02, 0.04]
    nominal = hostspeed.REFERENCE_NOMINAL_S
    assert section.scale == pytest.approx(nominal * (1 / 0.02 + 1 / 0.04) / 2)

    def slow_kernel():
        time.sleep(0.01)
        return 0.01

    monkeypatch.setattr(hostspeed, "time_reference", slow_kernel)
    monkeypatch.setattr(hostspeed, "SAMPLE_INTERVAL_S", 0.05)
    section = hostspeed.Section()
    with hostspeed.sampled(section):
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(section.kernel_s) >= 4  # before, inside, after
    assert section.wall_s == pytest.approx(0.3 - section.inside_s, abs=0.02)
    assert section.scale == pytest.approx(nominal / 0.01)


def test_different_seed_yields_different_inputs():
    for workload in workloads.WORKLOADS.values():
        assert workload.inputs(0) != workload.inputs(1)
    assert digest(lobby_dataset(0)) != digest(lobby_dataset(1))
    assert digest(lobby_dataset(0)) == digest(lobby_dataset(0))


def test_run_without_source_tree_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

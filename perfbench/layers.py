"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces the public entry points of each layer (``phy``,
``testbed``, ``dataset``, ``ml``, ``core``, ``sim``) with timing wrappers
while it is entered, and puts the original objects back when it exits.
Every wrapped call is one span; spans nest on a stack, so a layer's self
time is its busy time minus the time of the wrapped calls made inside it.
Statistics accumulate over every ``with tracer:`` block.

Functions are wrapped where their caller looks them up at call time: a
method on its class, a module function in the module that calls it (for
example ``repro.sim.sweep.label_inputs``, which the grid imports by name).
Spans are timed with ``hostspeed.program_clock``, so the host-speed
samples taken inside a traced iteration are not counted in any span.
"""

from __future__ import annotations

import importlib
import math
import weakref
from dataclasses import dataclass, field

from hostspeed import program_clock


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``getattr(import(module).<owner>, attr)``."""

    name: str
    module: str
    owner: str  # "" for a module-level function, else a class in ``module``
    attr: str
    counts_rows: bool = False  # first argument after ``self`` is a 2-D batch

    def holder(self):
        module = importlib.import_module(self.module)
        return getattr(module, self.owner) if self.owner else module


TARGETS = (
    Target("phy.trace", "repro.phy.tracing", "TraceEngine", "trace"),
    Target("phy.snr_matrix", "repro.phy.channel", "", "snr_matrix_db"),
    Target("testbed.channel_state", "repro.testbed.x60", "X60Link", "channel_state"),
    Target("testbed.sector_sweep", "repro.testbed.x60", "X60Link", "sector_sweep"),
    Target("testbed.measure", "repro.testbed.x60", "X60Link", "measure"),
    Target("dataset.build", "repro.dataset.builder", "", "build_dataset"),
    Target("ml.forest.fit", "repro.ml.forest", "RandomForestClassifier", "fit"),
    Target(
        "ml.forest.predict", "repro.ml.forest", "RandomForestClassifier",
        "predict_proba", counts_rows=True,
    ),
    Target("ml.tree.fit", "repro.ml.tree", "DecisionTreeClassifier", "fit"),
    Target("core.libra.decide", "repro.core.libra", "LiBRA", "decide"),
    Target("core.libra.decide_batch", "repro.core.libra", "LiBRA", "decide_batch"),
    Target("core.ground_truth.label_inputs", "repro.sim.sweep", "", "label_inputs"),
    Target(
        "core.ground_truth.label_from_inputs", "repro.sim.sweep", "",
        "label_from_inputs",
    ),
    Target("sim.batch.simulate", "repro.sim.batch", "BatchFlowSimulator", "simulate"),
    Target(
        "sim.batch.simulate_with_decision", "repro.sim.batch",
        "BatchFlowSimulator", "simulate_with_decision",
    ),
    Target("sim.batch.batch_decisions", "repro.sim.sweep", "", "batch_decisions"),
    Target("sim.live", "repro.sim.live", "LiveSession", "run"),
)

ENGINE_TARGET = Target("phy.engine_cache", "repro.phy.tracing", "", "engine_for")
"""Counted, not timed: a call that returns an engine already handed out
(and still alive) reuses it, which is the engine cache's hit."""

SPAN_FIELDS = (
    ("calls", "count"),
    ("busy_s", "s"),
    ("self_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
)

EXTRA_UNITS = {
    "ml.forest.predict.rows_per_call": "rows",
    "phy.engine_cache.hit_ratio": "ratio",
    "sim.trajectory.hit_ratio": "ratio",
}

WORKLOAD_FIELDS = (
    ("iter_s", "s"),
    ("unattributed_frac", "frac"),
    ("trace_overhead_frac", "frac"),
)


def metric_units(workloads) -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit.

    Names carry the workload (``live.ml.forest.predict.p50_ms``); each
    workload lists only the functions and ratios its iterations exercise,
    so no reported figure is a function that never ran.
    """
    units = {}
    for workload in workloads:
        for function in workload.traced:
            for suffix, unit in SPAN_FIELDS:
                units[f"{workload.name}.{function}.{suffix}"] = unit
        for extra in workload.traced_extras:
            units[f"{workload.name}.{extra}"] = EXTRA_UNITS[extra]
        for suffix, unit in WORKLOAD_FIELDS:
            units[f"{workload.name}.{suffix}"] = unit
    return units


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    rows: int = 0
    open_depth: int = 0
    durations: list = field(default_factory=list)


class Tracer:
    """Wraps :data:`TARGETS` while entered; restores them on exit."""

    def __init__(self):
        self.targets = TARGETS
        self.stats = {target.name: SpanStats() for target in self.targets}
        self.covered_s = 0.0  # wall time inside top-level spans
        self.engine_calls = 0
        self.engine_hits = 0
        self._engines_seen = weakref.WeakSet()
        self._stack: list[list[float]] = []
        self._originals: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def __enter__(self) -> "Tracer":
        if self.installed:
            raise RuntimeError("tracer is already installed")
        try:
            for target in self.targets:
                self._install(target, self._span_wrapper(target))
            self._install(ENGINE_TARGET, self._engine_wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, target: Target, make_wrapper) -> None:
        holder = target.holder()
        # The original must live on the holder itself, so that restoring
        # it with setattr leaves the holder exactly as it was.
        original = vars(holder)[target.attr]
        wrapper = make_wrapper(original)
        wrapper.perfbench_target = target.name
        setattr(holder, target.attr, wrapper)
        self._originals.append((holder, target.attr, original))

    def _restore(self) -> None:
        while self._originals:
            holder, attr, original = self._originals.pop()
            setattr(holder, attr, original)
        self._stack.clear()

    def _span_wrapper(self, target: Target):
        stats = self.stats[target.name]
        stack = self._stack
        counts_rows = target.counts_rows
        offset = 1 if target.owner else 0

        def make(original):
            def wrapper(*args, **kwargs):
                frame = [0.0]  # time of wrapped calls made inside this one
                stack.append(frame)
                stats.open_depth += 1
                start = program_clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = program_clock() - start
                    stack.pop()
                    stats.open_depth -= 1
                    if stack:
                        stack[-1][0] += elapsed
                    else:
                        self.covered_s += elapsed
                    stats.calls += 1
                    if stats.open_depth == 0:  # a re-entered call is counted once
                        stats.busy_s += elapsed
                    stats.self_s += elapsed - frame[0]
                    stats.durations.append(elapsed)
                    if counts_rows:
                        stats.rows += len(args[offset])

            return wrapper

        return make

    def _engine_wrapper(self, original):
        def wrapper(*args, **kwargs):
            engine = original(*args, **kwargs)
            self.engine_calls += 1
            if engine in self._engines_seen:
                self.engine_hits += 1
            else:
                self._engines_seen.add(engine)
            return engine

        return wrapper

    def metrics(self, iterations: int, traced_wall_s: float) -> dict[str, float]:
        """Figures per traced iteration for every target (latency
        percentiles over all calls), plus the share of traced wall time
        that no top-level span covers."""
        out: dict[str, float] = {}
        for target in self.targets:
            stats = self.stats[target.name]
            out[f"{target.name}.calls"] = stats.calls / iterations
            out[f"{target.name}.busy_s"] = stats.busy_s / iterations
            out[f"{target.name}.self_s"] = stats.self_s / iterations
            for q in (50, 99):
                out[f"{target.name}.p{q}_ms"] = (
                    percentile(stats.durations, q) * 1e3 if stats.durations else 0.0
                )
        predict = self.stats.get("ml.forest.predict")
        if predict is not None:
            out["ml.forest.predict.rows_per_call"] = (
                predict.rows / predict.calls if predict.calls else 0.0
            )
        out["phy.engine_cache.hit_ratio"] = (
            self.engine_hits / self.engine_calls if self.engine_calls else 0.0
        )
        out["iter_s"] = traced_wall_s / iterations
        out["unattributed_frac"] = (
            1.0 - self.covered_s / traced_wall_s if traced_wall_s > 0 else 0.0
        )
        return out


def leftover_wrappers() -> list[str]:
    """Targets whose current attribute is still a tracer wrapper."""
    return [
        target.name
        for target in (*TARGETS, ENGINE_TARGET)
        if hasattr(getattr(target.holder(), target.attr), "perfbench_target")
    ]

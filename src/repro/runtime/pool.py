"""Seeded process-pool map with ordered result merge.

:func:`parallel_map` runs ``task(item, metrics, recorder)`` over a list of
items:

* ``workers <= 1`` (or a single item): a plain inline loop with the
  caller's own registry/recorder — exactly the sequential code path,
  with no pickling and no processes;
* ``workers > 1``: items fan out to a ``ProcessPoolExecutor``.  Each
  worker invocation gets a **fresh** :class:`MetricsRegistry` and an
  in-memory trace recorder (only when the parent's are enabled, so the
  disabled path ships nothing back).  The parent then walks the futures
  in submission order, collecting results and folding each child
  registry / event list into its own — so counters, span histograms, and
  traces aggregate identically for every worker count, and the result
  list always matches item order.

Tasks must be picklable (module-level functions, optionally wrapped in
``functools.partial``), and must draw any randomness from per-item
streams (see :mod:`repro.runtime.shard`) — never from process-global
state — to keep runs byte-identical at every worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    use_metrics,
)
from repro.obs.trace import NULL_RECORDER, InMemoryTraceRecorder, TraceRecorder

T = TypeVar("T")
R = TypeVar("R")

Task = Callable[..., R]


def _run_in_worker(
    task: Task, item, capture_metrics: bool, capture_traces: bool
) -> tuple:
    """Child-side wrapper: run one item under fresh observability sinks.

    The child registry is also installed as the process-wide default so
    code that reaches for ``get_metrics()`` (e.g. ``ml.forest.fit`` spans)
    lands in the same registry the parent will merge.
    """
    metrics = MetricsRegistry() if capture_metrics else NULL_METRICS
    recorder = InMemoryTraceRecorder() if capture_traces else NULL_RECORDER
    with use_metrics(metrics):
        result = task(item, metrics, recorder)
    return (
        result,
        metrics if capture_metrics else None,
        recorder.events if capture_traces else None,
    )


def parallel_map(
    task: Task,
    items: Sequence[T],
    *,
    workers: int = 1,
    metrics: MetricsRegistry = NULL_METRICS,
    recorder: TraceRecorder = NULL_RECORDER,
) -> list:
    """Map ``task`` over ``items`` with deterministic, ordered results.

    ``task(item, metrics, recorder)`` is called once per item.  Inline
    execution (``workers <= 1``) passes the caller's ``metrics`` and
    ``recorder`` straight through; pooled execution gives each call
    fresh child sinks and merges them back in item order.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [task(item, metrics, recorder) for item in items]
    results: list = []
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        futures = [
            pool.submit(_run_in_worker, task, item, metrics.enabled, recorder.enabled)
            for item in items
        ]
        # Walking futures in submission order IS the ordered merge: the
        # result list and every metrics/trace fold happen in item order,
        # regardless of which worker finished first.
        for future in futures:
            result, child_metrics, child_events = future.result()
            results.append(result)
            if child_metrics is not None:
                metrics.merge(child_metrics)
            if child_events:
                for event in child_events:
                    recorder.record(event)
    return results

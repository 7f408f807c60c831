"""The repository benchmark: one closed-loop workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics of the named workload with
nothing wrapped; times are scaled to reference host speed (``hostspeed``).
``--trace 1`` reports per-layer metrics for every workload: after one
set-up and an untraced warm-up iteration it alternates untraced and traced
iterations, the named workload for ``--seconds`` and the others for one
pair each.
See ``perfbench/README.md`` for the workload, metric and layer map.

Every iteration's output digest is compared with the reference recorded
for this seed and numeric stack (``reference.json``), or else with the
run's first iteration; a mismatch or an exception is a failed operation.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import hostspeed
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"

SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 0.5
"""Set-up runs at least this often and this long; ``setup_s`` is the
median, so a cheap set-up is repeated until it is measurable."""

END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def numeric_stack() -> dict:
    """What the output digests depend on beyond the code: a reference
    recorded under another stack is not compared against."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu": cpu_model(),
    }


def host_fingerprint() -> dict:
    import scipy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        **numeric_stack(),
        "nproc": nproc,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
    }


def load_reference(workload: str, seed: int):
    """The recorded digest for this workload and seed, or ``None``."""
    try:
        recorded = json.loads(REFERENCE_PATH.read_text())
    except (OSError, ValueError):
        return None
    if recorded.get("stack") != numeric_stack():
        return None
    return recorded.get("digests", {}).get(workload, {}).get(str(seed))


class OutputCheck:
    """Compares each digest with the reference, or with the first one seen."""

    def __init__(self, expected=None):
        self.expected = expected
        self.source = "recorded reference" if expected else "first iteration"

    def matches(self, digest: str) -> bool:
        if self.expected is None:
            self.expected = digest
        return digest == self.expected


class Tally:
    def __init__(self, workload, check: OutputCheck):
        self.workload = workload
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.summary: dict = {}  # simulated figures of the first good iteration

    def attempt(self, context, label: str, wrap=nullcontext()):
        """One timed iteration; returns (seconds, outcome or None if failed)."""
        gc.collect()
        error = None
        outcome = None
        with wrap:
            start = perf_counter()
            try:
                outcome = self.workload.iterate(context)
            except Exception:  # a failed operation: counted, run continues
                error = traceback.format_exc()
            elapsed = perf_counter() - start
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"{label}: FAILED after {elapsed:.3f} s", flush=True)
            sys.stderr.write(error)
            return elapsed, None
        ok = self.check.matches(outcome.digest)
        print(
            f"{label}: {outcome.items} {self.workload.item} in {elapsed:.3f} s, "
            f"digest {outcome.digest[:16]} {'ok' if ok else 'MISMATCH'}",
            flush=True,
        )
        if not ok:
            self.failed += 1
            return elapsed, None
        self.summary = self.summary or outcome.summary
        return elapsed, outcome


def timed_setup(workload, seed: int, section=None):
    """Set up once; the time excludes host-speed samples taken meanwhile."""
    gc.collect()
    sampled_before = section.inside_s if section else 0.0
    start = perf_counter()
    context = workload.setup(seed)
    elapsed = perf_counter() - start
    if section:
        elapsed -= section.inside_s - sampled_before
    return elapsed, context


def untraced_run(workload, seed: int, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics, with times scaled to reference host speed."""
    setup_times = []
    setup_section = hostspeed.Section()
    with hostspeed.sampled(setup_section):
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_S:
            context = None  # free the previous set-up, so peak RSS counts one
            elapsed, context = timed_setup(workload, seed, setup_section)
            setup_times.append(elapsed)
    setup_s = statistics.median(setup_times)
    print(f"set-up: {len(setup_times)} runs, median {setup_s:.4f} s wall, "
          f"{setup_s * setup_section.scale:.4f} s at reference speed")
    rates, wall_rates, kernel_s = [], [], list(setup_section.kernel_s)
    start = perf_counter()
    while True:
        section = hostspeed.Section()
        elapsed, outcome = tally.attempt(
            context, f"iteration {tally.attempted + 1}", hostspeed.sampled(section)
        )
        kernel_s += section.kernel_s
        if outcome is not None:
            wall_rates.append(outcome.items / section.wall_s)
            rates.append(outcome.items / section.scaled_s)
            print(f"  {section.scaled_s:.3f} s at reference speed "
                  f"(host scale {section.scale:.3f})")
        # Stop where the next iteration would end nearer the deadline's far
        # side than its near side, so runs last --seconds on average.
        if perf_counter() - start + elapsed / 2 >= seconds:
            break
    print(f"host speed: reference kernel median {statistics.median(kernel_s) * 1e3:.1f} ms "
          f"(reference speed: {hostspeed.REFERENCE_NOMINAL_S * 1e3:.0f} ms); wall-clock "
          f"{workload.item}/s median "
          f"{statistics.median(wall_rates) if wall_rates else 0.0:.4f}, set-up {setup_s:.4f} s")
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "items_per_s": statistics.median(rates) if rates else 0.0,
        "setup_s": setup_s * setup_section.scale,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


@contextmanager
def sampled_and_traced(section, tracer=None):
    """Sample host speed into ``section`` around and inside the body, and
    trace the body if a tracer is given.  Spans do not count the samples
    (``hostspeed.program_clock``)."""
    with hostspeed.sampled(section), tracer or nullcontext():
        yield


def traced_run(workload, seed: int, seconds: float, tally: Tally) -> dict:
    """One untraced set-up and one untraced warm-up iteration, then
    untraced and traced iterations in turn (at least one pair); returns
    the per-layer figures of the workload's traced functions, named
    ``<workload>.<figure>``."""
    tracer = layers.Tracer()
    _, context = timed_setup(workload, seed)
    start = perf_counter()
    # The first iteration after set-up pays one-off lazy work, so it is
    # checked but left out of the traced/untraced comparison.
    tally.attempt(context, f"{workload.name} warm-up untraced")
    traced_wall = 0.0
    ratios = []  # traced over untraced time at reference speed, per pair
    counters: dict[str, int] = {}
    iterations = 0
    while iterations == 0 or perf_counter() - start < seconds:
        scaled = {}
        for traced in (False, True):
            label = (f"{workload.name} iteration {iterations + 1} "
                     f"{'traced' if traced else 'untraced'}")
            section = hostspeed.Section()
            _, outcome = tally.attempt(
                context, label, sampled_and_traced(section, tracer if traced else None)
            )
            if outcome is not None:
                scaled[traced] = section.scaled_s
            if traced:
                traced_wall += section.wall_s
                if outcome is not None:
                    for key, value in outcome.counters.items():
                        counters[key] = counters.get(key, 0) + value
        if len(scaled) == 2:
            ratios.append(scaled[True] / scaled[False])
        iterations += 1
    figures = tracer.metrics(iterations, traced_wall)
    hits = counters.get("sim.trajectory.hits", 0)
    lookups = hits + counters.get("sim.trajectory.misses", 0)
    figures["sim.trajectory.hit_ratio"] = hits / lookups if lookups else 0.0
    figures["trace_overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    print_layer_table(workload, tracer, figures, len(ratios))
    prefix = workload.name + "."
    return {
        name: figures[name[len(prefix):]]
        for name in layers.metric_units([workload])
    }


def print_layer_table(workload, tracer, figures: dict, pairs: int) -> None:
    """Every wrapped function that ran, and the check that their self times
    plus the unattributed time make up the iteration's wall time."""
    print(f"\n{workload.name + ' (per iteration)':<38}{'calls':>9}{'busy_s':>10}"
          f"{'self_s':>10}{'p50_ms':>10}{'p99_ms':>10}")
    total_self = 0.0
    for target in tracer.targets:
        row = [figures[f"{target.name}.{field}"] for field, _ in layers.SPAN_FIELDS]
        if row[0]:
            total_self += row[2]
            print(f"{target.name:<38}{row[0]:>9.0f}{row[1]:>10.4f}{row[2]:>10.4f}"
                  f"{row[3]:>10.4f}{row[4]:>10.4f}")
    wall = figures["iter_s"]
    print(f"{workload.name}: iteration wall {wall:.4f} s = sum of self_s "
          f"{total_self:.4f} s + unattributed {figures['unattributed_frac'] * wall:.4f} s "
          f"(unattributed_frac {figures['unattributed_frac']:.4f}, "
          f"trace_overhead_frac {figures['trace_overhead_frac']:.4f})")
    print(f"{workload.name}: trace_overhead_frac is the median over {pairs} "
          f"traced/untraced pair(s) at reference speed"
          + ("; indicative only" if pairs < 3 else ""))
    for extra in workload.traced_extras:
        print(f"{workload.name}.{extra} = {figures[extra]:.4f}")


def announce(workload, seed: int) -> Tally:
    check = OutputCheck(load_reference(workload.name, seed))
    print(f"\nworkload {workload.name}, seed {seed}, inputs "
          + json.dumps(workload.inputs(seed), sort_keys=True))
    print(f"{workload.name} start state: {workload.start_state}")
    print(f"{workload.name} output check against: {check.source}")
    return Tally(workload, check)


def report(tally: Tally) -> None:
    name = tally.workload.name
    for key, value in tally.summary.items():
        print(f"{name}.{key} = {value:.6g} (simulated)")
    print(f"{name}.check: {tally.attempted} attempted, {tally.failed} failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "grid", "live"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    named = workloads.WORKLOADS[args.workload]
    tallies = []
    values: dict[str, float] = {}
    if args.trace:
        # Per-layer names carry their workload, so a traced run covers all
        # three: the named one for --seconds, the others for one pair each.
        order = [named] + [w for w in workloads.WORKLOADS.values() if w is not named]
        for workload in order:
            tally = announce(workload, args.seed)
            budget = args.seconds if workload is named else 0.0
            values.update(traced_run(workload, args.seed, budget, tally))
            report(tally)
            tallies.append(tally)
        leftovers = layers.leftover_wrappers()
        if leftovers:
            print(f"error: tracer wrappers left installed: {leftovers}")
            tallies[0].failed += 1
        units = layers.metric_units(workloads.WORKLOADS.values())
    else:
        tally = announce(named, args.seed)
        values = untraced_run(named, args.seed, args.seconds, tally)
        units = END_TO_END_UNITS
        print(f"\n{named.name}.{named.item}_per_s = {values['items_per_s']:.4f} "
              f"{named.item}/s")
        for name, unit in units.items():
            print(f"{name} = {values[name]:.6g} {unit}")
        report(tally)
        tallies.append(tally)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

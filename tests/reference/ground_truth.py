"""The trace-walking §5.2 labeller that :func:`label_from_inputs` replaced.

Each recovery delay re-scanned the logged per-MCS traces, and
:func:`label_entry` combined the two delays with Th(RA) and Th(BA) in
Eqn. 1.  The shipped :func:`repro.core.ground_truth.label_from_inputs`
applies the same delay rule to scans computed once per entry and must
give the same label for every operating point
(``tests/sim/test_trajectory.py``).
"""

from __future__ import annotations

from repro.core.ground_truth import (
    Action,
    GroundTruthConfig,
    first_working_descending,
    max_delay_s,
    th_ba,
    th_ra,
    utility,
)
from repro.testbed.traces import StateMeasurement


def recovery_delay_ra_s(
    new_same_pair: StateMeasurement,
    new_best_pair: StateMeasurement,
    initial_mcs: int,
    config: GroundTruthConfig,
) -> float:
    """Link recovery delay when RA is triggered first.

    If the old pair still has a working MCS the delay is just the probing
    frames; otherwise the full failed scan, the BA sweep, and a second scan
    on the new pair are all paid (the paper's D_max construction).
    """
    found, frames = first_working_descending(new_same_pair, initial_mcs)
    if found is not None:
        return frames * config.frame_time_s
    delay = frames * config.frame_time_s + config.ba_overhead_s
    found2, frames2 = first_working_descending(new_best_pair, initial_mcs)
    delay += frames2 * config.frame_time_s
    if found2 is None:
        # Nothing works anywhere: the link is dead; delay saturates at D_max.
        return max_delay_s(config)
    return delay


def recovery_delay_ba_s(
    new_best_pair: StateMeasurement,
    initial_mcs: int,
    config: GroundTruthConfig,
) -> float:
    """Link recovery delay when BA is triggered first (then RA)."""
    found, frames = first_working_descending(new_best_pair, initial_mcs)
    delay = config.ba_overhead_s + frames * config.frame_time_s
    if found is None:
        return max_delay_s(config)
    return delay


def label_entry(
    new_same_pair: StateMeasurement,
    new_best_pair: StateMeasurement,
    initial_mcs: int,
    config: GroundTruthConfig = GroundTruthConfig(),
) -> Action:
    """The ground-truth winner for one dataset entry.

    Ties go to RA, matching the paper's "perform RA when Th(RA) ≥ Th(BA)".
    """
    u_ra = utility(
        th_ra(new_same_pair, initial_mcs),
        recovery_delay_ra_s(new_same_pair, new_best_pair, initial_mcs, config),
        config,
    )
    u_ba = utility(
        th_ba(new_best_pair, initial_mcs),
        recovery_delay_ba_s(new_best_pair, initial_mcs, config),
        config,
    )
    return Action.RA if u_ra >= u_ba - config.tie_margin else Action.BA

"""Correctness checks the benchmark applies to every round and every run."""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np


def check_round(record, prev_wall_clock: Optional[float], params) -> List[str]:
    """Names of the invariants one round's record (and the global parameters
    after it) violates; empty when the round is correct."""
    bad = []
    if not np.isfinite(params).all():
        bad.append("params_finite")
    if record.down_bytes < 0 or record.up_bytes < 0:
        bad.append("bytes_nonnegative")
    wall = record.wall_clock_s
    if wall is None or not math.isfinite(wall) or (
        prev_wall_clock is not None and wall < prev_wall_clock
    ):
        bad.append("wall_clock_monotone")
    if record.num_participants > record.num_candidates:
        bad.append("participants_le_candidates")
    return bad


def check_run(final_accuracy: float, floor: float, target_round) -> List[str]:
    """Run-level checks: the accuracy floor and reaching the target."""
    bad = []
    if not final_accuracy >= floor:
        bad.append("final_accuracy_floor")
    if target_round is None:
        bad.append("target_accuracy_reached")
    return bad

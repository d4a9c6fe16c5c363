"""Brute-force predictive retarded setting, written from its definition.

The far schedule is a base timeline (an initial label plus base switch
times) overridden by interventions.  Under the predictive definition an
observer whose past light cone ends at ``cutoff`` keeps only the
interventions decided at or before ``cutoff`` and reads the resulting
timeline at ``t_target``.  Of the events in force by then, the one with
the latest effect time wins; at equal effect time an intervention beats
a base switch, a later decision beats an earlier one, and a later row
of the stream beats an earlier one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def predictive_label(
    initial: str,
    switches: Sequence[tuple[float, str]],
    decisions: np.ndarray,
    delays: np.ndarray,
    labels: Sequence[str],
    t_target: float,
    cutoff: float,
) -> str:
    """Label in force at ``t_target`` once late interventions are dropped."""
    best_key = None
    best = initial
    for time, label in switches:
        if time <= t_target:
            key = (time, 0, 0.0, -1)
            if best_key is None or key > best_key:
                best_key, best = key, label
    decisions = np.asarray(decisions, dtype=np.float64)
    effects = decisions + np.asarray(delays, dtype=np.float64)
    alive = np.flatnonzero((decisions <= cutoff) & (effects <= t_target))
    if alive.size:
        # lexsort sorts by its last key first: effect, then decision, then row
        order = np.lexsort((alive, decisions[alive], effects[alive]))
        row = int(alive[order[-1]])
        key = (float(effects[row]), 1, float(decisions[row]), row)
        if best_key is None or key > best_key:
            best = labels[row]
    return best

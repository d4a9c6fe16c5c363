"""Shared test helpers: independent numeric oracles."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np

from rbell.errors import UndefinedTimeError


def piecewise_constant_mean(f, lo: float, hi: float, coarse: int = 4096) -> float:
    """Density-weighted mean of a piecewise-constant function, near-exactly.

    Samples ``f`` on a fine grid, refines every jump location by
    bisection to ~1e-13, then sums value * interval length exactly.
    Serves as an independent oracle for integrals of step functions
    (midpoint quadrature cannot reach 1e-9 there).
    """
    xs = np.linspace(lo, hi, coarse + 1)
    vals = np.asarray(f(xs), dtype=float)
    breakpoints = [lo]
    for i in range(coarse):
        if vals[i] != vals[i + 1]:
            left, right = xs[i], xs[i + 1]
            fl = vals[i]
            while right - left > 1e-13:
                mid = 0.5 * (left + right)
                if float(f(np.asarray([mid]))[0]) == fl:
                    left = mid
                else:
                    right = mid
            breakpoints.append(0.5 * (left + right))
    breakpoints.append(hi)
    total = 0.0
    for x0, x1 in zip(breakpoints[:-1], breakpoints[1:]):
        mid = 0.5 * (x0 + x1)
        total += float(f(np.asarray([mid]))[0]) * (x1 - x0)
    return total / (hi - lo)


def traced_peak_mib(fn) -> float:
    """Peak traced memory, in MiB, while ``fn()`` runs; tracemalloc sees
    numpy's buffers."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()


def grid_min(fn, axes: dict[str, np.ndarray]) -> tuple[float, dict[str, float]]:
    """Brute-force minimum of a vectorized function over a full grid."""
    names = list(axes)
    mesh = np.meshgrid(*[axes[n] for n in names], indexing="ij")
    flat = {n: m.ravel() for n, m in zip(names, mesh)}
    values = np.asarray(fn(**flat), dtype=float)
    k = int(np.argmin(values))
    return float(values[k]), {n: float(flat[n][k]) for n in names}


def predictive_oracle(sched, t_target: float, cutoff: float):
    """Brute-force predictive lookup: one pass over every event.

    The last base switch at or before the target is the starting
    winner; then every intervention decided by the cutoff, in decision
    order, takes over if it is in force and takes effect no earlier.
    """
    best_time, best = -math.inf, sched.initial
    for t, lbl in sched.switches:
        if t <= t_target:
            best_time, best = t, lbl
    iv = sched.interventions
    for i in range(len(iv)):
        if iv.decision_times[i] > cutoff:
            continue
        eff = iv.effect_times[i]
        if eff <= t_target and eff >= best_time:
            best_time, best = eff, iv.labels[int(iv.label_indices[i])]
    return best


def value_at(sched, t: float):
    """Actual label at ``t``: the predictive oracle with no intervention
    dropped."""
    if t < sched.start:
        raise UndefinedTimeError(f"time {t} precedes the timeline start {sched.start}")
    return predictive_oracle(sched, t, math.inf)


def actual_ids(sched, *times):
    """Label ids at ``times`` from the vector lookup, which must agree
    with the oracle."""
    got = [sched.distinct_labels[k].id for k in sched.value_index_at(np.array(times))]
    assert got == [value_at(sched, t).id for t in times]
    return got

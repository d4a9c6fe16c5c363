"""Shared test helpers: independent numeric oracles."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np

from rbell.errors import MissingCellError, UndefinedTimeError
from rbell.estimation import exact_values
from rbell.inequalities import ANGLE_FLAGS, INEQUALITIES, Correlation, CorrelationInput
from rbell.spacetime import EqualityClass


def octuple_cells(*octuple):
    """The ``retarded_chsh`` row's four cells, in term order, for the flag
    ids ``octuple`` = (a, a2, b, b2, ar, a2r, br, b2r)."""
    return INEQUALITIES["retarded_chsh"].cells(dict(zip(ANGLE_FLAGS, octuple)))


def exact_input(model, angles, quads) -> CorrelationInput:
    """Exact correlations (``exact_values``) of the cells ``quads``, whose
    ids are keys of ``angles``."""
    (e,) = exact_values(model, "E")(*np.array([[angles[k] for k in q] for q in quads]).T)
    return CorrelationInput(
        {q: Correlation(float(v)) for q, v in zip(quads, np.broadcast_to(e, len(quads)))}
    )


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


# ----------------------------------------------------------------------
# The two-schedule settings path: both schedules built and kept through
# the lookups, int64 label columns, full-length angle arrays, and outcome
# blocks joined by concatenation.
# ----------------------------------------------------------------------


def oracle_trials(config):
    """Label columns (a, b, a_r, b_r) as int64 merged-palette indices, and
    outcome_1, outcome_2 and lambda (None without a hidden variable), of
    the trials of ``run_scenario(config)``, on the RBL_WORKERS threads."""
    from rbell.estimation import map_blocks, substream
    from rbell.models import get_model, sample_outcomes
    from rbell.scenarios import _merge_palettes, build_schedules

    sched1, sched2 = build_schedules(config)
    palette, index = _merge_palettes(config)
    times = config.start + config.spacing * np.arange(config.n_trials)
    a, b = oracle_label_columns(sched1, sched2, index, times, times)
    a_r, b_r = oracle_retarded_columns(config, sched1, sched2, index, times, times)
    angles = np.array([lbl.angle for lbl in palette])
    per_trial = (angles[a], angles[b], angles[a_r], angles[b_r])
    model = get_model(config.model)

    def block(i, offset, m):
        sl = slice(offset, offset + m)
        return sample_outcomes(
            model, *(col[sl] for col in per_trial), substream(config.seed, 200, i), m
        )

    outcome_1, outcome_2, lam = zip(*map_blocks(config.n_trials, block))
    return (a, b, a_r, b_r, np.concatenate(outcome_1).astype(np.int8),
            np.concatenate(outcome_2).astype(np.int8),
            None if lam[0] is None else np.concatenate(lam))


def _to_palette(schedule, index):
    return np.array([index[lbl.id] for lbl in schedule.distinct_labels], dtype=np.int64)


def oracle_label_columns(sched1, sched2, index, t1, t2):
    """Actual label columns, as int64 merged-palette indices."""
    return (_to_palette(sched1, index)[sched1.value_index_at(t1)],
            _to_palette(sched2, index)[sched2.value_index_at(t2)])


def oracle_retarded_columns(config, sched1, sched2, index, t1, t2):
    """Retarded label columns, as int64 merged-palette indices, with both
    schedules at hand: simple reads each L/c before its own time,
    predictive reads station 1 at t1 as decided by t2 - L/c and the
    mirror for station 2."""
    tau = config.geometry.retardation
    map1, map2 = _to_palette(sched1, index), _to_palette(sched2, index)
    if config.retarded_definition == "simple":
        return map1[sched1.value_index_at(t1 - tau)], map2[sched2.value_index_at(t2 - tau)]
    return (map1[sched1.predictive_index_at(t1, t2 - tau)[1]],
            map2[sched2.predictive_index_at(t2, t1 - tau)[1]])


# ----------------------------------------------------------------------
# Log-scan oracles of the count-tensor statistics: each reads the trial
# log's columns directly, one bincount or mask scan per statistic.
# ----------------------------------------------------------------------


def oracle_quadruple_counts(log, weights=None) -> np.ndarray:
    """Trials per setting quadruple, or the sum of per-trial ``weights``,
    indexed by the palette indices (a, b, a_r, b_r)."""
    p = len(log.palette)
    # int64 first: the log's label columns may be uint8, which would wrap
    a, b, a_r, b_r = (col.astype(np.int64) for col in (log.a, log.b, log.a_r, log.b_r))
    code = ((a * p + b) * p + a_r) * p + b_r
    return np.bincount(code, weights=weights, minlength=p**4).reshape((p,) * 4)


def oracle_build_table(log, min_count: int = 100) -> dict:
    """Cells of the E table, keyed by label ids in code order."""
    ids = log.ids()
    counts = oracle_quadruple_counts(log)
    sums = oracle_quadruple_counts(log, weights=log.outcome_1.astype(np.int64) * log.outcome_2)
    cells = {}
    for idx in zip(*np.nonzero(counts)):
        n = int(counts[idx])
        est = int(sums[idx]) / n
        se = math.sqrt(max(0.0, 1.0 - est * est) / n)
        cells[tuple(ids[i] for i in idx)] = Correlation(est, se, n, n >= min_count)
    return cells


def oracle_marginal(log, station: int, label: str, far: str) -> tuple[float, float, int]:
    """+1 fraction at ``station`` (1 or 2) over the trials with actual
    setting ``label`` there and far retarded setting ``far`` (b_r for
    station 1, a_r for station 2), by one mask scan."""
    column, far_column, outcome = ((log.a, log.b_r, log.outcome_1) if station == 1
                                   else (log.b, log.a_r, log.outcome_2))
    ids = log.ids()
    mask = ((column == (ids.index(label) if label in ids else -1))
            & (far_column == (ids.index(far) if far in ids else -1)))
    n = int(mask.sum())
    if n == 0:
        raise MissingCellError((label, "*", "*", far) if station == 1 else ("*", label, far, "*"))
    p = float((outcome[mask] == 1).sum()) / n
    return p, math.sqrt(max(0.0, p * (1.0 - p)) / n), n


def oracle_classify_fractions(log) -> dict[str, float]:
    n = len(log)
    eq1 = log.a == log.a_r
    eq2 = log.b == log.b_r
    both = int((eq1 & eq2).sum())
    only1 = int((eq1 & ~eq2).sum())
    only2 = int((~eq1 & eq2).sum())
    neither = n - both - only1 - only2
    return {
        EqualityClass.BOTH_EQUAL.value: both / n,
        EqualityClass.ONLY_1_EQUAL.value: only1 / n,
        EqualityClass.ONLY_2_EQUAL.value: only2 / n,
        EqualityClass.NEITHER_EQUAL.value: neither / n,
    }


def oracle_empirical_weights(log) -> dict[tuple[str, str], float]:
    ids = log.ids()
    counts = oracle_quadruple_counts(log).sum(axis=(0, 1))
    n = len(log)
    return {(ids[u], ids[v]): int(counts[u, v]) / n for u, v in zip(*np.nonzero(counts))}


def oracle_independence(log):
    """(statistic, dof) of Pearson's chi-squared over the (actual pair) x
    (retarded pair) table, Yates-corrected at one degree of freedom, or
    None for a table with fewer than two non-empty rows or columns."""
    p = len(log.palette)
    table = oracle_quadruple_counts(log).reshape(p * p, p * p)
    observed = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0].astype(np.float64)
    r, c = observed.shape
    if r < 2 or c < 2:
        return None
    dof = (r - 1) * (c - 1)
    expected = np.multiply.outer(observed.sum(axis=1), observed.sum(axis=0)) / observed.sum()
    if dof == 1:
        diff = expected - observed
        observed = observed + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    return float(((observed - expected) ** 2 / expected).sum()), dof


def oracle_octuples(observed: set, quartet: dict) -> tuple[list[dict], bool]:
    """Pair-set enumeration of complete retarded octuples.

    ``observed`` holds the (a, b, a_r, b_r) id quadruples with a trial.
    For each actual pair of the quartet, the retarded pairs seen with it
    form a set; an octuple pairs (a2r, b2r) seen with (a2, b2) and
    (ar, br) seen with (a, b) when (ar, b2r) is seen with (a2, b) and
    (a2r, br) with (a, b2), in sorted order of the two pairs.  The
    same-retarded row is complete when (a, b) is seen with all four.
    """
    qa, qa2, qb, qb2 = (quartet[k] for k in ("a", "a2", "b", "b2"))

    def seen(x, y):
        return {(u, v) for (ax, by, u, v) in observed if (ax, by) == (x, y)}

    d_22, d_21, d_12, d_11 = seen(qa2, qb2), seen(qa2, qb), seen(qa, qb2), seen(qa, qb)
    octuples = []
    for (a2r, b2r) in sorted(d_22):
        for (ar, br) in sorted(d_11):
            if (ar, b2r) in d_21 and (a2r, br) in d_12:
                octuples.append({**quartet, "ar": ar, "a2r": a2r, "br": br, "b2r": b2r})
    return octuples, (qa, qb) in (d_22 & d_21 & d_12 & d_11)

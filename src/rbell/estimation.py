"""Correlation estimation: quadrature, seeded Monte Carlo, and trial tables.

Monte Carlo sampling is organized in fixed-size blocks of trials.  Each
block derives its own random stream from (seed, block index), and block
results (integer sums) are reduced in block order, so estimates are
bit-identical for any worker count.  Worker parallelism is capped by
the ``RBL_WORKERS`` environment variable (0 or unset means serial).
"""

from __future__ import annotations

import csv
import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import MissingCellError, UnsupportedModelError
from .inequalities import Correlation, CorrelationInput, Quad
from .models import Model, StochasticLHV, sample_outcomes
from .spacetime import SettingLabel

BLOCK_SIZE = 1 << 16

WORKERS_ENV = "RBL_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: the explicit argument, else RBL_WORKERS.

    RBL_WORKERS also caps an explicit argument, and the machine's CPU
    count caps the result, so no request opens more threads than CPUs.
    """
    env = os.environ.get(WORKERS_ENV)
    limit = max(0, int(env)) if env is not None and env.strip() else None
    if workers is None:
        workers = limit or 0
    elif limit is not None:
        workers = min(workers, limit)
    return max(1, min(workers, os.cpu_count() or 1))


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator derived deterministically from (seed, key...)."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key)))


def map_blocks(
    n_total: int,
    fn: Callable[[int, int, int], object],
    workers: Optional[int] = None,
) -> list:
    """Apply ``fn(block_index, offset, block_n)`` over fixed-size blocks.

    Results come back ordered by block index regardless of how many
    workers ran them.
    """
    n_blocks = (n_total + BLOCK_SIZE - 1) // BLOCK_SIZE
    sizes = [
        min(BLOCK_SIZE, n_total - i * BLOCK_SIZE) for i in range(n_blocks)
    ]
    nworkers = resolve_workers(workers)
    if nworkers <= 1 or n_blocks <= 1:
        return [fn(i, i * BLOCK_SIZE, sizes[i]) for i in range(n_blocks)]
    with ThreadPoolExecutor(max_workers=nworkers) as pool:
        futures = [
            pool.submit(fn, i, i * BLOCK_SIZE, sizes[i]) for i in range(n_blocks)
        ]
        return [f.result() for f in futures]


# ----------------------------------------------------------------------
# The columnar trial log
# ----------------------------------------------------------------------


class TrialLog:
    """Columnar trial storage: numpy arrays plus a label palette.

    Setting columns hold indices into ``palette``.
    """

    def __init__(
        self,
        palette: Sequence[SettingLabel],
        t1: np.ndarray,
        t2: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        a_r: np.ndarray,
        b_r: np.ndarray,
        outcome_1: np.ndarray,
        outcome_2: np.ndarray,
        lam: Optional[np.ndarray] = None,
    ):
        self.palette = tuple(palette)
        ids = [lbl.id for lbl in self.palette]
        if len(set(ids)) != len(ids):
            raise ValueError("palette ids must be unique")
        self.t1 = np.asarray(t1, dtype=np.float64)
        self.t2 = np.asarray(t2, dtype=np.float64)
        self.a = np.asarray(a, dtype=np.int64)
        self.b = np.asarray(b, dtype=np.int64)
        self.a_r = np.asarray(a_r, dtype=np.int64)
        self.b_r = np.asarray(b_r, dtype=np.int64)
        self.outcome_1 = np.asarray(outcome_1, dtype=np.int8)
        self.outcome_2 = np.asarray(outcome_2, dtype=np.int8)
        self.lam = None if lam is None else np.asarray(lam, dtype=np.float64)
        columns = (self.t1, self.t2, self.a, self.b, self.a_r, self.b_r,
                   self.outcome_1, self.outcome_2, self.lam)
        if len({len(col) for col in columns if col is not None}) > 1:
            raise ValueError("trial columns must have equal length")

    def __len__(self) -> int:
        return int(len(self.t1))

    def ids(self) -> tuple[str, ...]:
        return tuple(lbl.id for lbl in self.palette)


TRIAL_HEADER = ["trial_id", "t1", "t2", "a", "b", "a_r", "b_r", "A", "B", "lambda"]

_TRIAL_DTYPE = np.dtype([
    ("t1", np.float64), ("t2", np.float64),
    ("a", np.int64), ("b", np.int64), ("a_r", np.int64), ("b_r", np.int64),
    ("outcome_1", np.int8), ("outcome_2", np.int8), ("lam", np.float64),
])


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it inside a row (QUOTE_MINIMAL)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len("," + csv.excel.lineterminator)]


def write_trial_log(log: TrialLog, path: Union[str, Path]) -> None:
    """Persist a trial log as CSV, ``BLOCK_SIZE`` rows at a time.

    The bytes are those of ``csv.writer`` with its defaults: CRLF line
    ends, label ids quoted only when they hold a comma, quote or line
    break, floats in shortest round-trip form (``repr``), and a blank
    lambda column for models without a hidden variable.  Rows are joined
    by hand, which is faster than ``writer.writerows``; only the ids can
    need quoting, so each is escaped once through ``csv.writer``.
    """
    ids = np.array([_csv_field(i) for i in log.ids()], dtype=object)
    n = len(log)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_HEADER)
        eol = writer.dialect.lineterminator
        for lo in range(0, n, BLOCK_SIZE):
            hi = min(lo + BLOCK_SIZE, n)
            cols = [
                map(str, range(lo, hi)),
                map(repr, log.t1[lo:hi].tolist()),
                map(repr, log.t2[lo:hi].tolist()),
                *(ids[col[lo:hi]] for col in (log.a, log.b, log.a_r, log.b_r)),
                map(str, log.outcome_1[lo:hi].tolist()),
                map(str, log.outcome_2[lo:hi].tolist()),
                repeat("", hi - lo) if log.lam is None else map(repr, log.lam[lo:hi].tolist()),
            ]
            fh.write(eol.join(map(",".join, zip(*cols))) + eol)


def read_trial_log(
    path: Union[str, Path],
    palette: Optional[Mapping[str, float]] = None,
) -> TrialLog:
    """Load a trial-log CSV.

    The file stores label ids only; pass ``palette`` (id -> angle) to
    recover angles, otherwise labels get angle 0.  The log's palette
    lists ids in first-seen order, row by row over a, b, a_r, b_r.  The
    log has a lambda column when any lambda field is non-empty.  A
    malformed row raises one ``ValueError`` that names the file.
    """
    index: dict[str, int] = {}
    has_lam = False

    def label(field: str) -> int:
        return index.setdefault(field, len(index))

    def lam(field: str) -> float:
        nonlocal has_lam
        if field == "":
            return math.nan
        has_lam = True
        return float(field)

    with Path(path).open(newline="") as fh:
        if next(csv.reader([fh.readline()])) != TRIAL_HEADER:
            raise ValueError(f"{path}: expected header {','.join(TRIAL_HEADER)!r}")
        pos = fh.tell()
        try:
            if fh.read(1):
                fh.seek(pos)
                # encoding=None: converters get str, not bytes, on numpy 1.x too.
                rows = np.loadtxt(
                    fh, dtype=_TRIAL_DTYPE, delimiter=",", quotechar='"',
                    comments=None, usecols=range(1, 10), ndmin=1, encoding=None,
                    converters={3: label, 4: label, 5: label, 6: label, 9: lam},
                )
            else:
                rows = np.empty(0, dtype=_TRIAL_DTYPE)
            labels = tuple(
                SettingLabel(i, palette[i] if palette and i in palette else 0.0)
                for i in index
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    cols = {name: np.ascontiguousarray(rows[name]) for name in _TRIAL_DTYPE.names}
    if not has_lam:
        cols["lam"] = None
    return TrialLog(palette=labels, **cols)


# ----------------------------------------------------------------------
# Correlation tables
# ----------------------------------------------------------------------


def quadruple_counts(log: TrialLog, weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Trials per setting quadruple, or the sum of per-trial ``weights``.

    The result is indexed by the palette indices (a, b, a_r, b_r) and
    has shape (p, p, p, p), p = len(log.palette), so its C order is the
    order of the flat code below.
    """
    p = len(log.palette)
    code = ((log.a * p + log.b) * p + log.a_r) * p + log.b_r
    return np.bincount(code, weights=weights, minlength=p**4).reshape((p,) * 4)


def _cell_from_counts(sum_products: int, count: int, min_count: int) -> Correlation:
    est = sum_products / count
    se = math.sqrt(max(0.0, 1.0 - est * est) / count)
    return Correlation(est, se, count, count >= min_count)


TABLE_HEADER = ["a", "b", "a_r", "b_r", "E", "SE", "count", "sufficient"]


def write_table(table: CorrelationInput, path: Union[str, Path]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TABLE_HEADER)
        for key in sorted(table.cells):
            c = table.cells[key]
            writer.writerow(
                list(key)
                + [repr(c.estimate), repr(c.standard_error), c.count, int(c.sufficient)]
            )


def _table_number(name: str, text: str, kind: type = float):
    """A table field as a finite float, or with ``kind=int`` an int of at least 1."""
    try:
        value = kind(text)
        ok = value >= 1 if kind is int else math.isfinite(value)
    except ValueError:
        ok = False
    if not ok:
        expected = "a positive integer" if kind is int else "a finite number"
        raise ValueError(f"{name} must be {expected}, got {text!r}")
    return value


def read_table(path: Union[str, Path], min_count: Optional[int] = None) -> CorrelationInput:
    """Load a correlation table CSV; ``min_count`` re-flags sufficiency.

    A malformed row raises one ``ValueError`` that names the file and
    the line.
    """
    cells: dict[Quad, Correlation] = {}
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TABLE_HEADER:
            raise ValueError(f"{path}: expected header {','.join(TABLE_HEADER)!r}")
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(TABLE_HEADER):
                    raise ValueError(f"expected {len(TABLE_HEADER)} fields, got {len(row)}")
                count = _table_number("count", row[6], int)
                if row[7] not in ("0", "1"):
                    raise ValueError(f"sufficient must be 0 or 1, got {row[7]!r}")
                cells[(row[0], row[1], row[2], row[3])] = Correlation(
                    _table_number("E", row[4]),
                    _table_number("SE", row[5]),
                    count,
                    row[7] == "1" if min_count is None else count >= min_count,
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return CorrelationInput(cells, source="monte-carlo")


def _table(log: TrialLog, cell: Callable[[tuple, int], Correlation]) -> CorrelationInput:
    """``cell(index, count)`` for each observed quadruple, in code order."""
    ids = log.ids()
    counts = quadruple_counts(log)
    return CorrelationInput(
        {tuple(ids[i] for i in idx): cell(idx, int(counts[idx]))
         for idx in zip(*np.nonzero(counts))},
        source="monte-carlo",
    )


def build_table(log: TrialLog, min_count: int = 100) -> CorrelationInput:
    """Group trials by setting quadruple and estimate each cell's E.

    Cells with fewer than ``min_count`` trials are kept but flagged, and
    inequality evaluators will refuse them.
    """
    sums = quadruple_counts(log, weights=log.outcome_1.astype(np.int64) * log.outcome_2)
    return _table(log, lambda idx, n: _cell_from_counts(int(sums[idx]), n, min_count))


def p12_table(log: TrialLog, min_count: int = 100) -> CorrelationInput:
    """Both-plus fraction p12 of each setting quadruple, with its binomial
    standard error; cells are flagged as in :func:`build_table`."""
    plus = quadruple_counts(log, weights=(log.outcome_1 == 1) & (log.outcome_2 == 1))

    def cell(idx: tuple, n: int) -> Correlation:
        p12 = int(plus[idx]) / n
        return Correlation(p12, _binomial_se(p12, n), n, n >= min_count)

    return _table(log, cell)


# ----------------------------------------------------------------------
# Analytic paths: closed form and lambda-quadrature
# ----------------------------------------------------------------------


def _require_local(model: Model, op: str) -> None:
    if not getattr(model, "is_local", False):
        raise UnsupportedModelError(
            f"{op} needs a hidden-variable model; {model.name} exposes no lambda"
        )


def _station_probs(
    model: Model, a: float, b: float, a_r: float, b_r: float, nodes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Both stations' +1 probabilities on the midpoint lambda grid, the
    density there and the node width.

    Deterministic models are lifted via p = (1 + outcome)/2.
    """
    _require_local(model, "quadrature")
    if nodes < 1_000:
        raise ValueError("nodes must be at least 1000")
    if not isinstance(model, StochasticLHV):
        model = StochasticLHV.from_deterministic(model)
    lo, hi = model.hidden.lower, model.hidden.upper
    h = (hi - lo) / nodes
    lam = lo + (np.arange(nodes) + 0.5) * h
    p1v = np.asarray(model.p1(a, b_r, lam), dtype=np.float64)
    p2v = np.asarray(model.p2(b, a_r, lam), dtype=np.float64)
    return p1v, p2v, model.hidden.density(lam), h


def quadrature_E(
    model: Model,
    a: float,
    b: float,
    a_r: float,
    b_r: float,
    nodes: int = 100_000,
) -> float:
    """Midpoint-rule lambda-average of the outcome product.

    The integrands here are piecewise constant with a handful of jumps,
    so the midpoint error is at most (jumps) * (range/nodes) * max|f*rho|.
    """
    p1v, p2v, rho, h = _station_probs(model, a, b, a_r, b_r, nodes)
    return float(np.sum((2.0 * p1v - 1.0) * (2.0 * p2v - 1.0) * rho) * h)


def quadrature_ch_probs(
    model: Model,
    a: float,
    b: float,
    a_r: float,
    b_r: float,
    nodes: int = 100_000,
) -> tuple[float, float, float]:
    """(p12, p1, p2) by lambda-quadrature.

    The marginals are averaged over lambda only (retarded-independent,
    the default reading).
    """
    p1v, p2v, rho, h = _station_probs(model, a, b, a_r, b_r, nodes)
    p12 = float(np.sum(p1v * p2v * rho) * h)
    p1 = float(np.sum(p1v * rho) * h)
    p2 = float(np.sum(p2v * rho) * h)
    return p12, p1, p2


#: Exact model quantities at settings (a, b, a_r, b_r): the closed-form
#: attributes each needs, its values from them, and its values by
#: lambda-quadrature at one point.
_EXACT = {
    "E": (
        ("closed_form_E",),
        lambda m, a, b, a_r, b_r: (m.closed_form_E(a, b, a_r, b_r),),
        lambda m, *point: (quadrature_E(m, *point),),
    ),
    "p12": (
        ("closed_form_p12",),
        lambda m, a, b, a_r, b_r: (m.closed_form_p12(a, b, a_r, b_r),),
        lambda m, *point: quadrature_ch_probs(m, *point)[:1],
    ),
    "marginals": (
        ("closed_form_p1", "closed_form_p2"),
        lambda m, a, b, a_r, b_r: (m.closed_form_p1(a, b_r), m.closed_form_p2(b, a_r)),
        lambda m, *point: quadrature_ch_probs(m, *point)[1:],
    ),
}


def exact_values(
    model: Model, quantity: str, nodes: int = 100_000
) -> Callable[..., tuple[np.ndarray, ...]]:
    """Broadcasting evaluator of an exact model quantity.

    ``quantity`` is "E" (gives (E,)), "p12" (gives (p12,)) or
    "marginals" (gives (p1, p2), read at (a, b_r) and (b, a_r)).  The
    evaluator takes settings (a, b, a_r, b_r), scalars or arrays that
    broadcast together.  It uses the model's closed forms when it has
    them all (a constant closed form may return a scalar); otherwise it
    runs lambda-quadrature point by point, which raises
    UnsupportedModelError here for a model without a hidden variable.
    """
    attrs, closed, quadrature = _EXACT[quantity]
    if all(getattr(model, attr, None) is not None for attr in attrs):
        def by_closed_form(a, b, a_r, b_r):
            return tuple(np.asarray(v, dtype=float) for v in closed(model, a, b, a_r, b_r))
        return by_closed_form
    _require_local(model, "quadrature")

    def by_quadrature(a, b, a_r, b_r):
        points = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, a_r, b_r)))
        out = np.empty((len(attrs),) + points[0].shape)
        for idx in np.ndindex(points[0].shape):
            out[(slice(None),) + idx] = quadrature(
                model, *(float(x[idx]) for x in points), nodes
            )
        return tuple(out)
    return by_quadrature


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------


def mc_E(
    model: Model,
    a: float,
    b: float,
    a_r: float,
    b_r: float,
    n: int,
    seed: int,
    workers: Optional[int] = None,
) -> Correlation:
    """Monte Carlo correlation estimate from n sampled trials.

    Deterministic given (seed, n): trials are drawn in fixed blocks with
    per-block substreams, so the result does not depend on the worker
    count.
    """
    if n < 1:
        raise ValueError("n must be at least 1")

    def block(i: int, _offset: int, m: int) -> int:
        o1, o2, _ = sample_outcomes(model, a, b, a_r, b_r, substream(seed, i), m)
        # the sum of m products of +-1 outcomes: m less twice the disagreements
        return m - 2 * int(np.count_nonzero(o1 != o2))

    return _cell_from_counts(sum(map_blocks(n, block, workers)), n, 0)


# ----------------------------------------------------------------------
# Input builders for the inequality evaluators
# ----------------------------------------------------------------------


def _exact_cells(
    model: Model, quantity: str, angles: Mapping[str, float], quads: Sequence[Quad], nodes: int
) -> dict[Quad, Correlation]:
    """One exact quantity ("E" or "p12") for each cell."""
    columns = [np.array([angles[q[k]] for q in quads], dtype=float) for k in range(4)]
    (values,) = exact_values(model, quantity, nodes)(*columns)
    return {q: Correlation(float(v)) for q, v in zip(quads, np.broadcast_to(values, len(quads)))}


def analytic_correlations(
    model: Model,
    angles: Mapping[str, float],
    quadruples: Iterable[Quad],
    nodes: int = 100_000,
) -> CorrelationInput:
    """Exact (closed form or quadrature) correlations for the given cells."""
    return CorrelationInput(
        _exact_cells(model, "E", angles, list(quadruples), nodes), source="analytic"
    )


def mc_correlations(
    model: Model,
    angles: Mapping[str, float],
    quadruples: Iterable[Quad],
    n: int,
    seed: int,
    workers: Optional[int] = None,
) -> CorrelationInput:
    """Monte Carlo correlations, one independent substream per cell."""
    cells = {
        # seed + k: a distinct substream family per cell
        quad: mc_E(model, *(angles[s] for s in quad), n, seed=seed + k, workers=workers)
        for k, quad in enumerate(sorted(set(quadruples)))
    }
    return CorrelationInput(cells, source="monte-carlo")


def analytic_ch_probs(
    model: Model,
    angles: Mapping[str, float],
    quadruples: Iterable[Quad],
    nodes: int = 100_000,
) -> dict[Quad, Correlation]:
    """Joint +1 probabilities for the given cells, closed form preferred."""
    return _exact_cells(model, "p12", angles, list(quadruples), nodes)


def analytic_marginals(model: Model, a: float, b: float, nodes: int = 100_000) -> tuple[float, float]:
    """Retarded-independent +1 marginals for settings (a station 1, b station 2)."""
    p1, p2 = exact_values(model, "marginals", nodes)(a, b, 0.0, 0.0)
    return float(p1), float(p2)


# ----------------------------------------------------------------------
# Estimates from recorded trials
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChProbEstimate:
    """Empirical CH probabilities for one cell plus station marginals."""

    p12: float
    p12_se: float
    p12_count: int
    p1: float
    p1_se: float
    p1_count: int
    p2: float
    p2_se: float
    p2_count: int


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(0.0, p * (1.0 - p)) / n) if n else 0.0


def _plus_fraction(
    log: TrialLog, column: np.ndarray, outcome: np.ndarray, label: str, key: Quad
) -> tuple[float, float, int]:
    """+1 fraction of ``outcome`` over the trials whose ``column`` holds ``label``."""
    mask = column == log.ids().index(label)
    n = int(mask.sum())
    if n == 0:
        raise MissingCellError(key)
    p = float((outcome[mask] == 1).sum()) / n
    return p, _binomial_se(p, n), n


def marginal_p1(log: TrialLog, a: str) -> tuple[float, float, int]:
    """+1 fraction at station 1 over all trials with actual setting ``a``."""
    return _plus_fraction(log, log.a, log.outcome_1, a, (a, "*", "*", "*"))


def marginal_p2(log: TrialLog, b: str) -> tuple[float, float, int]:
    """+1 fraction at station 2 over all trials with actual setting ``b``."""
    return _plus_fraction(log, log.b, log.outcome_2, b, ("*", b, "*", "*"))


def estimate_ch_probs(
    log: TrialLog, a: str, b: str, a_r: str, b_r: str
) -> ChProbEstimate:
    """Empirical (p12, p1, p2) for one quadruple.

    p12 is the both-plus fraction within the cell; the marginals are
    taken over *all* trials with the given local setting, i.e. they are
    retarded-independent by construction.
    """
    ids = log.ids()
    key = (a, b, a_r, b_r)
    try:
        ia, ib, iar, ibr = (ids.index(s) for s in key)
    except ValueError:
        raise MissingCellError(key) from None
    mask = (log.a == ia) & (log.b == ib) & (log.a_r == iar) & (log.b_r == ibr)
    n12 = int(mask.sum())
    if n12 == 0:
        raise MissingCellError(key)
    both_plus = int(((log.outcome_1 == 1) & (log.outcome_2 == 1) & mask).sum())
    p12 = both_plus / n12
    p1, p1_se, n1 = marginal_p1(log, a)
    p2, p2_se, n2 = marginal_p2(log, b)
    return ChProbEstimate(
        p12=p12, p12_se=_binomial_se(p12, n12), p12_count=n12,
        p1=p1, p1_se=p1_se, p1_count=n1,
        p2=p2, p2_se=p2_se, p2_count=n2,
    )

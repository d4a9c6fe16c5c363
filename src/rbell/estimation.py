"""Correlation estimation: quadrature, seeded Monte Carlo, and trial tables.

Monte Carlo sampling is organized in fixed-size blocks of trials.  Each
block derives its own random stream from (seed, block index), and block
results (integer sums) are reduced in block order, so estimates are
bit-identical across reruns.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import defaultdict
from functools import cached_property
from itertools import chain, count, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import MissingCellError, UnsupportedModelError
from .inequalities import Correlation, CorrelationInput, Inequality, Quad
from .models import ArrayLike, Model, StochasticLHV, sample_outcomes
from .spacetime import SettingLabel, as_label_indices, label_dtype

BLOCK_SIZE = 1 << 16


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator derived deterministically from (seed, key...)."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key)))


def map_blocks(n_total: int, fn: Callable[[int, int, int], object]) -> list:
    """Apply ``fn(block_index, offset, block_n)`` over fixed-size blocks of
    ``n_total`` trials, one after another; the results are in block order
    and the last block may be short."""
    return [
        fn(i, offset, min(BLOCK_SIZE, n_total - offset))
        for i, offset in enumerate(range(0, n_total, BLOCK_SIZE))
    ]


# ----------------------------------------------------------------------
# The columnar trial log
# ----------------------------------------------------------------------


class TrialLog:
    """Columnar trial storage: numpy arrays plus a label palette.

    The setting columns ``a``, ``b``, ``a_r`` and ``b_r`` hold indices
    into ``palette`` in the smallest unsigned dtype that indexes it
    (:func:`~rbell.spacetime.label_dtype`, one byte per label for up to
    255 labels); an index outside the palette raises ``ValueError``.
    Times and lambda are float64 and outcomes int8.
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
        self.a, self.b, self.a_r, self.b_r = (
            as_label_indices(col, len(self.palette), "label") for col in (a, b, a_r, b_r)
        )
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

#: A parsed CSV row.  The ids are counted only as they are parsed, so
#: its label fields take uint32, which indexes more ids than a log can
#: have rows for; each is narrowed as it is copied out of the rows.
_TRIAL_DTYPE = np.dtype([
    ("t1", np.float64), ("t2", np.float64),
    ("a", np.uint32), ("b", np.uint32), ("a_r", np.uint32), ("b_r", np.uint32),
    ("outcome_1", np.int8), ("outcome_2", np.int8), ("lam", np.float64),
])

_LABEL_COLUMNS = ("a", "b", "a_r", "b_r")

#: Rows formatted and written per step of the ``trials.csv`` writer; it
#: bounds the writer's strings to a few MB at any log length.
CSV_CHUNK = 8192

#: The file in a column directory that binds its columns to the CSV.
COLUMN_INDEX = "index.json"


def columns_dir(path: Union[str, Path]) -> Path:
    """The column directory written next to a trial-log CSV:
    ``trials.csv`` -> ``trials.columns``."""
    return Path(path).with_suffix(".columns")


def _sha256(path: Path) -> str:
    """SHA-256 of a file, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _index_digest(index: Mapping) -> str:
    """SHA-256 of an index's ids, lambda flag and digests, which seals
    the ids: no file digest covers them."""
    return hashlib.sha256(json.dumps(index, sort_keys=True).encode()).hexdigest()


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it inside a row (QUOTE_MINIMAL)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len("," + csv.excel.lineterminator)]


def _write_csv(log: TrialLog, path: Path) -> None:
    """``trials.csv``, ``CSV_CHUNK`` rows at a time.

    Each column is formatted in one pass into strings that carry their
    own ``,`` (lambda, the last column, its line end), and a chunk is
    one join of them row by row.  Label ids (each escaped once through
    ``csv.writer``) and outcomes are looked up in tables of their
    strings; t2 reuses t1's strings when the columns are equal bit for
    bit (``==`` would also take 0.0 for -0.0).
    """
    eol = csv.excel.lineterminator
    ids = np.array([_csv_field(i) + "," for i in log.ids()], dtype=object)
    outcomes = np.array([f"{k}," for k in range(-128, 128)], dtype=object)
    same_times = log.t1 is log.t2 or np.array_equal(
        log.t1.view(np.uint64), log.t2.view(np.uint64)
    )
    n = len(log)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(TRIAL_HEADER)
        for lo in range(0, n, CSV_CHUNK):
            hi = min(lo + CSV_CHUNK, n)
            t1 = [f"{x!r}," for x in log.t1[lo:hi].tolist()]
            cols = [
                [f"{k}," for k in range(lo, hi)],
                t1,
                t1 if same_times else [f"{x!r}," for x in log.t2[lo:hi].tolist()],
                *(ids[getattr(log, c)[lo:hi]].tolist() for c in _LABEL_COLUMNS),
                *(outcomes[o[lo:hi].astype(np.intp) + 128].tolist()
                  for o in (log.outcome_1, log.outcome_2)),
                repeat(eol, hi - lo) if log.lam is None
                else [f"{x!r}{eol}" for x in log.lam[lo:hi].tolist()],
            ]
            fh.write("".join(chain.from_iterable(zip(*cols))))


def _first_seen(log: TrialLog) -> list[int]:
    """Palette indices in the order a CSV reader meets their ids: row by
    row over a, b, a_r, b_r.  Scans ``CSV_CHUNK`` rows at a time and
    stops once every label in use is seen."""
    labels = [getattr(log, c) for c in _LABEL_COLUMNS]
    in_use = np.count_nonzero(sum(np.bincount(c, minlength=len(log.palette)) for c in labels))
    order: list[int] = []
    for lo in range(0, len(log), CSV_CHUNK):
        cells = np.stack([c[lo:lo + CSV_CHUNK] for c in labels], axis=1).ravel()
        values, first = np.unique(cells, return_index=True)
        order += [k for k in values[np.argsort(first)].tolist() if k not in order]
        if len(order) == in_use:
            break
    return order


def _write_columns(log: TrialLog, path: Path) -> None:
    """The column directory of ``path``: the columns that parsing the CSV
    gives back, one ``np.save`` file each, and an index binding them to it."""
    folder = columns_dir(path)
    folder.mkdir(exist_ok=True)
    order = _first_seen(log)
    # labels are stored at the width of the palette read back, the ids in use
    rank = np.zeros(len(log.palette), dtype=label_dtype(len(order)))
    rank[order] = np.arange(len(order))
    has_lam = log.lam is not None and len(log) > 0
    digests = {"csv": _sha256(path)}
    for name in _TRIAL_DTYPE.names[: None if has_lam else -1]:
        col = getattr(log, name)
        if name in _LABEL_COLUMNS:
            col = rank[col]
        elif col.dtype.kind == "f" and np.isnan(col).any():
            col = np.where(np.isnan(col), np.nan, col)
        np.save(folder / f"{name}.npy", col)
        digests[name] = _sha256(folder / f"{name}.npy")
    if not has_lam:
        (folder / "lam.npy").unlink(missing_ok=True)
    index = {"digests": digests, "ids": [log.palette[k].id for k in order], "lambda": has_lam}
    index["sha256"] = _index_digest(index)
    (folder / COLUMN_INDEX).write_text(json.dumps(index, indent=2, sort_keys=True))


def write_trial_log(log: TrialLog, path: Union[str, Path]) -> None:
    """Persist a trial log as the CSV ``path`` plus its column directory.

    The CSV's bytes are those of ``csv.writer`` with its defaults: CRLF
    line ends, label ids quoted only when they hold a comma, quote or
    line break, floats in shortest round-trip form (``repr``), and a
    blank lambda column for models without a hidden variable.

    The column directory (:func:`columns_dir`, ``trials.csv`` ->
    ``trials.columns``) holds what parsing the CSV gives back: one
    ``np.save`` file per column, label indices in first-seen order at
    the width that indexes the ids in use (one byte up to 255), every
    NaN canonical.  Its ``index.json`` (sorted keys) lists the ids in
    that order, whether there is a lambda column, the SHA-256 of the CSV
    and of each column file, and one of these entries themselves, so
    :func:`read_trial_log` uses the columns only next to the very CSV
    they were written with.  They take about half the CSV's size on disk
    (6.0 MB next to 11.6 MB at 2e5 trials with a lambda column).
    """
    path = Path(path)
    _write_csv(log, path)
    _write_columns(log, path)


def _labels(
    ids: Iterable[str], palette: Optional[Mapping[str, float]]
) -> tuple[SettingLabel, ...]:
    return tuple(SettingLabel(i, palette[i] if palette and i in palette else 0.0) for i in ids)


def _read_columns(path: Path, palette: Optional[Mapping[str, float]]) -> Optional[TrialLog]:
    """The log from the column directory of ``path``, or None unless its
    index is intact and every digest it records matches its file."""
    folder = columns_dir(path)
    try:
        index = json.loads((folder / COLUMN_INDEX).read_text())
    except (OSError, ValueError):  # missing, or not JSON
        return None
    # a sealed index is as write_trial_log wrote it
    if not isinstance(index, dict) or index.pop("sha256", None) != _index_digest(index):
        return None
    names = _TRIAL_DTYPE.names[: None if index["lambda"] else -1]
    files = {"csv": path, **{name: folder / f"{name}.npy" for name in names}}
    try:
        if any(_sha256(file) != index["digests"][key] for key, file in files.items()):
            return None
    except OSError:  # a file is missing or unreadable
        return None
    cols = {name: np.load(files[name]) for name in names}
    return TrialLog(palette=_labels(index["ids"], palette), **cols)


def _parse_csv(path: Path, palette: Optional[Mapping[str, float]]) -> TrialLog:
    """The log parsed from the CSV alone, in one ``np.loadtxt`` pass."""
    index: defaultdict[str, int] = defaultdict(count().__next__)  # first-seen ids
    label = index.__getitem__
    has_lam = False

    def lam(field: str) -> float:
        nonlocal has_lam
        if field == "":
            return math.nan
        has_lam = True
        return float(field)

    with path.open(newline="") as fh:
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
            labels = _labels(index, palette)  # an empty id raises here
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    width = label_dtype(len(labels))
    cols = {
        name: rows[name].astype(width if name in _LABEL_COLUMNS else rows[name].dtype)
        for name in _TRIAL_DTYPE.names
    }
    if not has_lam:
        cols["lam"] = None
    return TrialLog(palette=labels, **cols)


def read_trial_log(
    path: Union[str, Path],
    palette: Optional[Mapping[str, float]] = None,
) -> TrialLog:
    """Load a trial log from its CSV ``path``.

    When the column directory next to the CSV has an intact index and the
    SHA-256 of the CSV and of every column file match it (each digest
    computed by streaming the file), the columns are loaded from there.
    Otherwise -- a hand-edited or foreign CSV, a missing, truncated or
    altered column file, a missing or garbled index -- the CSV is
    parsed, with the same result for an unaltered log: the same palette
    and columns equal bit for bit.

    The files store label ids only; pass ``palette`` (id -> angle) to
    recover angles, otherwise labels get angle 0.  The log's palette
    lists ids in first-seen order, row by row over a, b, a_r, b_r.  The
    log has a lambda column when any lambda field is non-empty; a blank
    field reads as NaN.  A malformed CSV row raises one ``ValueError``
    that names the file.
    """
    path = Path(path)
    log = _read_columns(path, palette)
    return log if log is not None else _parse_csv(path, palette)


# ----------------------------------------------------------------------
# Correlation tables
# ----------------------------------------------------------------------


class TrialCounts:
    """A trial log grouped once: ``n[a, b, a_r, b_r, A > 0, B > 0]`` counts
    trials by palette indices and outcome bits (shape (p, p, p, p, 2, 2),
    p = len(ids), one ``np.bincount`` over the C-order code of that
    shape), and ``cells`` sums out the outcomes.  An outcome other than
    +1 or -1 raises ``ValueError``: one bit cannot hold it.
    """

    def __init__(self, log: TrialLog):
        o1, o2 = log.outcome_1, log.outcome_2
        bad = np.flatnonzero((np.abs(o1) != 1) | (np.abs(o2) != 1))
        if bad.size:
            raise ValueError(f"{bad.size} trial(s) with an outcome other than +1 or -1, "
                             f"the first at trial index {bad[0]}")
        self.ids = log.ids()
        p = len(self.ids)
        # one int64 buffer, built in place: the label columns may be uint8
        code = log.a.astype(np.int64)
        for col in (log.b, log.a_r, log.b_r):
            code *= p
            code += col
        for plus in (o1 > 0, o2 > 0):
            code *= 2
            code += plus
        self.n = np.bincount(code, minlength=4 * p**4).reshape((p,) * 4 + (2, 2))
        self.cells = self.n.sum((4, 5))

    @cached_property
    def singles(self) -> tuple[np.ndarray, np.ndarray]:
        """Per station, its trials by (actual setting, far retarded
        setting, outcome bit): ``n`` summed to axes (a, b_r, A) and to
        (b, a_r, B), each of shape (p, p, 2)."""
        return self.n.sum((1, 2, 5)), self.n.sum((0, 3, 4))


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
    return CorrelationInput(cells)


def _table(counts: TrialCounts, cell: Callable[[tuple, int], Correlation]) -> CorrelationInput:
    """``cell(index, count)`` for each observed quadruple, in code order."""
    ids = counts.ids
    return CorrelationInput(
        {tuple(ids[i] for i in idx): cell(idx, int(counts.cells[idx]))
         for idx in zip(*np.nonzero(counts.cells))}
    )


def build_table(counts: TrialCounts, min_count: int = 100) -> CorrelationInput:
    """Estimate each observed setting quadruple's E from its counts.

    Cells with fewer than ``min_count`` trials are kept but flagged, and
    inequality evaluators will refuse them.
    """
    n = counts.n
    sums = n[..., 0, 0] + n[..., 1, 1] - n[..., 0, 1] - n[..., 1, 0]
    return _table(counts, lambda idx, k: _cell_from_counts(int(sums[idx]), k, min_count))


def p12_table(counts: TrialCounts, min_count: int = 100) -> CorrelationInput:
    """Both-plus fraction p12 of each setting quadruple, with its binomial
    standard error; cells are flagged as in :func:`build_table`."""
    plus = counts.n[..., 1, 1]

    def cell(idx: tuple, n: int) -> Correlation:
        p12 = int(plus[idx]) / n
        return Correlation(p12, _binomial_se(p12, n), n, n >= min_count)

    return _table(counts, cell)


# ----------------------------------------------------------------------
# Analytic paths: closed form and lambda-quadrature
# ----------------------------------------------------------------------


def _require_local(model: Model, op: str) -> None:
    if not getattr(model, "is_local", False):
        raise UnsupportedModelError(
            f"{op} needs a hidden-variable model; {model.name} exposes no lambda"
        )


#: The fewest lambda nodes that quadrature accepts.
MIN_QUADRATURE_NODES = 1_000


def _lambda_average(
    model: Model, points: Sequence[ArrayLike], nodes: int, ch: bool
) -> tuple[ArrayLike, ...]:
    """Midpoint-rule lambda-averages of :func:`_integrands` at each point
    of the settings ``points``: (E,), or (p12, p1, p2) with ``ch``.

    The grid and the density are built once per call; ``points`` are
    scalars or arrays that broadcast together, and scalar settings give
    floats.  Each average is the float64 sum of integrand times density
    over the grid, times the node width.
    """
    _require_local(model, "quadrature")
    if nodes < MIN_QUADRATURE_NODES:
        raise ValueError(f"nodes must be at least {MIN_QUADRATURE_NODES}")
    lo, hi = model.hidden.lower, model.hidden.upper
    h = (hi - lo) / nodes
    lam = lo + (np.arange(nodes) + 0.5) * h
    rho = model.hidden.density(lam)
    settings = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in points))
    shape = settings[0].shape
    out = np.empty((3 if ch else 1,) + shape)
    for idx in np.ndindex(shape):
        values = _integrands(model, ch, *(float(x[idx]) for x in settings), lam)
        out[(slice(None),) + idx] = [np.sum(f * rho) * h for f in values]
    return tuple(float(v) for v in out) if shape == () else tuple(out)


def _integrands(
    model: Model, ch: bool, a: float, b: float, a_r: float, b_r: float, lam: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The outcome product on the grid, or with ``ch`` the both-plus,
    station-1 plus and station-2 plus integrands.

    A stochastic model gives them from its float64 +1 probabilities.  A
    deterministic model gives them from its int8 signs, which meet
    float64 only in the weighted sum: every value equals that of the
    lift p = (1 + outcome)/2 of :meth:`StochasticLHV.from_deterministic`
    bit for bit.
    """
    if isinstance(model, StochasticLHV):
        p1v = np.asarray(model.p1(a, b_r, lam), dtype=np.float64)
        p2v = np.asarray(model.p2(b, a_r, lam), dtype=np.float64)
        return (p1v * p2v, p1v, p2v) if ch else ((2.0 * p1v - 1.0) * (2.0 * p2v - 1.0),)
    o1, o2 = model.outcome_A(a, b_r, lam), model.outcome_B(b, a_r, lam)
    if not ch:
        return (o1 * o2,)
    plus_1, plus_2 = o1 > 0, o2 > 0
    return plus_1 & plus_2, plus_1, plus_2


def quadrature_E(
    model: Model,
    a: ArrayLike,
    b: ArrayLike,
    a_r: ArrayLike,
    b_r: ArrayLike,
    nodes: int = 100_000,
) -> ArrayLike:
    """Midpoint-rule lambda-average of the outcome product.

    Settings broadcast together; scalar settings give a float, and the
    lambda grid is built once per call.  A deterministic model's
    integrand is the product of its int8 outcome signs.  The integrands
    here are piecewise constant with a handful of jumps, so the midpoint
    error is at most (jumps) * (range/nodes) * max|f*rho|.
    """
    return _lambda_average(model, (a, b, a_r, b_r), nodes, ch=False)[0]


def quadrature_ch_probs(
    model: Model,
    a: ArrayLike,
    b: ArrayLike,
    a_r: ArrayLike,
    b_r: ArrayLike,
    nodes: int = 100_000,
) -> tuple[ArrayLike, ArrayLike, ArrayLike]:
    """(p12, p1, p2) by lambda-quadrature, settings as in :func:`quadrature_E`.

    A deterministic model's integrands are its +1 indicators.  The
    marginals are p1(a | b_r) and p2(b | a_r): each station's +1
    probability at the far retarded setting given, averaged over lambda.
    """
    return _lambda_average(model, (a, b, a_r, b_r), nodes, ch=True)


#: Exact model quantities at settings (a, b, a_r, b_r): the closed-form
#: attributes each needs, its values from them, and its values by
#: lambda-quadrature.
_EXACT = {
    "E": (
        ("closed_form_E",),
        lambda m, a, b, a_r, b_r: (m.closed_form_E(a, b, a_r, b_r),),
        lambda m, *points: (quadrature_E(m, *points),),
    ),
    "p12": (
        ("closed_form_p12",),
        lambda m, a, b, a_r, b_r: (m.closed_form_p12(a, b, a_r, b_r),),
        lambda m, *points: quadrature_ch_probs(m, *points)[:1],
    ),
    "marginals": (
        ("closed_form_p1", "closed_form_p2"),
        lambda m, a, b, a_r, b_r: (m.closed_form_p1(a, b_r), m.closed_form_p2(b, a_r)),
        lambda m, *points: quadrature_ch_probs(m, *points)[1:],
    ),
}


def uses_quadrature(model: Model, *quantities: str) -> bool:
    """Whether ``exact_values`` integrates over lambda for any of
    ``quantities``: whether the model lacks a closed form one reads."""
    return not all(getattr(model, attr, None) is not None
                   for quantity in quantities for attr in _EXACT[quantity][0])


def row_quantities(row: Inequality) -> tuple[str, ...]:
    """The ``exact_values`` quantities of a row's signed sum: its cells',
    then for a probability row the marginals of its singles."""
    return ("p12", "marginals") if row.probability else ("E",)


def exact_values(
    model: Model, quantity: str, nodes: int = 100_000
) -> Callable[..., tuple[np.ndarray, ...]]:
    """Broadcasting evaluator of an exact model quantity.

    ``quantity`` is "E" (gives (E,)), "p12" (gives (p12,)) or
    "marginals" (gives (p1, p2), read at (a, b_r) and (b, a_r)).  The
    evaluator takes settings (a, b, a_r, b_r), scalars or arrays that
    broadcast together.  It uses the model's closed forms when it has
    them all (a constant closed form may return a scalar); otherwise it
    runs lambda-quadrature over all the points in one call, which raises
    UnsupportedModelError here for a model without a hidden variable.
    """
    _, closed, quadrature = _EXACT[quantity]
    if not uses_quadrature(model, quantity):
        def by_closed_form(a, b, a_r, b_r):
            return tuple(np.asarray(v, dtype=float) for v in closed(model, a, b, a_r, b_r))
        return by_closed_form
    _require_local(model, "quadrature")

    def by_quadrature(a, b, a_r, b_r):
        return tuple(np.asarray(v) for v in quadrature(model, a, b, a_r, b_r, nodes))
    return by_quadrature


def exact_terms(
    model: Model, row: Inequality, nodes: int = 100_000
) -> Callable[[Mapping[str, ArrayLike]], tuple[Iterator[np.ndarray], tuple[np.ndarray, ...]]]:
    """The one exact evaluator of table row ``row``, over ``exact_values``.

    It maps flag -> angle (scalars or arrays that broadcast together) to
    the exact value of each term's cell (E, or p12 for a probability
    row), in term order and computed as it is read, and to the +1
    singles of a probability row: p1(a2 | b_r = b2r) and
    p2(b2 | a_r = a2r), the singles a scenario run samples too.
    """
    exact, *marginals = (exact_values(model, q, nodes) for q in row_quantities(row))

    def terms(angles: Mapping[str, ArrayLike]) -> tuple[Iterator[np.ndarray], tuple]:
        singles = () if not marginals else marginals[0](
            *(row.flag(angles, k) for k in ("a2", "b2", "a2r", "b2r")))
        return (exact(*cell)[0] for cell in row.cells(angles)), singles
    return terms


def exact_row(
    model: Model, row: Inequality, nodes: int = 100_000
) -> Callable[[Mapping[str, ArrayLike]], np.ndarray]:
    """Broadcasting evaluator of table row ``row``: its signed sum of
    :func:`exact_terms`."""
    terms = exact_terms(model, row, nodes)
    return lambda angles: row.signed_sum(*terms(angles))


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------


def mc_E(model: Model, a: float, b: float, a_r: float, b_r: float, n: int,
         seed: int) -> Correlation:
    """Monte Carlo correlation estimate from n sampled trials.

    Deterministic given (seed, n): trials are drawn in fixed blocks, each
    from its own substream.
    """
    if n < 1:
        raise ValueError("n must be at least 1")

    def block(i: int, _offset: int, m: int) -> int:
        o1, o2, _ = sample_outcomes(model, a, b, a_r, b_r, substream(seed, i), m)
        # the sum of m products of +-1 outcomes: m less twice the disagreements
        return m - 2 * int(np.count_nonzero(o1 != o2))

    return _cell_from_counts(sum(map_blocks(n, block)), n, 0)


def mc_correlations(model: Model, angles: Mapping[str, float], quadruples: Iterable[Quad],
                    n: int, seed: int) -> CorrelationInput:
    """Monte Carlo correlations, one independent substream per cell."""
    cells = {
        # seed + k: a distinct substream family per cell
        quad: mc_E(model, *(angles[s] for s in quad), n, seed=seed + k)
        for k, quad in enumerate(sorted(set(quadruples)))
    }
    return CorrelationInput(cells)


# ----------------------------------------------------------------------
# Estimates from recorded trials
# ----------------------------------------------------------------------


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(0.0, p * (1.0 - p)) / n) if n else 0.0


def _plus_fraction(counts: TrialCounts, station: int, label: str, far: str,
                   key: Quad) -> tuple[float, float, int]:
    """+1 fraction at ``station`` (0 or 1) over its trials with actual
    setting ``label`` and far retarded setting ``far``."""
    ids = counts.ids
    if label in ids and far in ids:
        minus, plus = counts.singles[station][ids.index(label), ids.index(far)].tolist()
    else:
        minus = plus = 0
    n = minus + plus
    if n == 0:
        raise MissingCellError(key)
    p = plus / n
    return p, _binomial_se(p, n), n


def marginal_p1(counts: TrialCounts, a: str, b_r: str) -> tuple[float, float, int]:
    """p1(a | b_r): +1 fraction at station 1 over the trials with actual
    setting ``a`` and station 2's retarded setting ``b_r``."""
    return _plus_fraction(counts, 0, a, b_r, (a, "*", "*", b_r))


def marginal_p2(counts: TrialCounts, b: str, a_r: str) -> tuple[float, float, int]:
    """p2(b | a_r): +1 fraction at station 2 over the trials with actual
    setting ``b`` and station 1's retarded setting ``a_r``."""
    return _plus_fraction(counts, 1, b, a_r, ("*", b, a_r, "*"))

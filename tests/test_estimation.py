import csv
import hashlib
import json
import math
import re
import shutil
import tempfile
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import (
    oracle_build_table,
    oracle_classify_fractions,
    oracle_empirical_weights,
    oracle_independence,
    oracle_marginal,
    oracle_octuples,
    oracle_quadruple_counts,
    traced_peak_mib,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st_

from rbell import estimation

from rbell.errors import MissingCellError, UnsupportedModelError
from rbell.estimation import (
    BLOCK_SIZE,
    TrialCounts,
    TrialLog,
    build_table,
    columns_dir,
    exact_row,
    exact_terms,
    exact_values,
    map_blocks,
    marginal_p1,
    marginal_p2,
    mc_E,
    p12_table,
    quadrature_ch_probs,
    quadrature_E,
    read_table,
    read_trial_log,
    substream,
    write_table,
    write_trial_log,
)
from rbell.inequalities import ANGLE_FLAGS, INEQUALITIES, Correlation, CorrelationInput
from rbell.models import (
    DeterministicLHV,
    HiddenSpace,
    StochasticLHV,
    get_model,
    hardy_closed_form_E,
    hardy_singlet,
)
from rbell.scenarios import (
    _complete_octuples,
    classify_fractions,
    empirical_weights,
    independence_check,
    load_config,
    run_scenario,
)
from rbell.spacetime import InterventionStream, SettingLabel, SwitchTable

HARDY = get_model("hardy")
QUANTUM = get_model("quantum")

QUARTET = {"a": math.pi / 2, "a2": 0.0, "b": -math.pi / 4, "b2": math.pi / 4}

LA = SettingLabel("a", 0.0)
LB = SettingLabel("b", 1.0)
LB2 = SettingLabel("b2", 2.0)


def toy_constant_model():
    ones = lambda x, y, lam: np.ones_like(np.asarray(lam), dtype=np.int8)
    return DeterministicLHV(
        name="toy-constant",
        hidden=HiddenSpace.uniform_circle(),
        outcome_A=ones,
        outcome_B=ones,
    )


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------


def test_quadrature_tied_parallel_is_minus_one():
    value = quadrature_E(HARDY, 0.4, 0.4, 0.4, 0.4, nodes=100_000)
    assert value == pytest.approx(-1.0, abs=1e-3)


def test_quadrature_matches_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b, ar, br = rng.uniform(0, math.tau, 4)
        q = quadrature_E(HARDY, a, b, ar, br, nodes=100_000)
        assert q == pytest.approx(float(hardy_closed_form_E(a, b, ar, br)), abs=1e-4)


def test_quadrature_constant_model_is_one():
    assert quadrature_E(toy_constant_model(), 0.0, 0.0, 0.0, 0.0, nodes=10_000) == (
        pytest.approx(1.0, abs=1e-12)
    )


def test_quadrature_rejects_nonlocal_model():
    with pytest.raises(UnsupportedModelError):
        quadrature_E(QUANTUM, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(UnsupportedModelError):
        quadrature_ch_probs(QUANTUM, 0.0, 0.0, 0.0, 0.0)


def test_quadrature_rejects_too_few_nodes():
    with pytest.raises(ValueError):
        quadrature_E(HARDY, 0.0, 0.0, 0.0, 0.0, nodes=100)


def test_quadrature_ch_probs_consistency():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b, ar, br = rng.uniform(0, math.tau, 4)
        p12, p1, p2 = quadrature_ch_probs(HARDY, a, b, ar, br, nodes=100_000)
        e = float(hardy_closed_form_E(a, b, ar, br))
        # half-circle marginals and the p12 = (1+E)/4 identity
        assert p1 == pytest.approx(0.5, abs=1e-4)
        assert p2 == pytest.approx(0.5, abs=1e-4)
        assert p12 == pytest.approx((1.0 + e) / 4.0, abs=1e-4)


def station_probs(model, a, b, a_r, b_r, nodes):
    """Both stations' +1 probabilities on the midpoint lambda grid, the
    density there and the node width, one point at a time, with a
    deterministic model lifted via p = (1 + outcome)/2: the oracle of
    the quadrature integrands."""
    if not isinstance(model, StochasticLHV):
        model = StochasticLHV.from_deterministic(model)
    lo, hi = model.hidden.lower, model.hidden.upper
    h = (hi - lo) / nodes
    lam = lo + (np.arange(nodes) + 0.5) * h
    p1v = np.asarray(model.p1(a, b_r, lam), dtype=np.float64)
    p2v = np.asarray(model.p2(b, a_r, lam), dtype=np.float64)
    return p1v, p2v, model.hidden.density(lam), h


def lifted_quadrature(model, a, b, a_r, b_r, nodes):
    """(E, p12, p1, p2) at one point from the lifted float probabilities."""
    p1v, p2v, rho, h = station_probs(model, a, b, a_r, b_r, nodes)
    return (
        float(np.sum((2.0 * p1v - 1.0) * (2.0 * p2v - 1.0) * rho) * h),
        float(np.sum(p1v * p2v * rho) * h),
        float(np.sum(p1v * rho) * h),
        float(np.sum(p2v * rho) * h),
    )


QUADRATURE_MODELS = {"hardy": HARDY, "hardy-lifted": StochasticLHV.from_deterministic(HARDY)}


@settings(max_examples=40, deadline=None)
@given(
    name=st_.sampled_from(sorted(QUADRATURE_MODELS)),
    point=st_.lists(st_.floats(-10.0, 10.0), min_size=4, max_size=4),
    shape=st_.sampled_from([(), (3,), (2, 1)]),
    nodes=st_.sampled_from([1_000, 4_099, 20_000]),
)
def test_quadrature_matches_lifted_float_oracle(name, point, shape, nodes):
    model = QUADRATURE_MODELS[name]
    # scalar settings, or arrays of that shape around the drawn point
    steps = np.arange(math.prod(shape), dtype=float).reshape(shape)
    settings_ = [x + 0.37 * k * steps if shape else x for k, x in enumerate(point)]
    e = quadrature_E(model, *settings_, nodes=nodes)
    p12, p1, p2 = quadrature_ch_probs(model, *settings_, nodes=nodes)
    points = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in settings_))
    for got in (e, p12, p1, p2):
        assert type(got) is float if shape == () else got.shape == shape
    for idx in np.ndindex(shape):
        want = lifted_quadrature(model, *(float(x[idx]) for x in points), nodes)
        got = tuple(float(np.asarray(v)[idx]) for v in (e, p12, p1, p2))
        assert [x.hex() for x in got] == [x.hex() for x in want]


def test_quadrature_of_no_points_is_empty():
    e = quadrature_E(HARDY, np.zeros(0), 0.0, 0.0, 0.0)
    probs = quadrature_ch_probs(HARDY, np.zeros((2, 0)), 0.0, 0.0, 0.0)
    assert e.shape == (0,) and [p.shape for p in probs] == [(2, 0)] * 3


def test_quadrature_stochastic_lift_matches_deterministic():
    lifted = StochasticLHV.from_deterministic(hardy_singlet())
    rng = np.random.default_rng(2)
    for _ in range(5):
        a, b, ar, br = rng.uniform(0, math.tau, 4)
        assert quadrature_E(lifted, a, b, ar, br, nodes=50_000) == pytest.approx(
            quadrature_E(HARDY, a, b, ar, br, nodes=50_000), abs=1e-12
        )


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------


def test_mc_perfect_correlation_has_zero_error():
    # antipodal tied settings: E = +1 exactly, so the estimator is exact
    est = mc_E(HARDY, 0.0, math.pi, 0.0, math.pi, n=10_000, seed=1)
    assert est.estimate == 1.0
    assert est.standard_error == 0.0
    assert est.count == 10_000


def test_mc_within_five_sigma_of_closed_form():
    rng = np.random.default_rng(3)
    for k in range(10):
        a, b, ar, br = rng.uniform(0, math.tau, 4)
        est = mc_E(HARDY, a, b, ar, br, n=100_000, seed=100 + k)
        expect = float(hardy_closed_form_E(a, b, ar, br))
        assert abs(est.estimate - expect) <= 5 * max(est.standard_error, 1e-12)


def test_mc_quantum_zero_point():
    est = mc_E(QUANTUM, math.pi / 2, 0.0, 0.0, 0.0, n=1_000_000, seed=5)
    assert abs(est.estimate) <= 5 * est.standard_error


def test_mc_seed_determinism():
    a = mc_E(HARDY, 0.3, 1.0, 2.0, 0.5, n=12_345, seed=9)
    b = mc_E(HARDY, 0.3, 1.0, 2.0, 0.5, n=12_345, seed=9)
    assert a == b
    c = mc_E(HARDY, 0.3, 1.0, 2.0, 0.5, n=12_345, seed=10)
    assert c != a


@pytest.mark.parametrize(
    "n,expect",
    [
        (0, []),
        (1, [(0, 0, 1)]),
        (BLOCK_SIZE, [(0, 0, BLOCK_SIZE)]),
        (BLOCK_SIZE + 1, [(0, 0, BLOCK_SIZE), (1, BLOCK_SIZE, 1)]),
        (2 * BLOCK_SIZE + 5,
         [(0, 0, BLOCK_SIZE), (1, BLOCK_SIZE, BLOCK_SIZE), (2, 2 * BLOCK_SIZE, 5)]),
    ],
    ids=["empty", "one-trial", "one-full-block", "one-over", "two-blocks-and-five"],
)
def test_map_blocks_walks_fixed_blocks_in_order(n, expect):
    # an exact multiple of BLOCK_SIZE ends without an empty block; any
    # remainder is one short last block
    calls = []

    def fn(i, offset, m):
        calls.append((i, offset, m))
        return i

    assert map_blocks(n, fn) == [i for i, _, _ in expect]
    assert calls == expect


def test_mc_rejects_bad_n():
    with pytest.raises(ValueError):
        mc_E(HARDY, 0, 0, 0, 0, n=0, seed=0)


def test_substream_independence():
    x = substream(1, 0).random(4)
    y = substream(1, 1).random(4)
    assert not np.allclose(x, y)
    assert np.allclose(x, substream(1, 0).random(4))


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------


def test_build_table_empty_log():
    table = build_table(TrialCounts(make_log([])))
    assert table.cells == {}


def make_log(products, a=0, b=1, ar=0, br=1, lam=0.1):
    """Trials with outcome_1 = +1 and outcome_2 = product; the setting
    columns (scalars or per-trial lists) index (LA, LB, LB2)."""
    n = len(products)
    return TrialLog(
        palette=(LA, LB, LB2),
        t1=np.zeros(n), t2=np.zeros(n),
        a=np.broadcast_to(a, n), b=np.broadcast_to(b, n),
        a_r=np.broadcast_to(ar, n), b_r=np.broadcast_to(br, n),
        outcome_1=np.ones(n), outcome_2=products,
        lam=None if lam is None else np.full(n, lam),
    )


def test_build_table_small_cell_flagged_insufficient():
    table = build_table(TrialCounts(make_log([1, 1, -1, 1])), min_count=100)
    cell = table.cells[("a", "b", "a", "b")]
    assert cell.count == 4
    assert cell.estimate == pytest.approx(0.5)
    assert cell.standard_error == pytest.approx(math.sqrt((1 - 0.25) / 4))
    assert not cell.sufficient


def test_build_table_two_cells():
    log = make_log([1, 1, -1], b=[1, 1, 2], br=[1, 1, 2])
    table = build_table(TrialCounts(log), min_count=1)
    assert len(table.cells) == 2
    assert table.cells[("a", "b", "a", "b")].count == 2
    assert table.cells[("a", "b2", "a", "b2")].count == 1
    assert table.cells[("a", "b2", "a", "b2")].estimate == -1.0


def test_table_estimate_bounds_and_se():
    table = build_table(TrialCounts(make_log([1] * 150)), min_count=100)
    cell = table.cells[("a", "b", "a", "b")]
    assert cell.estimate == 1.0
    assert cell.standard_error == 0.0
    assert cell.sufficient


# ----------------------------------------------------------------------
# CH probability estimates
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


def estimate_ch_probs(log, a, b, a_r, b_r):
    """Empirical (p12, p1, p2) for one quadruple, one full mask scan per
    cell and per marginal: the oracle of ``p12_table`` and
    ``marginal_p1``/``marginal_p2``.

    p12 is the both-plus fraction within the cell; the marginals are
    p1(a | b_r) and p2(b | a_r), each taken over the trials with the
    given local setting and far retarded setting, whatever the others.
    """
    ids = log.ids()
    key = (a, b, a_r, b_r)
    if not set(key) <= set(ids):
        raise MissingCellError(key)
    ia, ib, iar, ibr = (ids.index(s) for s in key)

    def plus_fraction(mask, plus):
        n = int(mask.sum())
        if n == 0:
            raise MissingCellError(key)
        p = int((plus & mask).sum()) / n
        return p, math.sqrt(max(0.0, p * (1.0 - p)) / n), n

    cell = (log.a == ia) & (log.b == ib) & (log.a_r == iar) & (log.b_r == ibr)
    return ChProbEstimate(
        *plus_fraction(cell, (log.outcome_1 == 1) & (log.outcome_2 == 1)),
        *plus_fraction((log.a == ia) & (log.b_r == ibr), log.outcome_1 == 1),
        *plus_fraction((log.b == ib) & (log.a_r == iar), log.outcome_2 == 1),
    )


def test_estimate_ch_probs_all_plus():
    log = make_log([1] * 10, lam=None)
    est = estimate_ch_probs(log, "a", "b", "a", "b")
    assert est.p12 == 1.0 and est.p1 == 1.0 and est.p2 == 1.0


def test_estimate_ch_probs_missing_cell():
    log = make_log([1])
    with pytest.raises(MissingCellError):
        estimate_ch_probs(log, "a", "b", "b", "b")


def test_estimate_ch_probs_quantum_antiparallel():
    rng = np.random.default_rng(5)
    n = 200_000
    o1, o2 = QUANTUM.sample_pairs(0.4, 0.4, rng, n)
    palette = (SettingLabel("a", 0.4), SettingLabel("b", 0.4))
    log = TrialLog(
        palette=palette,
        t1=np.zeros(n), t2=np.zeros(n),
        a=np.zeros(n, dtype=int), b=np.ones(n, dtype=int),
        a_r=np.zeros(n, dtype=int), b_r=np.ones(n, dtype=int),
        outcome_1=o1, outcome_2=o2,
    )
    est = estimate_ch_probs(log, "a", "b", "a", "b")
    assert est.p12 <= 5 * max(est.p12_se, 1e-9)  # p(+,+) = 0 at equal angles
    assert est.p1 == pytest.approx(0.5, abs=5 * est.p1_se)


def test_estimate_ch_probs_hardy_against_quadrature():
    rng = np.random.default_rng(6)
    n = 200_000
    a_ang, b_ang, ar_ang, br_ang = rng.uniform(0, math.tau, 4)
    lam = HARDY.hidden.sample(rng, n)
    o1 = HARDY.outcome_A(a_ang, br_ang, lam)
    o2 = HARDY.outcome_B(b_ang, ar_ang, lam)
    palette = (
        SettingLabel("a", a_ang), SettingLabel("b", b_ang),
        SettingLabel("ar", ar_ang), SettingLabel("br", br_ang),
    )
    log = TrialLog(
        palette=palette,
        t1=np.zeros(n), t2=np.zeros(n),
        a=np.full(n, 0), b=np.full(n, 1),
        a_r=np.full(n, 2), b_r=np.full(n, 3),
        outcome_1=o1, outcome_2=o2, lam=lam,
    )
    est = estimate_ch_probs(log, "a", "b", "ar", "br")
    p12, p1, p2 = quadrature_ch_probs(HARDY, a_ang, b_ang, ar_ang, br_ang, 100_000)
    assert abs(est.p12 - p12) <= 5 * est.p12_se + 1e-4
    assert abs(est.p1 - p1) <= 5 * est.p1_se + 1e-4
    assert abs(est.p2 - p2) <= 5 * est.p2_se + 1e-4


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------


TRIAL_HEADER = ["trial_id", "t1", "t2", "a", "b", "a_r", "b_r", "A", "B", "lambda"]


def oracle_write_trial_log(log, path):
    """Row-by-row ``csv.writer`` trial log: the reference for the bytes."""
    ids = log.ids()
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_HEADER)
        lam = log.lam
        for i in range(len(log)):
            writer.writerow(
                [
                    i,
                    repr(float(log.t1[i])),
                    repr(float(log.t2[i])),
                    ids[int(log.a[i])],
                    ids[int(log.b[i])],
                    ids[int(log.a_r[i])],
                    ids[int(log.b_r[i])],
                    int(log.outcome_1[i]),
                    int(log.outcome_2[i]),
                    "" if lam is None else repr(float(lam[i])),
                ]
            )


def oracle_read_trial_log(path, palette=None):
    """Row-by-row ``csv.reader`` trial log: the reference for the columns
    and for the palette order (first seen, row by row over a, b, a_r, b_r)."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == TRIAL_HEADER
        rows = [row for row in reader if row]
    ids = {}
    for row in rows:
        for c in (3, 4, 5, 6):
            ids.setdefault(row[c], None)
    labels = tuple(
        SettingLabel(i, palette[i] if palette and i in palette else 0.0) for i in ids
    )
    index = {lbl.id: k for k, lbl in enumerate(labels)}
    any_lam = any(row[9] != "" for row in rows)
    return TrialLog(
        palette=labels,
        t1=np.array([float(row[1]) for row in rows]),
        t2=np.array([float(row[2]) for row in rows]),
        a=np.array([index[row[3]] for row in rows], dtype=np.int64),
        b=np.array([index[row[4]] for row in rows], dtype=np.int64),
        a_r=np.array([index[row[5]] for row in rows], dtype=np.int64),
        b_r=np.array([index[row[6]] for row in rows], dtype=np.int64),
        outcome_1=np.array([int(row[7]) for row in rows], dtype=np.int8),
        outcome_2=np.array([int(row[8]) for row in rows], dtype=np.int8),
        lam=np.array([float(row[9]) if row[9] else math.nan for row in rows])
        if any_lam else None,
    )


def bit_equal(x, y):
    """Equal bit for bit, except that every NaN counts as one value (the
    log writes each NaN as ``nan``)."""
    x, y = (np.where(np.isnan(v), np.nan, v) for v in (x, y))
    return x.dtype == y.dtype and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def assert_logs_equal(back, ref):
    """Same palette (ids, order, angles) and bit-equal columns."""
    assert back.palette == ref.palette
    for col in ("t1", "t2"):
        assert bit_equal(getattr(back, col), getattr(ref, col))
    for col in ("a", "b", "a_r", "b_r", "outcome_1", "outcome_2"):
        assert getattr(back, col).dtype == getattr(ref, col).dtype
        assert np.array_equal(getattr(back, col), getattr(ref, col))
    assert (back.lam is None) == (ref.lam is None)
    if ref.lam is not None:
        assert bit_equal(back.lam, ref.lam)


def _label_column(kind: str, labels, indices) -> np.ndarray:
    """The stored label column of a ``kind`` built over ``labels``."""
    n = len(indices)
    if kind == "TrialLog":
        ones = np.ones(n, np.int8)
        return TrialLog(labels, np.zeros(n), np.zeros(n), indices, indices, indices, indices,
                        ones, ones).a
    if kind == "SwitchTable":
        return SwitchTable(np.arange(1.0, n + 1), indices, labels).label_indices
    return InterventionStream(1, np.zeros(n), 0.0, indices, labels).label_indices


LABEL_COLUMNS = {"TrialLog": "label", "SwitchTable": "switch label",
                 "InterventionStream": "intervention label"}


@pytest.mark.parametrize("kind", LABEL_COLUMNS)
@pytest.mark.parametrize("bad", [-1, 2, 256])
def test_trial_log_refuses_a_label_index_outside_its_palette(kind, bad):
    # labels are narrowed to one byte here, so an index outside the
    # palette must be refused before the cast could wrap it into range;
    # every label column is checked by one rule
    assert _label_column(kind, (LA, LB), [1, 0]).tolist() == [1, 0]
    with pytest.raises(ValueError, match=rf"^{LABEL_COLUMNS[kind]} index out of range "
                                         "for a palette of 2$"):
        _label_column(kind, (LA, LB), [0, bad])


@pytest.mark.parametrize("kind", LABEL_COLUMNS)
@pytest.mark.parametrize("size,dtype", [(255, np.uint8), (256, np.uint16)])
def test_label_columns_narrow_to_label_dtype(kind, size, dtype):
    labels = [SettingLabel(f"l{k}", k / size) for k in range(size)]
    column = _label_column(kind, labels, np.arange(size))
    assert column.dtype == dtype and column.tolist() == list(range(size))


def test_trial_log_roundtrip(tmp_path):
    log = make_log([1, -1, 1])
    path = tmp_path / "trials.csv"
    write_trial_log(log, path)
    back = read_trial_log(path, palette={"a": 0.0, "b": 1.0})
    assert len(back) == 3
    assert np.array_equal(back.outcome_2, log.outcome_2)
    assert back.palette[back.a[0]].angle == 0.0
    assert bit_equal(back.t1, log.t1) and bit_equal(back.t2, log.t2)
    assert bit_equal(back.lam, log.lam)


def test_trial_log_blank_lambda_for_quantum(tmp_path):
    n = 5
    palette = (SettingLabel("a", 0.0), SettingLabel("b", 0.0))
    log = TrialLog(
        palette=palette,
        t1=np.zeros(n), t2=np.zeros(n),
        a=np.zeros(n, dtype=int), b=np.ones(n, dtype=int),
        a_r=np.zeros(n, dtype=int), b_r=np.ones(n, dtype=int),
        outcome_1=np.ones(n, dtype=np.int8), outcome_2=np.ones(n, dtype=np.int8),
    )
    path = tmp_path / "trials.csv"
    write_trial_log(log, path)
    text = path.read_text().splitlines()
    assert text[1].endswith(",")  # empty lambda column
    back = read_trial_log(path)
    assert back.lam is None


@pytest.mark.parametrize("with_lam", [False, True])
def test_read_trial_log_under_bytes_default_encoding(tmp_path, monkeypatch, with_lam):
    # numpy 1.23-1.26 default loadtxt to encoding="bytes", which hands the
    # converters latin-1 bytes; the reader must still see str ids and blanks
    loadtxt = np.loadtxt

    def bytes_default(*args, encoding="bytes", **kwargs):
        return loadtxt(*args, encoding=encoding, **kwargs)

    log = make_log([1, -1, 1])
    if not with_lam:
        log.lam = None
    path = tmp_path / "trials.csv"
    write_trial_log(log, path)
    angles = {"a": 0.0, "b": 1.0}
    monkeypatch.setattr(np, "loadtxt", bytes_default)
    back = read_trial_log(path, palette=angles)
    assert_logs_equal(back, oracle_read_trial_log(path, palette=angles))
    assert back.ids() == ("a", "b") and back.palette[back.b[0]].angle == 1.0


# ids csv must quote (comma, quote, line breaks), ids with spaces and a
# comment character
LOG_IDS = ("a", "b2", "a,b", 'x"y', " a b ", "p\nq", "r\rs", "#c")
LOG_FLOATS = st_.one_of(
    st_.floats(allow_nan=False),
    st_.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300, 1e-300, 3.0, -7.0, 1e16]),
)


@st_.composite
def trial_logs(draw, outcome=st_.integers(-128, 127)):
    ids = draw(st_.lists(st_.sampled_from(LOG_IDS), min_size=1, max_size=5, unique=True))
    n = draw(st_.one_of(st_.just(0), st_.just(1), st_.integers(2, 40)))
    labels = st_.lists(st_.integers(0, len(ids) - 1), min_size=n, max_size=n)
    times = st_.lists(LOG_FLOATS, min_size=n, max_size=n)
    outcomes = st_.lists(outcome, min_size=n, max_size=n)
    lam = draw(st_.one_of(
        st_.none(),
        times,
        st_.lists(st_.one_of(LOG_FLOATS, st_.just(math.nan)), min_size=n, max_size=n),
    ))
    return TrialLog(
        palette=[SettingLabel(i, 0.25 * k) for k, i in enumerate(ids)],
        t1=np.array(draw(times), dtype=np.float64),
        t2=np.array(draw(times), dtype=np.float64),
        a=draw(labels), b=draw(labels), a_r=draw(labels), b_r=draw(labels),
        outcome_1=draw(outcomes), outcome_2=draw(outcomes),
        lam=None if lam is None else np.array(lam, dtype=np.float64),
    )


def spy_csv_parse():
    """``estimation._parse_csv``, still parsing, with a record of its calls."""
    return mock.patch.object(estimation, "_parse_csv", wraps=estimation._parse_csv)


@settings(max_examples=300, deadline=None)
@given(log=trial_logs(), chunk=st_.integers(1, 8))
def test_trial_log_matches_row_by_row_oracle(log, chunk):
    angles = {lbl.id: lbl.angle for lbl in log.palette}
    with tempfile.TemporaryDirectory() as tmp:
        path, ref = Path(tmp) / "trials.csv", Path(tmp) / "oracle.csv"
        with mock.patch.object(estimation, "CSV_CHUNK", chunk):
            write_trial_log(log, path)
        oracle_write_trial_log(log, ref)
        assert path.read_bytes() == ref.read_bytes()
        oracle = oracle_read_trial_log(ref, palette=angles)
        with spy_csv_parse() as parse:
            back = read_trial_log(path, palette=angles)
        assert not parse.called  # read from the column files
        assert_logs_equal(back, oracle)
        shutil.rmtree(columns_dir(path))
        with spy_csv_parse() as parse:
            assert_logs_equal(read_trial_log(path, palette=angles), oracle)
        assert parse.called
    # the round trip keeps every column; ids come back in first-seen order
    ids, back_ids = np.array(log.ids()), np.array(back.ids())
    for col in ("a", "b", "a_r", "b_r"):
        assert np.array_equal(back_ids[getattr(back, col)], ids[getattr(log, col)])
    assert all(lbl.angle == angles[lbl.id] for lbl in back.palette)
    for col in ("t1", "t2"):
        assert bit_equal(getattr(back, col), getattr(log, col))
    assert np.array_equal(back.outcome_1, log.outcome_1)
    assert np.array_equal(back.outcome_2, log.outcome_2)
    if log.lam is None or len(log) == 0:
        assert back.lam is None
    else:
        assert bit_equal(back.lam, log.lam)


@settings(max_examples=100, deadline=None)
@given(log=trial_logs())
def test_int64_label_column_files_still_load_from_the_columns(log):
    # column directories once stored label indices as int64: with their
    # index sealed over those files they load without parsing the CSV,
    # narrowed to the dtype the CSV parse gives
    angles = {lbl.id: lbl.angle for lbl in log.palette}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trials.csv"
        write_trial_log(log, path)
        folder = columns_dir(path)
        index = json.loads((folder / "index.json").read_text())
        del index["sha256"]
        for name in ("a", "b", "a_r", "b_r"):
            file = folder / f"{name}.npy"
            np.save(file, np.load(file).astype(np.int64))
            index["digests"][name] = hashlib.sha256(file.read_bytes()).hexdigest()
        index["sha256"] = estimation._index_digest(index)
        (folder / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True))
        with spy_csv_parse() as parse:
            back = read_trial_log(path, palette=angles)
        assert not parse.called
        assert_logs_equal(back, estimation._parse_csv(path, angles))
    assert back.a.dtype == np.uint8


def test_csv_parse_narrows_labels_while_parsing(tmp_path):
    # the parsed rows hold uint32 labels and each label column is narrowed
    # as it is copied out: with int64 rows and a copy before narrowing the
    # parse peaked at 4.0x the log it returns, and now at 2.4x
    rng = np.random.default_rng(2)
    n = 20_000
    log = TrialLog(
        palette=[SettingLabel(i, 0.0) for i in ("a", "a2", "b", "b2")],
        t1=rng.uniform(0, 1e4, n), t2=rng.uniform(0, 1e4, n),
        a=rng.integers(0, 4, n), b=rng.integers(0, 4, n),
        a_r=rng.integers(0, 4, n), b_r=rng.integers(0, 4, n),
        outcome_1=rng.choice([-1, 1], n), outcome_2=rng.choice([-1, 1], n),
        lam=rng.uniform(0, 2 * math.pi, n),
    )
    path = tmp_path / "trials.csv"
    write_trial_log(log, path)
    shutil.rmtree(columns_dir(path))
    parsed = []
    peak = traced_peak_mib(lambda: parsed.append(read_trial_log(path)))
    back = parsed[0]
    size = sum(getattr(back, name).nbytes for name in estimation._TRIAL_DTYPE.names)
    assert back.a.dtype == np.uint8 and len(back) == n
    assert peak * 2**20 < 3.0 * size


GARBLED_INDEXES = ("", "{", "[]", "{}", "null", '"index"', '{"sha256": []}')


def alter(path, data, kind):
    """Apply one alteration ``kind`` to a written trial log at ``path``."""
    folder = columns_dir(path)
    if kind == "csv-byte":
        raw = bytearray(path.read_bytes())
        at = data.draw(st_.integers(0, len(raw) - 1))
        raw[at] = data.draw(st_.sampled_from(b"09,-.\r\n\"e").filter(lambda c: c != raw[at]))
        path.write_bytes(bytes(raw))
    elif kind == "index-missing":
        (folder / "index.json").unlink()
    elif kind == "index-garbled":
        text = (folder / "index.json").read_text()
        garbled = data.draw(st_.one_of(
            st_.sampled_from(GARBLED_INDEXES),
            st_.integers(0, len(text) - 1).map(lambda k: text[:k]),
            # one character of the sealed entries, the ids among them
            st_.integers(0, len(text) - 1).filter(lambda k: text[k].isalnum()).map(
                lambda k: text[:k] + ("0" if text[k] != "0" else "1") + text[k + 1:]),
        ))
        (folder / "index.json").write_text(garbled)
    else:
        column = data.draw(st_.sampled_from(sorted(folder.glob("*.npy"))))
        raw = bytearray(column.read_bytes())
        if kind == "column-missing":
            column.unlink()
        elif kind == "column-truncated":
            column.write_bytes(raw[: data.draw(st_.integers(0, len(raw) - 1))])
        else:  # column-bit-flip
            bit = data.draw(st_.integers(0, 8 * len(raw) - 1))
            raw[bit // 8] ^= 1 << (bit % 8)
            column.write_bytes(bytes(raw))


@settings(max_examples=300, deadline=None)
@given(
    log=trial_logs(),
    kind=st_.sampled_from(["csv-byte", "index-missing", "index-garbled", "column-missing",
                           "column-truncated", "column-bit-flip"]),
    data=st_.data(),
)
def test_altered_trial_log_falls_back_to_the_csv(log, kind, data):
    # whatever is altered, the read is the CSV's: its log, or its error
    angles = {lbl.id: lbl.angle for lbl in log.palette}
    with tempfile.TemporaryDirectory() as tmp:
        path, alone = Path(tmp) / "trials.csv", Path(tmp) / "alone" / "trials.csv"
        write_trial_log(log, path)
        alter(path, data, kind)
        alone.parent.mkdir()
        shutil.copyfile(path, alone)
        try:
            expected = read_trial_log(alone, palette=angles)
        except ValueError:
            expected = None
        with spy_csv_parse() as parse:
            if expected is None:
                with pytest.raises(ValueError, match=re.escape(str(path))):
                    read_trial_log(path, palette=angles)
            else:
                assert_logs_equal(read_trial_log(path, palette=angles), expected)
        assert parse.called


def test_lambda_blank_in_some_rows_reads_nan(tmp_path):
    path = tmp_path / "trials.csv"
    rows = ["0,0.0,0.0,a,b,a,b,1,-1,0.5", "1,1.0,1.0,a,b,a,b,1,1,", "2,2.0,2.0,a,b,a,b,-1,1,nan"]
    path.write_text("\r\n".join([",".join(TRIAL_HEADER), *rows, ""]), newline="")
    back = read_trial_log(path)
    assert bit_equal(back.lam, np.array([0.5, math.nan, math.nan]))
    assert_logs_equal(back, oracle_read_trial_log(path))


@settings(max_examples=200, deadline=None)
@given(log=trial_logs(outcome=st_.sampled_from([-1, 1])), min_count=st_.integers(1, 4))
def test_p12_table_and_marginals_match_mask_scan_oracle(log, min_count):
    ids = log.ids()
    counts = TrialCounts(log)
    table = p12_table(counts, min_count)
    assert set(table.cells) == {
        tuple(ids[k] for k in q) for q in zip(log.a, log.b, log.a_r, log.b_r)
    }
    for key, cell in table.cells.items():
        est = estimate_ch_probs(log, *key)
        assert (cell.estimate, cell.standard_error, cell.count) == (
            est.p12, est.p12_se, est.p12_count)
        assert cell.sufficient == (est.p12_count >= min_count)
        assert marginal_p1(counts, key[0], key[3]) == (est.p1, est.p1_se, est.p1_count)
        assert marginal_p2(counts, key[1], key[2]) == (est.p2, est.p2_se, est.p2_count)
    for column, marginal in ((log.a, marginal_p1), (log.b, marginal_p2)):
        for unused in sorted(set(range(len(ids))) - set(column.tolist())):
            for far in ids:
                with pytest.raises(MissingCellError):
                    marginal(counts, ids[unused], far)


def test_marginals_of_an_unknown_label_are_missing_cells():
    log = make_log([1, -1])
    assert "zz" not in log.ids()
    counts = TrialCounts(log)
    for label, far in (("zz", "b"), ("a", "zz")):
        with pytest.raises(MissingCellError, match="zz"):
            marginal_p1(counts, label, far)
    for label, far in (("zz", "a"), ("b", "zz")):
        with pytest.raises(MissingCellError, match="zz"):
            marginal_p2(counts, label, far)


def test_marginals_are_conditioned_on_the_far_retarded_setting():
    # station 1 answers +1 only where station 2's retarded setting is b;
    # station 2 answers +1 only where station 1's retarded setting is a
    log = make_log([1, -1, 1, -1], br=[1, 1, 2, 2], ar=[0, 2, 0, 2])
    log.outcome_1[:] = [1, 1, -1, -1]
    counts = TrialCounts(log)
    assert marginal_p1(counts, "a", "b") == (1.0, 0.0, 2)
    assert marginal_p1(counts, "a", "b2") == (0.0, 0.0, 2)
    assert marginal_p2(counts, "b", "a") == (1.0, 0.0, 2)
    assert marginal_p2(counts, "b", "b2") == (0.0, 0.0, 2)
    with pytest.raises(MissingCellError, match=r"\('a', '\*', '\*', 'a'\)"):
        marginal_p1(counts, "a", "a")  # no trial has b_r = a


def result_of(fn):
    """``fn()``'s value, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(log=trial_logs(outcome=st_.sampled_from([-1, 1])), min_count=st_.integers(1, 4))
def test_count_tensor_statistics_match_log_scan_oracles(log, min_count):
    counts = TrialCounts(log)
    assert counts.ids == log.ids()
    assert np.array_equal(counts.cells, oracle_quadruple_counts(log))
    table = build_table(counts, min_count)
    expected = oracle_build_table(log, min_count)
    assert list(table.cells.items()) == list(expected.items())  # values and key order
    # the octuples of every quartet whose ids come in palette order, cycled
    ids = log.ids()
    for i in range(len(ids)):
        quartet = dict(zip(("a", "a2", "b", "b2"), (ids * 4)[i:i + 4]))
        assert _complete_octuples(counts, quartet) == oracle_octuples(set(expected), quartet)
    p12 = p12_table(counts, min_count)
    assert list(p12.cells) == list(expected)
    for key, cell in p12.cells.items():
        est = estimate_ch_probs(log, *key)
        assert cell == Correlation(est.p12, est.p12_se, est.p12_count, est.p12_count >= min_count)
    for label in log.ids() + ("zz",):
        for far in log.ids() + ("zz",):
            for station, marginal in ((1, marginal_p1), (2, marginal_p2)):
                assert result_of(lambda: marginal(counts, label, far)) == result_of(
                    lambda: oracle_marginal(log, station, label, far))
    assert result_of(lambda: classify_fractions(counts)) == result_of(
        lambda: oracle_classify_fractions(log))
    if len(log):
        assert list(classify_fractions(counts)) == list(oracle_classify_fractions(log))
    weights = empirical_weights(counts)
    assert list(weights.items()) == list(oracle_empirical_weights(log).items())
    check = independence_check(counts)
    assert (None if check is None else (check.statistic, check.dof)) == oracle_independence(log)


@pytest.mark.parametrize("bad", [0, 5])
@pytest.mark.parametrize("station", [1, 2])
def test_counts_refuse_an_outcome_other_than_plus_or_minus_one(bad, station):
    log = make_log([1, -1, 1, 1, -1])
    column = log.outcome_1 if station == 1 else log.outcome_2
    column[[2, 4]] = bad
    with pytest.raises(ValueError, match=r"2 trial\(s\) with an outcome other than "
                                         r"\+1 or -1, the first at trial index 2"):
        TrialCounts(log)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize(
    "name,model",
    [(p.name, None) for p in sorted(CONFIG_DIR.glob("*.ini"))]
    + [("fast_random_switching.ini", "quantum-singlet")],
)
def test_scenario_trial_log_matches_oracle(tmp_path, name, model):
    config = replace(load_config(CONFIG_DIR / name), n_trials=5000)
    if model is not None:
        config = replace(config, model=model)
    result = run_scenario(config)
    paths = result.write_outputs(tmp_path / "out")
    oracle_write_trial_log(result.log, tmp_path / "oracle.csv")
    assert paths["trials"].read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert_logs_equal(read_trial_log(paths["trials"]),
                      oracle_read_trial_log(tmp_path / "oracle.csv"))


GOOD_ROW = "0,1.0,1.0,a,b,a,b,1,-1,\r\n"


@pytest.mark.parametrize(
    "row",
    [
        "0,1.0,1.0,a,b,a,b,1,-1\r\n",  # no lambda column
        "0,1.0,1.0,a,b\r\n",
        "0,soon,1.0,a,b,a,b,1,-1,\r\n",
        "0,1.0,1.0,a,b,a,b,1.5,-1,\r\n",
        "0,1.0,1.0,a,b,a,b,1,one,\r\n",
        "0,1.0,1.0,a,b,a,b,1,-1,big\r\n",
        "0,1.0,1.0,a,,a,b,1,-1,\r\n",
    ],
    ids=["short-row", "truncated-row", "non-numeric-time", "non-integer-outcome",
         "non-numeric-outcome", "non-numeric-lambda", "empty-label"],
)
def test_read_trial_log_malformed_row_names_file(tmp_path, row):
    path = tmp_path / "trials.csv"
    path.write_bytes((",".join(TRIAL_HEADER) + "\r\n" + GOOD_ROW + row).encode())
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_trial_log(path)


def test_read_trial_log_bad_header(tmp_path):
    path = tmp_path / "trials.csv"
    for text in ("", "trial_id,t1\r\n" + GOOD_ROW):
        path.write_text(text)
        with pytest.raises(ValueError, match="expected header"):
            read_trial_log(path)


def test_read_trial_log_header_only_is_empty(tmp_path):
    path = tmp_path / "trials.csv"
    write_trial_log(make_log([], lam=None), path)
    assert path.read_bytes() == (",".join(TRIAL_HEADER) + "\r\n").encode()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_trial_log(path)
    assert len(back) == 0 and back.palette == () and back.lam is None


def test_table_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    outcomes = np.array([int(rng.choice([-1, 1])) for _ in range(600)])
    table = build_table(TrialCounts(make_log(outcomes[0::2] * outcomes[1::2])), min_count=100)
    path = tmp_path / "table.csv"
    write_table(table, path)
    back = read_table(path)
    for key, cell in table.cells.items():
        assert back.cells[key].estimate == cell.estimate  # exact float round trip
        assert back.cells[key].standard_error == cell.standard_error
        assert back.cells[key].count == cell.count
        assert back.cells[key].sufficient == cell.sufficient


_TABLE_IDS = st_.text(st_.characters(codec="ascii", exclude_characters="\x00"), max_size=6)
_TABLE_CELLS = st_.builds(
    Correlation,
    st_.floats(-1.0, 1.0),
    st_.floats(0.0, 1e300) | st_.sampled_from((0.0, 5e-324)),
    st_.integers(1, 2**63),
    st_.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(cells=st_.dictionaries(st_.tuples(*[_TABLE_IDS] * 4), _TABLE_CELLS, max_size=8))
@example(cells={("a,b", '"q"', " s p ", "x\r\ny"): Correlation(-0.0, 5e-324, 1, False),
                ("", "'", ",", '""'): Correlation(0.1 + 0.2, 1e300, 2**63, True)})
def test_table_roundtrip_any_ids_and_numbers_bit_exact(cells):
    # ids with commas, quotes, spaces or line breaks, and any finite numbers,
    # come back from correlations.csv unchanged
    table = CorrelationInput(cells)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "correlations.csv"
        write_table(table, path)
        back = read_table(path)
    assert back.cells.keys() == cells.keys()
    for key, cell in cells.items():
        got = back.cells[key]
        assert got.estimate.hex() == cell.estimate.hex()
        assert got.standard_error.hex() == cell.standard_error.hex()
        assert (got.count, got.sufficient) == (cell.count, cell.sufficient)


def test_read_table_min_count_override(tmp_path):
    table = build_table(TrialCounts(make_log([1, 1, -1, 1])), min_count=1)
    path = tmp_path / "table.csv"
    write_table(table, path)
    strict = read_table(path, min_count=100)
    assert not strict.cells[("a", "b", "a", "b")].sufficient


TABLE_TEXT = "a,b,a_r,b_r,E,SE,count,sufficient\r\na,b,a,b,0.5,0.25,4,0\r\n"


@pytest.mark.parametrize(
    "row,message",
    [
        ("a,b,a,b,0.5,0.25,4", "expected 8 fields, got 7"),
        ("a,b,a,b,0.5,0.25,4,0,9", "expected 8 fields, got 9"),
        ("a,b,a,b2,0.5,0.25,1.5,0", "count must be a positive integer, got '1.5'"),
        ("a,b,a,b2,0.5,0.25,0,0", "count must be a positive integer, got '0'"),
        ("a,b,a,b2,half,0.25,4,0", "E must be a finite number, got 'half'"),
        ("a,b,a,b2,nan,0.25,4,0", "E must be a finite number, got 'nan'"),
        ("a,b,a,b2,0.5,,4,0", "SE must be a finite number, got ''"),
        ("a,b,a,b2,0.5,0.25,4,2", "sufficient must be 0 or 1, got '2'"),
        ("a,b,a,b2,1.5,0.25,4,1", "outside [-1, 1]"),
    ],
    ids=["short-row", "long-row", "non-integer-count", "zero-count", "non-numeric-E",
         "nan-E", "empty-SE", "sufficient-2", "E-out-of-range"],
)
def test_read_table_malformed_row_names_file_and_line(tmp_path, capsys, row, message):
    path = tmp_path / "table.csv"
    path.write_text(TABLE_TEXT + row + "\r\n", newline="")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: ") + ".*" + re.escape(message)):
        read_table(path)
    from rbell.cli import main

    assert main(["check", "--table", str(path), "--ineq", "same_retarded_chsh",
                 "--a=a", "--a2=a", "--b=b", "--b2=b"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {path}: line 3: ")


def test_quantum_outcome_frequencies_normalized_per_cell():
    rng = np.random.default_rng(8)
    n = 50_000
    o1, o2 = QUANTUM.sample_pairs(0.3, 1.7, rng, n)
    freqs = [
        float(np.mean((o1 == s1) & (o2 == s2)))
        for s1 in (1, -1)
        for s2 in (1, -1)
    ]
    assert sum(freqs) == 1.0  # exact: counts partition the cell


def test_se_honesty_coverage():
    # over 200 seeds, |estimate - truth| <= 2 SE must hold at normal rates
    # (long-run coverage of the 2 SE band is ~0.954)
    a, b, ar, br = 0.9, 0.1, 2.0, 5.0
    truth = float(hardy_closed_form_E(a, b, ar, br))
    inside = 0
    for seed in range(1000, 1200):
        est = mc_E(HARDY, a, b, ar, br, n=4_000, seed=seed)
        if abs(est.estimate - truth) <= 2 * est.standard_error:
            inside += 1
    assert inside / 200 >= 0.93


def test_exact_terms_uses_quadrature_without_closed_form():
    model = DeterministicLHV(
        name="no-closed-form",
        hidden=HARDY.hidden,
        outcome_A=HARDY.outcome_A,
        outcome_B=HARDY.outcome_B,
    )
    (e,), singles = exact_terms(model, INEQUALITIES["both_equal"], nodes=50_000)(QUARTET)
    expect = float(hardy_closed_form_E(QUARTET["a"], QUARTET["b"], QUARTET["a"], QUARTET["b"]))
    assert float(e) == pytest.approx(expect, abs=1e-4)
    assert singles == ()


@pytest.mark.parametrize("ineq", list(INEQUALITIES))
@pytest.mark.parametrize("model", [HARDY, QUANTUM, StochasticLHV.from_deterministic(HARDY)],
                         ids=["hardy", "quantum", "lift"])
def test_exact_terms_reads_each_cell_and_the_singles(model, ineq):
    # each term's cell through exact_values in term order, the singles at
    # (a2 | b2r) and (b2 | a2r), and exact_row as their signed sum, bit for bit
    row = INEQUALITIES[ineq]
    rng = np.random.default_rng(5)
    angles = dict(zip(ANGLE_FLAGS, rng.uniform(-7.0, 7.0, (8, 3, 1))))
    angles["b"] = rng.uniform(-7.0, 7.0, 4)  # broadcasts to (3, 4)
    values, singles = exact_terms(model, row)(angles)
    values = list(values)
    quantity = "p12" if row.probability else "E"
    cells = row.cells(angles)
    assert len(values) == len(cells) == len(row.terms)
    for v, cell in zip(values, cells):
        assert np.array_equal(v, exact_values(model, quantity)(*cell)[0])
    if row.probability:
        p1, p2 = exact_values(model, "marginals")(
            angles["a2"], angles["b2"], angles["a2r"], angles["b2r"])
        assert np.array_equal(singles[0], p1) and np.array_equal(singles[1], p2)
    else:
        assert singles == ()
    total = exact_row(model, row)(angles)
    assert total.shape == (3, 4)
    assert np.array_equal(total, row.signed_sum(values, singles))


def test_exact_terms_read_singles_at_the_far_retarded_settings_of_their_cells():
    # each station's +1 probability depends on the far retarded setting, so
    # where the singles are read shows: p1 at b_r = b2r and p2 at a_r = a2r,
    # the far retarded settings of the cells that hold a2 and b2
    model = StochasticLHV(
        name="far-dependent",
        hidden=HiddenSpace.uniform_circle(),
        p1=lambda a, b_r, lam: np.broadcast_to(0.5 + 0.4 * np.cos(b_r), np.shape(lam)),
        p2=lambda b, a_r, lam: np.broadcast_to(0.5 + 0.3 * np.cos(a_r), np.shape(lam)),
    )
    angles = dict(zip(ANGLE_FLAGS, (0.3, 1.1, -0.4, 2.0, 0.5, 0.7, 1.3, math.pi / 3)))
    _, (p1, p2) = exact_terms(model, INEQUALITIES["retarded_ch"], nodes=1_000)(angles)
    assert float(p1) == pytest.approx(0.7, abs=1e-12)  # 0.5 + 0.4 * cos(pi/3)
    assert float(p2) == pytest.approx(0.5 + 0.3 * math.cos(0.7), abs=1e-12)


def test_exact_values_quadrature_matches_closed_forms_on_a_grid():
    # the same broadcast settings through both branches of the dispatch
    bare = DeterministicLHV(
        name="no-closed-form",
        hidden=HARDY.hidden,
        outcome_A=HARDY.outcome_A,
        outcome_B=HARDY.outcome_B,
    )
    a = np.array([[0.2], [1.7]])
    b = np.array([0.0, 2.5, 4.0])
    a_r, b_r = 3.1, np.array([0.5, 1.0, 5.5])
    for quantity in ("E", "p12", "marginals"):
        closed = exact_values(HARDY, quantity)(a, b, a_r, b_r)
        quad = exact_values(bare, quantity, nodes=20_000)(a, b, a_r, b_r)
        assert len(closed) == len(quad) == (2 if quantity == "marginals" else 1)
        for c, q in zip(closed, quad):
            assert q.shape == (2, 3)
            np.testing.assert_allclose(q, np.broadcast_to(c, q.shape), atol=1e-3)
    # one point of the grid is exactly the scalar quadrature
    (e,) = exact_values(bare, "E", nodes=20_000)(a, b, a_r, b_r)
    assert e[1, 2] == quadrature_E(bare, 1.7, 4.0, 3.1, 5.5, nodes=20_000)


def test_exact_values_rejects_nonlocal_model_without_closed_forms():
    p1, p2 = exact_values(QUANTUM, "marginals")(np.zeros(4), 1.0, 0.0, 0.0)
    assert float(p1) == float(p2) == 0.5  # constant closed forms stay scalars

    class SamplerOnly:
        name = "sampler-only"
        is_local = False

    for quantity in ("E", "p12", "marginals"):
        with pytest.raises(UnsupportedModelError):
            exact_values(SamplerOnly(), quantity)

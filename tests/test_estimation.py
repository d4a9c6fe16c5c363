import csv
import math
import os
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from rbell import estimation

from rbell.errors import MissingCellError, UnsupportedModelError
from rbell.estimation import (
    BLOCK_SIZE,
    TrialLog,
    analytic_correlations,
    build_table,
    estimate_ch_probs,
    exact_values,
    mc_E,
    quadrature_ch_probs,
    quadrature_E,
    read_table,
    read_trial_log,
    resolve_workers,
    substream,
    write_table,
    write_trial_log,
)
from rbell.models import (
    DeterministicLHV,
    HiddenSpace,
    StochasticLHV,
    get_model,
    hardy_closed_form_E,
    hardy_singlet,
)
from rbell.scenarios import load_config, run_scenario
from rbell.spacetime import SettingLabel

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


def test_mc_worker_count_invariance(monkeypatch):
    n = 3 * BLOCK_SIZE + 17
    monkeypatch.delenv("RBL_WORKERS", raising=False)
    serial = mc_E(HARDY, 0.3, 1.0, 2.0, 0.5, n=n, seed=9, workers=1)
    threaded = mc_E(HARDY, 0.3, 1.0, 2.0, 0.5, n=n, seed=9, workers=4)
    assert serial == threaded
    monkeypatch.setenv("RBL_WORKERS", "8")
    env_run = mc_E(HARDY, 0.3, 1.0, 2.0, 0.5, n=n, seed=9)
    assert env_run == serial


def test_resolve_workers(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # independent of the host
    monkeypatch.delenv("RBL_WORKERS", raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(4) == 4
    monkeypatch.setenv("RBL_WORKERS", "2")
    assert resolve_workers() == 2
    assert resolve_workers(8) == 2  # env caps explicit requests
    monkeypatch.setenv("RBL_WORKERS", "0")
    assert resolve_workers(8) == 1


def test_resolve_workers_capped_at_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setenv("RBL_WORKERS", "100000")
    assert resolve_workers() == 3
    assert resolve_workers(8) == 3
    assert resolve_workers(2) == 2
    # an explicit request is capped too, without RBL_WORKERS
    monkeypatch.delenv("RBL_WORKERS")
    assert resolve_workers(100_000) == 3


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
    table = build_table(make_log([]))
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
    table = build_table(make_log([1, 1, -1, 1]), min_count=100)
    cell = table.cells[("a", "b", "a", "b")]
    assert cell.count == 4
    assert cell.estimate == pytest.approx(0.5)
    assert cell.standard_error == pytest.approx(math.sqrt((1 - 0.25) / 4))
    assert not cell.sufficient


def test_build_table_two_cells():
    log = make_log([1, 1, -1], b=[1, 1, 2], br=[1, 1, 2])
    table = build_table(log, min_count=1)
    assert len(table.cells) == 2
    assert table.cells[("a", "b", "a", "b")].count == 2
    assert table.cells[("a", "b2", "a", "b2")].count == 1
    assert table.cells[("a", "b2", "a", "b2")].estimate == -1.0


def test_table_estimate_bounds_and_se():
    table = build_table(make_log([1] * 150), min_count=100)
    cell = table.cells[("a", "b", "a", "b")]
    assert cell.estimate == 1.0
    assert cell.standard_error == 0.0
    assert cell.sufficient


# ----------------------------------------------------------------------
# CH probability estimates
# ----------------------------------------------------------------------


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
def trial_logs(draw):
    ids = draw(st_.lists(st_.sampled_from(LOG_IDS), min_size=1, max_size=5, unique=True))
    n = draw(st_.one_of(st_.just(0), st_.just(1), st_.integers(2, 40)))
    labels = st_.lists(st_.integers(0, len(ids) - 1), min_size=n, max_size=n)
    times = st_.lists(LOG_FLOATS, min_size=n, max_size=n)
    outcomes = st_.lists(st_.integers(-128, 127), min_size=n, max_size=n)
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


@settings(max_examples=300, deadline=None)
@given(log=trial_logs(), block=st_.integers(1, 8))
def test_trial_log_matches_row_by_row_oracle(log, block):
    angles = {lbl.id: lbl.angle for lbl in log.palette}
    with tempfile.TemporaryDirectory() as tmp:
        path, ref = Path(tmp) / "trials.csv", Path(tmp) / "oracle.csv"
        with mock.patch.object(estimation, "BLOCK_SIZE", block):
            write_trial_log(log, path)
        oracle_write_trial_log(log, ref)
        assert path.read_bytes() == ref.read_bytes()
        back = read_trial_log(path, palette=angles)
        assert_logs_equal(back, oracle_read_trial_log(ref, palette=angles))
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
    table = build_table(make_log(outcomes[0::2] * outcomes[1::2]), min_count=100)
    path = tmp_path / "table.csv"
    write_table(table, path)
    back = read_table(path)
    for key, cell in table.cells.items():
        assert back.cells[key].estimate == cell.estimate  # exact float round trip
        assert back.cells[key].standard_error == cell.standard_error
        assert back.cells[key].count == cell.count
        assert back.cells[key].sufficient == cell.sufficient


def test_read_table_min_count_override(tmp_path):
    table = build_table(make_log([1, 1, -1, 1]), min_count=1)
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


def test_analytic_correlations_uses_quadrature_without_closed_form():
    model = DeterministicLHV(
        name="no-closed-form",
        hidden=HARDY.hidden,
        outcome_A=HARDY.outcome_A,
        outcome_B=HARDY.outcome_B,
    )
    corr = analytic_correlations(
        model, QUARTET, [("a", "b", "a", "b")], nodes=50_000
    )
    expect = float(hardy_closed_form_E(QUARTET["a"], QUARTET["b"], QUARTET["a"], QUARTET["b"]))
    assert corr.lookup(("a", "b", "a", "b")).estimate == pytest.approx(expect, abs=1e-4)
    assert corr.lookup(("a", "b", "a", "b")).standard_error == 0.0


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

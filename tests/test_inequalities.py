import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from rbell.errors import InsufficientCellError, MissingCellError
from rbell import inequalities
from conftest import exact_input, octuple_cells
from rbell.estimation import BLOCK_SIZE
from rbell.inequalities import (
    ANGLE_FLAGS,
    INEQUALITIES,
    Correlation,
    CorrelationInput,
    Inequality,
    averaged_chsh,
    both_equal_reduction,
    ch_expression,
    ch_identity_check,
    chsh_identity_check,
    local_bounds,
    one_end_equal_chsh,
    retarded_ch,
    retarded_chsh,
    same_retarded_chsh,
)
from rbell.models import get_model, quantum_E

QUARTET = {"a": math.pi / 2, "a2": 0.0, "b": -math.pi / 4, "b2": math.pi / 4}

HARDY = get_model("hardy")
QUANTUM = get_model("quantum")


def hardy_input(angles, octuple):
    return exact_input(HARDY, angles, octuple_cells(*octuple))


def quantum_input(angles, octuple):
    return exact_input(QUANTUM, angles, octuple_cells(*octuple))


def tied_octuple():
    return ("a", "a2", "b", "b2", "a", "a", "b", "b")


# ----------------------------------------------------------------------
# identity checks
# ----------------------------------------------------------------------


def test_chsh_identity_all_sign_assignments():
    result = chsh_identity_check()
    assert result.passed and result.checked == 16
    # independent enumeration
    for x, x2, y, y2 in itertools.product((-1, 1), repeat=4):
        assert x2 * y2 + x2 * y + x * y2 - x * y in (-2, 2)


def test_ch_identity_on_vertices():
    # multilinear expression: extremes sit at the corners of the cube
    for x, y, x2, y2 in itertools.product((0.0, 1.0), repeat=4):
        v = ch_expression(x, y, x2, y2)
        assert v in (-1.0, 0.0)


def test_ch_identity_random_sample():
    result = ch_identity_check(100_000, seed=3)
    assert result.passed


def test_ch_identity_counts_a_short_last_block():
    # 100 001 points end in a block of fewer than BLOCK_SIZE
    assert 100_001 % BLOCK_SIZE
    assert ch_identity_check(100_001, seed=3) == inequalities.IdentityCheckResult(True, 100_001)


def test_ch_identity_stops_at_the_first_failure_in_a_later_block(monkeypatch):
    # a point out of bounds in the second block: the count and the point
    # are global, not block-relative
    index = BLOCK_SIZE + 123
    seen, failed = [0], {}

    def failing(x, y, x2, y2):
        values = ch_expression(x, y, x2, y2)
        i = index - seen[0]
        if 0 <= i < values.size:
            values[i] = 0.5
            failed["point"] = (x[i], y[i], x2[i], y2[i], 0.5)
        seen[0] += values.size
        return values

    monkeypatch.setattr(inequalities, "ch_expression", failing)
    result = ch_identity_check(3 * BLOCK_SIZE, seed=3)
    assert not result.passed
    assert result.checked == index + 1
    assert result.counterexample == failed["point"]
    assert seen[0] == 2 * BLOCK_SIZE


def test_chsh_identity_spot_values():
    x = x2 = y = y2 = 1
    assert x2 * y2 + x2 * y + x * y2 - x * y == 2
    x, x2, y, y2 = 1, -1, 1, -1
    assert x2 * y2 + x2 * y + x * y2 - x * y == -2


def local_extremes(row: Inequality) -> tuple[float, float]:
    """The least and greatest ``signed_sum`` of ``row`` over deterministic
    local strategies, as the paper's theorem reads them: the oracle of
    ``local_bounds``.

    Station 1 answers A(x, v) over the (actual, far retarded) flag pairs
    that the row's cells read after its ties, and station 2 answers
    B(y, u) likewise, so cell (x, y, u, v) is A(x, v) * B(y, u).  Answers
    are +-1, or 0/1 for a probability row, whose singles are read at
    A(a2 | b2r) and B(b2 | a2r); a single that no cell reads is one more
    free answer.
    """
    ids = {flag: flag for flag in ANGLE_FLAGS}
    cells = row.cells(ids)
    single_1 = (row.flag(ids, "a2"), row.flag(ids, "b2r"))
    single_2 = (row.flag(ids, "b2"), row.flag(ids, "a2r"))
    ones = {(x, v) for x, _, _, v in cells} | ({single_1} if row.probability else set())
    twos = {(y, u) for _, y, u, _ in cells} | ({single_2} if row.probability else set())
    answers = (0, 1) if row.probability else (-1, 1)
    sums = []
    for picks_1 in itertools.product(answers, repeat=len(ones)):
        A = dict(zip(sorted(ones), picks_1))
        for picks_2 in itertools.product(answers, repeat=len(twos)):
            B = dict(zip(sorted(twos), picks_2))
            singles = (A[single_1], B[single_2]) if row.probability else ()
            sums.append(row.signed_sum((A[x, v] * B[y, u] for x, y, u, v in cells), singles))
    return min(sums), max(sums)


@pytest.mark.parametrize("name", list(INEQUALITIES))
def test_every_row_keeps_the_bounds_of_every_local_strategy(name):
    # the theorem: no local strategy leaves a row's typed bounds, and
    # some strategy reaches each of them
    row = INEQUALITIES[name]
    assert local_extremes(row) == local_bounds(row) == (row.lower, row.upper)


def test_local_strategies_see_how_retarded_flags_are_wired():
    # retarded_chsh with its second term read at a2r instead of ar: the
    # actual settings are unchanged, so the identity checks pass it, but
    # station 2 then answers three ways and the local range doubles
    row = INEQUALITIES["retarded_chsh"]
    terms = list(row.terms)
    terms[1] = (1.0, ("a2", "b", "a2r", "b2r"))
    assert local_bounds(replace(row, terms=tuple(terms))) == (-4.0, 4.0)


@st_.composite
def rewired_rows(draw):
    """A table row with its terms' retarded flags rewired, random ties
    and random term signs; the actual flags stay those of a term."""
    row = INEQUALITIES[draw(st_.sampled_from(sorted(INEQUALITIES)))]
    terms = tuple(
        (draw(st_.sampled_from((-2.0, -1.0, 1.0, 2.0))),
         (x, y, draw(st_.sampled_from(ANGLE_FLAGS)), draw(st_.sampled_from(ANGLE_FLAGS))))
        for _, (x, y, _, _) in row.terms[:draw(st_.integers(1, len(row.terms)))])
    ties = draw(st_.dictionaries(st_.sampled_from(ANGLE_FLAGS), st_.sampled_from(ANGLE_FLAGS),
                                 max_size=4))
    return replace(row, terms=terms, ties=ties, probability=draw(st_.booleans()))


@settings(max_examples=200, deadline=None)
@given(row=rewired_rows())
def test_local_bounds_match_the_enumeration_oracle(row):
    assert local_bounds(row) == local_extremes(row)


# ----------------------------------------------------------------------
# retarded four-correlation combination
# ----------------------------------------------------------------------


def test_retarded_chsh_zero_everywhere():
    cells = {q: Correlation(0.0) for q in octuple_cells(*tied_octuple())}
    report = retarded_chsh(CorrelationInput(cells), *tied_octuple())
    assert report.value == 0.0
    assert report.verdict == "satisfied"


def test_retarded_chsh_hardy_fixed_retarded_quartet():
    # all four retarded settings pinned to (a, b)
    corr = hardy_input(QUARTET, tied_octuple())
    report = retarded_chsh(corr, *tied_octuple())
    assert report.value == pytest.approx(-math.sqrt(2), abs=1e-12)
    assert report.verdict == "satisfied"


def test_retarded_chsh_quantum_violates():
    corr = quantum_input(QUARTET, tied_octuple())
    report = retarded_chsh(corr, *tied_octuple())
    assert report.value == pytest.approx(-2 * math.sqrt(2), abs=1e-12)
    assert report.verdict == "violated"
    assert report.margin_sigma == math.inf


def test_retarded_chsh_missing_cell_lists_key():
    cells = {q: Correlation(0.0) for q in octuple_cells(*tied_octuple())}
    bad = tied_octuple()[:4] + ("a2", "a", "b", "b")  # ar=a2 cells were not built
    with pytest.raises(MissingCellError) as err:
        retarded_chsh(CorrelationInput(cells), *bad)
    assert err.value.key == ("a2", "b", "a2", "b")


def test_insufficient_cell_rejected():
    cells = {q: Correlation(0.0, 0.01, 5, sufficient=False)
             for q in octuple_cells(*tied_octuple())}
    with pytest.raises(InsufficientCellError):
        retarded_chsh(CorrelationInput(cells), *tied_octuple())


# ----------------------------------------------------------------------
# same-retarded combination
# ----------------------------------------------------------------------


def test_same_retarded_equals_retarded_with_tied_args():
    rng = np.random.default_rng(0)
    for _ in range(100):
        angles = {k: float(v) for k, v in zip(
            ("a", "a2", "b", "b2"), rng.uniform(0, math.tau, 4))}
        corr = hardy_input(angles, tied_octuple())
        r1 = same_retarded_chsh(corr, "a", "a2", "b", "b2")
        r2 = retarded_chsh(corr, *tied_octuple())
        assert r1.value == r2.value  # exact delegation


def test_same_retarded_hardy_quartet_value():
    corr = hardy_input(QUARTET, tied_octuple())
    report = same_retarded_chsh(corr, "a", "a2", "b", "b2")
    assert report.value == pytest.approx(-math.sqrt(2), abs=1e-12)
    assert report.verdict == "satisfied"


def test_same_retarded_hardy_saturates_at_swapped_settings():
    angles = {"a": 0.0, "a2": math.pi / 2, "b": math.pi / 2, "b2": 0.0}
    corr = hardy_input(angles, tied_octuple())
    report = same_retarded_chsh(corr, "a", "a2", "b", "b2")
    assert report.value == pytest.approx(-2.0, abs=1e-12)
    assert report.verdict == "satisfied"  # exactly on the boundary


def test_same_retarded_quantum_quartet_violates():
    corr = quantum_input(QUARTET, tied_octuple())
    report = same_retarded_chsh(corr, "a", "a2", "b", "b2")
    assert report.value == pytest.approx(-2 * math.sqrt(2), abs=1e-12)
    assert report.verdict == "violated"


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------


def test_both_equal_boundary():
    corr = CorrelationInput({("a", "b", "a", "b"): Correlation(-1.0)})
    report = both_equal_reduction(corr, "a", "b")
    assert report.value == -2.0
    assert report.verdict == "satisfied"


def test_both_equal_quantum_parallel():
    angles = {"a": 0.7, "b": 0.7}
    corr = exact_input(QUANTUM, angles, [("a", "b", "a", "b")])
    report = both_equal_reduction(corr, "a", "b")
    assert report.value == -2.0
    assert report.verdict == "satisfied"


def test_both_equal_hardy_quarter_turn():
    angles = {"a": math.pi / 2, "b": 0.0}
    corr = exact_input(HARDY, angles, [("a", "b", "a", "b")])
    report = both_equal_reduction(corr, "a", "b")
    assert report.value == pytest.approx(0.0, abs=1e-12)
    assert report.verdict == "satisfied"


@settings(max_examples=200, deadline=None)
@given(e=st_.floats(-1.0, 1.0))
def test_both_equal_never_constrains(e):
    corr = CorrelationInput({("a", "b", "a", "b"): Correlation(e)})
    assert both_equal_reduction(corr, "a", "b").verdict == "satisfied"


def test_one_end_equal_collapses_for_retarded_independent_models():
    rng = np.random.default_rng(1)
    for _ in range(50):
        ang = {k: float(v) for k, v in zip(
            ("a", "b", "b2", "br", "b2r"), rng.uniform(0, math.tau, 5))}
        quads = [("a", "b2", "a", "b2r"), ("a", "b", "a", "b2r"),
                 ("a", "b2", "a", "br"), ("a", "b", "a", "br")]
        corr = exact_input(QUANTUM, ang, quads)
        report = one_end_equal_chsh(corr, "a", "b", "b2", "br", "b2r")
        assert report.value == pytest.approx(2.0 * float(quantum_E(ang["a"], ang["b2"])), abs=1e-12)
        assert report.verdict == "satisfied"


def test_one_end_equal_quantum_boundary():
    ang = {"a": 0.0, "b": math.pi, "b2": 0.0, "br": 1.0, "b2r": 2.0}
    quads = [("a", "b2", "a", "b2r"), ("a", "b", "a", "b2r"),
             ("a", "b2", "a", "br"), ("a", "b", "a", "br")]
    corr = exact_input(QUANTUM, ang, quads)
    report = one_end_equal_chsh(corr, "a", "b", "b2", "br", "b2r")
    assert report.value == -2.0
    assert report.verdict == "satisfied"


def test_one_end_equal_all_zero():
    cells = {q: Correlation(0.0) for q in
             (("a", "b2", "a", "b2r"), ("a", "b", "a", "b2r"),
              ("a", "b2", "a", "br"), ("a", "b", "a", "br"))}
    report = one_end_equal_chsh(CorrelationInput(cells), "a", "b", "b2", "br", "b2r")
    assert report.value == 0.0 and report.verdict == "satisfied"


# ----------------------------------------------------------------------
# averaged combination
# ----------------------------------------------------------------------


def _full_hardy_input(angles):
    quads = []
    pairs = [("a", "b"), ("a", "b2"), ("a2", "b"), ("a2", "b2")]
    for x, y in pairs:
        for u, v in pairs:
            if u in ("a", "a2") and v in ("b", "b2"):
                quads.append((x, y, u, v))
    return exact_input(HARDY, angles, quads)


def test_averaged_point_mass_reduces_to_retarded():
    corr = _full_hardy_input(QUARTET)
    w = {("a", "b"): 1.0}
    r1 = averaged_chsh(corr, w, "a", "a2", "b", "b2")
    r2 = retarded_chsh(corr, *tied_octuple())
    assert r1.value == pytest.approx(r2.value, abs=1e-15)


def test_averaged_uniform_weights_hardy_quartet():
    corr = _full_hardy_input(QUARTET)
    w = {(u, v): 0.25 for u in ("a", "a2") for v in ("b", "b2")}
    report = averaged_chsh(corr, w, "a", "a2", "b", "b2")
    # independent hand computation of the weighted sum
    expect = 0.0
    for sgn, (x, y) in [(1, ("a2", "b2")), (1, ("a2", "b")), (1, ("a", "b2")), (-1, ("a", "b"))]:
        for (u, v), wt in w.items():
            e = -0.5 * (
                math.cos(QUARTET[x] - QUARTET[v]) + math.cos(QUARTET[u] - QUARTET[y])
            )
            expect += sgn * wt * e
    assert report.value == pytest.approx(expect, abs=1e-12)
    assert report.value == pytest.approx(-math.sqrt(2), abs=1e-12)
    assert abs(report.value) <= 2.0
    assert report.inputs["weights_independent"] == "True"


def test_averaged_quantum_equals_plain_chsh_any_weights():
    quads = []
    pairs = [("a", "b"), ("a", "b2"), ("a2", "b"), ("a2", "b2")]
    for x, y in pairs:
        for u, v in pairs:
            quads.append((x, y, u, v))
    corr = exact_input(QUANTUM, QUARTET, quads)
    w = {("a", "b"): 0.1, ("a", "b2"): 0.2, ("a2", "b"): 0.3, ("a2", "b2"): 0.4}
    report = averaged_chsh(corr, w, "a", "a2", "b", "b2")
    assert report.value == pytest.approx(-2 * math.sqrt(2), abs=1e-12)
    assert report.verdict == "violated"


def test_averaged_weight_validation():
    corr = _full_hardy_input(QUARTET)
    with pytest.raises(ValueError):
        averaged_chsh(corr, {("a", "b"): 0.7}, "a", "a2", "b", "b2")
    with pytest.raises(ValueError):
        averaged_chsh(corr, {("a", "b"): 1.5, ("a", "b2"): -0.5}, "a", "a2", "b", "b2")


# ----------------------------------------------------------------------
# probability form
# ----------------------------------------------------------------------


def test_retarded_ch_zero_probabilities():
    cells = {q: Correlation(0.0) for q in octuple_cells(*tied_octuple())}
    report = retarded_ch(cells, 0.0, 0.0, *tied_octuple())
    assert report.value == 0.0
    assert report.verdict == "satisfied"  # upper boundary


def test_retarded_ch_quantum_quartet_violates():
    def p12(x, y):
        return (1.0 - math.cos(QUARTET[x] - QUARTET[y])) / 4.0

    cells = {
        q: Correlation(p12(q[0], q[1])) for q in octuple_cells(*tied_octuple())
    }
    report = retarded_ch(cells, 0.5, 0.5, *tied_octuple())
    assert report.value == pytest.approx(-(1 + math.sqrt(2)) / 2, abs=1e-12)
    assert report.value < -1.0
    assert report.verdict == "violated"


def test_retarded_ch_hardy_random_octuples_bounded():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a, a2, b, b2, ar, a2r, br, b2r = rng.uniform(0, math.tau, 8)
        angles = {"a": a, "a2": a2, "b": b, "b2": b2,
                  "ar": ar, "a2r": a2r, "br": br, "b2r": b2r}
        octuple = ("a", "a2", "b", "b2", "ar", "a2r", "br", "b2r")
        cells = {}
        for q in octuple_cells(*octuple):
            e = float(HARDY.closed_form_E(*(angles[k] for k in q)))
            cells[q] = Correlation((1.0 + e) / 4.0)
        report = retarded_ch(cells, 0.5, 0.5, *octuple)
        assert -1.0 - 1e-9 <= report.value <= 1e-9


def test_retarded_ch_rejects_out_of_range_probability():
    cells = {q: Correlation(0.2) for q in octuple_cells(*tied_octuple())}
    with pytest.raises(ValueError):
        retarded_ch(cells, -0.1, 0.5, *tied_octuple())


def test_ch_chsh_consistency_identity():
    # with p12 = (1+E)/4 and half marginals, CH = (CHSH - 2) / 4
    rng = np.random.default_rng(12)
    for _ in range(100):
        e = rng.uniform(-1, 1, 4)
        chsh_value = e[0] + e[1] + e[2] - e[3]
        quads = octuple_cells(*tied_octuple())
        cells = {q: Correlation((1.0 + e[i]) / 4.0) for i, q in enumerate(quads)}
        corr_cells = {q: Correlation(e[i]) for i, q in enumerate(quads)}
        ch = retarded_ch(cells, 0.5, 0.5, *tied_octuple())
        chsh = retarded_chsh(CorrelationInput(corr_cells), *tied_octuple())
        assert ch.value == pytest.approx((chsh.value - 2.0) / 4.0, abs=1e-12)
        assert chsh.value == pytest.approx(chsh_value, abs=1e-12)


def test_ch_violation_needs_both_ends_changed():
    # one unchanged end collapses the quantum combination into [-1, 0]
    deg = math.pi / 180
    grid = np.arange(0.0, math.tau, deg)

    # a2 == a: value = 2 p12(a, b2) - 1, scan a - b2 at one-degree steps
    v = 2.0 * (1.0 - np.cos(grid)) / 4.0 - 1.0
    assert np.all(v >= -1.0 - 1e-12) and np.all(v <= 1e-12)

    # b2 == b: value = 2 p12(a2, b) - 1
    v = 2.0 * (1.0 - np.cos(grid)) / 4.0 - 1.0
    assert np.all(v >= -1.0 - 1e-12) and np.all(v <= 1e-12)

    # spot-check the collapse against the full evaluator on a coarse 3-angle grid
    coarse = np.arange(0.0, math.tau, math.pi / 12)
    for a in coarse:
        for b in coarse[::3]:
            for b2 in coarse[::3]:
                angles = {"a": a, "a2": a, "b": b, "b2": b2}
                cells = {}
                for q in octuple_cells("a", "a2", "b", "b2", "a", "a", "b", "b"):
                    p = (1.0 - math.cos(angles[q[0]] - angles[q[1]])) / 4.0
                    cells[q] = Correlation(p)
                report = retarded_ch(cells, 0.5, 0.5, "a", "a2", "b", "b2",
                                     "a", "a", "b", "b")
                assert -1.0 - 1e-12 <= report.value <= 1e-12


# ----------------------------------------------------------------------
# verdict machinery
# ----------------------------------------------------------------------


def test_statistical_verdict_bands():
    quads = octuple_cells(*tied_octuple())
    se = 0.05
    combined = 2 * se  # quadrature over four equal errors

    def input_with(total):
        # cells (x, x, x, -x) make the combination equal 4x
        x = total / 4.0
        cells = {q: Correlation(x, se, 1000) for q in quads[:3]}
        cells[quads[3]] = Correlation(-x, se, 1000)
        return CorrelationInput(cells)

    # inside the bounds: satisfied
    r = retarded_chsh(input_with(1.6), *tied_octuple())
    assert r.verdict == "satisfied" and r.margin_sigma < 0

    # outside but within 3 combined sigma: inconclusive
    r = retarded_chsh(input_with(2.0 + 2 * combined), *tied_octuple())
    assert r.verdict == "inconclusive"
    assert 0 < r.margin_sigma < 3

    # outside by more than 3 combined sigma: violated
    r = retarded_chsh(input_with(2.0 + 4 * combined), *tied_octuple())
    assert r.verdict == "violated"
    assert r.margin_sigma > 3


def test_analytic_margin_is_infinite():
    corr = hardy_input(QUARTET, tied_octuple())
    report = same_retarded_chsh(corr, "a", "a2", "b", "b2")
    assert report.margin_sigma == -math.inf
    assert report.combined_se == 0.0


def test_report_serialization_roundtrip():
    corr = quantum_input(QUARTET, tied_octuple())
    report = retarded_chsh(corr, *tied_octuple())
    data = json.loads(json.dumps(report.to_dict()))
    assert data["name"] == "retarded_chsh"
    assert data["value"] == report.value
    assert data["verdict"] == "violated"
    assert data["violated_bound"] == "lower"
    assert data["inputs"]["a2r"] == "a"
    assert set(data) == {
        "name", "value", "lower", "upper", "verdict",
        "margin_sigma", "combined_se", "violated_bound", "inputs",
    }


def test_correlation_validation():
    with pytest.raises(ValueError):
        Correlation(1.5)
    with pytest.raises(ValueError):
        Correlation(0.0, -0.1)
    # a NaN would pass both range checks if written as "outside"
    with pytest.raises(ValueError):
        Correlation(math.nan)
    with pytest.raises(ValueError):
        Correlation(0.0, math.nan)

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

from rbell.errors import StreamFormatError, UndefinedTimeError
from rbell.estimation import TrialLog
from rbell.scenarios import classify_fractions
from rbell.spacetime import (
    EqualityClass,
    Geometry,
    InterventionStream,
    SettingLabel,
    SettingSchedule,
    SwitchTable,
    load_interventions,
    normalize_angle,
    parse_angle,
)

A = SettingLabel("a", 0.0)
A2 = SettingLabel("a2", math.pi / 2)
B = SettingLabel("b", -math.pi / 4)
B2 = SettingLabel("b2", math.pi / 4)


def geom(L=2.0, c=1.0, t1=6.0, t2=6.0, t0=0.0):
    return Geometry(separation=L, signal_speed=c, t1=t1, t2=t2, t0=t0)


# ----------------------------------------------------------------------
# Scalar oracles: one intervention per object, one trial per call
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Intervention:
    """One externally sourced setting change, decided at ``decision_time``
    and in force from ``decision_time + delay``."""

    station: int
    decision_time: float
    delay: float
    new_label: SettingLabel
    source_tag: str = ""

    def __post_init__(self) -> None:
        if self.station not in (1, 2):
            raise ValueError("station must be 1 or 2")
        if not math.isfinite(self.decision_time):
            raise ValueError("decision time must be finite")
        if not math.isfinite(self.delay):
            raise ValueError("delay must be finite")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")


def from_interventions(station, interventions):
    """A stream of row objects, with labels in order of first use."""
    labels, index_of, idxs = [], {}, []
    for iv in interventions:
        assert iv.station == station
        if iv.new_label.id not in index_of:
            index_of[iv.new_label.id] = len(labels)
            labels.append(iv.new_label)
        idxs.append(index_of[iv.new_label.id])
    return InterventionStream(
        station,
        np.array([iv.decision_time for iv in interventions], dtype=np.float64),
        np.array([iv.delay for iv in interventions], dtype=np.float64),
        np.array(idxs, dtype=np.int64),
        labels,
    )


def stream1(*interventions):
    return from_interventions(1, interventions)


def load_rows(path, palette, station):
    """Row-by-row stream-file reader: one :class:`Intervention` per row of
    ``station``, made into a stream.  Rows of the other station get every
    check but the label lookup."""
    header_names = ["station", "decision_time", "delay", "label", "source_tag"]
    path = Path(path)
    out = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != header_names:
            raise StreamFormatError(f"{path}: expected header {','.join(header_names)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 5:
                raise StreamFormatError(f"{path}:{lineno}: expected 5 columns")
            try:
                st = int(row[0])
                decision = float(row[1])
                delay = float(row[2])
            except ValueError as exc:
                raise StreamFormatError(f"{path}:{lineno}: {exc}") from None
            if st not in (1, 2):
                raise StreamFormatError(f"{path}:{lineno}: station must be 1 or 2")
            label = None
            if st == station:
                label_id = row[3].strip()
                if label_id not in palette:
                    raise StreamFormatError(f"{path}:{lineno}: unknown label {label_id!r}")
                label = palette[label_id]
            try:
                iv = Intervention(st, decision, delay, label, row[4].strip())
            except ValueError as exc:
                raise StreamFormatError(f"{path}:{lineno}: {exc}") from None
            if st == station:
                out.append(iv)
    return from_interventions(station, out)


def simple_retarded(schedule, t_meas, geometry):
    """Far-station setting one light-crossing time before ``t_meas``."""
    return schedule.value_at(t_meas - geometry.retardation)


def predictive_retarded(schedule, t_target, t_observer_meas, geometry):
    """Far-station setting predicted for ``t_target`` from the observer's
    past cone: interventions decided after ``t_observer_meas - L/c`` are
    dropped."""
    return schedule.predictive_value_at(t_target, t_observer_meas - geometry.retardation)


def classify_trial(a, a_r, b, b_r):
    """Compare each station's actual setting with its retarded value (by id)."""
    eq1 = a.id == a_r.id
    eq2 = b.id == b_r.id
    if eq1 and eq2:
        return EqualityClass.BOTH_EQUAL
    if eq1:
        return EqualityClass.ONLY_1_EQUAL
    if eq2:
        return EqualityClass.ONLY_2_EQUAL
    return EqualityClass.NEITHER_EQUAL


# ----------------------------------------------------------------------
# labels, angles, geometry
# ----------------------------------------------------------------------


def test_label_angle_normalized():
    assert SettingLabel("x", -math.pi / 4).angle == pytest.approx(7 * math.pi / 4)
    assert SettingLabel("x", 2 * math.tau + 0.5).angle == pytest.approx(0.5)


@given(st_.floats(-1e6, 1e6))
def test_normalize_angle_range(x):
    a = normalize_angle(x)
    assert 0.0 <= a < math.tau


@pytest.mark.parametrize(
    "text,expected",
    [
        ("pi", math.pi),
        ("-pi", -math.pi),
        ("pi/4", math.pi / 4),
        ("-pi/4", -math.pi / 4),
        ("3pi/8", 3 * math.pi / 8),
        ("2*pi/3", 2 * math.pi / 3),
        ("0.5", 0.5),
        ("-1.25e-1", -0.125),
    ],
)
def test_parse_angle(text, expected):
    assert parse_angle(text) == pytest.approx(expected, abs=0.0)


@pytest.mark.parametrize(
    "text",
    ["two pies", "pi/0", "3pi/0.0", "-pi/0", "2*pi/ 0", "nan", "-inf", "1e400",
     pytest.param("9" * 400 + "pi", id="overflowing-pi-multiple")],
)
def test_parse_angle_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_angle(text)


def test_geometry_invariants():
    with pytest.raises(ValueError):
        Geometry(separation=-1.0, signal_speed=1.0, t1=6, t2=6, t0=0)
    with pytest.raises(ValueError):
        Geometry(separation=1.0, signal_speed=0.0, t1=6, t2=6, t0=0)
    # t0 must precede both retarded times
    with pytest.raises(ValueError):
        Geometry(separation=2.0, signal_speed=1.0, t1=6, t2=6, t0=5.0)
    assert geom().retardation == 2.0


# ----------------------------------------------------------------------
# value_at
# ----------------------------------------------------------------------


def test_value_at_constant_base():
    sched = SettingSchedule(station=1, start=0.0, initial=A)
    assert sched.value_at(7.0) is A


def test_value_at_right_continuous_at_switch():
    sched = SettingSchedule(station=1, start=0.0, initial=A, switches=((5.0, A2),))
    assert sched.value_at(5.0).id == "a2"
    assert sched.value_at(5.0 - 1e-9).id == "a"


def test_value_at_intervention_effect_time():
    iv = Intervention(station=1, decision_time=4.0, delay=1.0, new_label=A2)
    sched = SettingSchedule(station=1, start=0.0, initial=A, interventions=stream1(iv))
    assert sched.value_at(4.5).id == "a"
    assert sched.value_at(5.0).id == "a2"


def test_value_at_before_start_raises():
    sched = SettingSchedule(station=1, start=1.0, initial=A)
    with pytest.raises(UndefinedTimeError):
        sched.value_at(0.5)
    with pytest.raises(UndefinedTimeError):
        sched.value_index_at(np.array([0.5, 2.0]))


def test_base_switch_overrides_earlier_intervention():
    iv = Intervention(station=1, decision_time=2.0, delay=0.0, new_label=A2)
    sched = SettingSchedule(
        station=1, start=0.0, initial=A, switches=((3.0, A),), interventions=stream1(iv)
    )
    assert sched.value_at(2.5).id == "a2"
    assert sched.value_at(3.0).id == "a"


def test_tie_intervention_wins_over_base_switch():
    iv = Intervention(station=1, decision_time=3.0, delay=0.0, new_label=B2)
    sched = SettingSchedule(
        station=1, start=0.0, initial=A, switches=((3.0, A2),), interventions=stream1(iv)
    )
    assert sched.value_at(3.0).id == "b2"


def test_switch_times_must_increase():
    with pytest.raises(ValueError):
        SettingSchedule(
            station=1, start=0.0, initial=A, switches=((2.0, A2), (2.0, A))
        )
    with pytest.raises(ValueError):
        SettingSchedule(station=1, start=5.0, initial=A, switches=((5.0, A2),))


@pytest.mark.parametrize(
    "switches",
    [((math.nan, A2), (5.0, A)), ((1.0, A2), (math.nan, A)), ((1.0, A2), (math.inf, A))],
    ids=["nan-first", "nan-later", "inf"],
)
def test_switch_times_must_be_finite(switches):
    # a NaN compares false both ways, so an order check alone lets it through
    with pytest.raises(ValueError, match="finite"):
        SettingSchedule(station=1, start=0.0, initial=A, switches=switches)


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(3)
    switches = tuple((float(t), (A, A2)[i % 2]) for i, t in enumerate(np.sort(rng.uniform(1, 9, 7))))
    ivs = tuple(
        Intervention(station=1, decision_time=float(d), delay=float(rng.uniform(0, 1)), new_label=B2)
        for d in np.sort(rng.uniform(1, 9, 5))
    )
    sched = SettingSchedule(
        station=1, start=0.0, initial=A, switches=switches, interventions=stream1(*ivs)
    )
    ts = rng.uniform(0, 10, 200)
    idx = sched.value_index_at(ts)
    for t, k in zip(ts, idx):
        assert sched.value_at(float(t)).id == sched.distinct_labels[int(k)].id


# ----------------------------------------------------------------------
# simple retarded
# ----------------------------------------------------------------------


def test_simple_retarded_constant():
    sched = SettingSchedule(station=1, start=-10.0, initial=A)
    assert simple_retarded(sched, 6.0, geom()).id == "a"


def test_simple_retarded_is_lagged_value_at():
    rng = np.random.default_rng(7)
    switches = tuple(
        (float(t), (A, A2)[i % 2]) for i, t in enumerate(np.sort(rng.uniform(-5, 9, 9)))
    )
    sched = SettingSchedule(station=1, start=-10.0, initial=A, switches=switches)
    g = geom()
    for t in rng.uniform(0, 10, 100):
        assert simple_retarded(sched, float(t), g) is sched.value_at(float(t) - 2.0)


def test_simple_retarded_periodic_full_cycle_equals_actual():
    # cycle of two labels held T/2 each -> pattern repeats every T = L/c
    T = 2.0
    switch_times = np.arange(-9.0, 12.0, T / 2)
    switches = tuple(
        (float(t), (A2, A)[i % 2]) for i, t in enumerate(switch_times)
    )
    sched = SettingSchedule(station=1, start=-10.0, initial=A, switches=switches)
    g = geom(L=2.0, c=1.0)
    for t in np.random.default_rng(0).uniform(0, 10, 50):
        assert simple_retarded(sched, float(t), g) is sched.value_at(float(t))


def test_simple_retarded_example_base_switch():
    sched = SettingSchedule(station=1, start=0.0, initial=A, switches=((5.0, A2),))
    assert simple_retarded(sched, 6.0, geom()).id == "a"


# ----------------------------------------------------------------------
# predictive retarded
# ----------------------------------------------------------------------


def test_predictive_equals_value_at_without_interventions():
    switches = ((2.0, A2), (4.0, A), (8.0, A2))
    sched = SettingSchedule(station=1, start=0.0, initial=A, switches=switches)
    g = geom()
    for t in (3.0, 4.0, 5.5, 9.0):
        assert predictive_retarded(sched, t, t, g) is sched.value_at(t)


def test_predictive_drops_late_intervention():
    iv = Intervention(station=1, decision_time=5.5, delay=0.0, new_label=A2)
    sched = SettingSchedule(station=1, start=0.0, initial=A, interventions=stream1(iv))
    g = geom()
    # cutoff = 6 - 2 = 4 < 5.5, so the intervention is invisible
    assert predictive_retarded(sched, 6.0, 6.0, g).id == "a"
    assert sched.value_at(6.0).id == "a2"


def test_predictive_coincides_with_simple_for_delay_zero():
    rng = np.random.default_rng(42)
    ivs = tuple(
        Intervention(
            station=1,
            decision_time=float(d),
            delay=0.0,
            new_label=(A2, B2)[i % 2],
        )
        for i, d in enumerate(np.sort(rng.uniform(-8, 10, 12)))
    )
    sched = SettingSchedule(station=1, start=-10.0, initial=A, interventions=stream1(*ivs))
    g = geom()
    for t in rng.uniform(0, 10, 100):
        t = float(t)
        assert predictive_retarded(sched, t, t, g) is simple_retarded(sched, t, g)


def test_delay_control_restores_actual():
    # every intervention delayed past L/c: prediction equals the actual value
    rng = np.random.default_rng(9)
    ivs = tuple(
        Intervention(
            station=1,
            decision_time=float(d),
            delay=3.0,  # > L/c = 2
            new_label=(A2, B2)[i % 2],
        )
        for i, d in enumerate(np.sort(rng.uniform(-8, 10, 12)))
    )
    sched = SettingSchedule(station=1, start=-10.0, initial=A, interventions=stream1(*ivs))
    g = geom()
    for t in rng.uniform(0, 10, 100):
        t = float(t)
        assert predictive_retarded(sched, t, t, g) is sched.value_at(t)


def test_predictive_target_before_cutoff_rejected():
    sched = SettingSchedule(station=1, start=0.0, initial=A)
    with pytest.raises(ValueError):
        sched.predictive_value_at(1.0, 2.0)
    # a cutoff before the timeline start is undefined, scalar or vector
    with pytest.raises(UndefinedTimeError):
        sched.predictive_value_at(1.0, -1.0)
    with pytest.raises(UndefinedTimeError):
        sched.predictive_index_at(np.array([1.0, 2.0]), np.array([1.0, -1.0]))


def predictive_oracle(sched, t_target, cutoff):
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


def test_predictive_vector_matches_scalar_with_mixed_delays():
    rng = np.random.default_rng(21)
    ivs = tuple(
        Intervention(
            station=1,
            decision_time=float(d),
            delay=float(rng.uniform(0, 4)),  # non-monotone effect times
            new_label=(A2, B2, B)[i % 3],
        )
        for i, d in enumerate(np.sort(rng.uniform(-8, 10, 15)))
    )
    switches = ((1.0, A2), (6.0, A))
    sched = SettingSchedule(
        station=1, start=-10.0, initial=A, switches=switches, interventions=stream1(*ivs)
    )
    assert np.any(np.diff(sched.interventions.effect_times) < 0)
    ts = rng.uniform(0, 10, 80)
    out = sched.predictive_index_at(ts, ts - 2.0)
    for t, k in zip(ts, out):
        expect = predictive_oracle(sched, float(t), float(t) - 2.0)
        assert sched.distinct_labels[int(k)].id == expect.id
        assert sched.predictive_value_at(float(t), float(t) - 2.0).id == expect.id


# Times on a coarse grid, so that equal decision times, equal effect
# times, zero delays, cutoff == target and base switches at an effect's
# instant all occur.
GRID = 0.5
PALETTE = (A, A2, B, B2)


def _on_grid(lo, hi):
    return st_.integers(lo, hi).map(lambda k: k * GRID)


@st_.composite
def predictive_cases(draw):
    ivs = draw(
        st_.lists(
            st_.tuples(_on_grid(-8, 20), _on_grid(0, 8), st_.sampled_from(PALETTE)),
            max_size=12,
        )
    )
    switch_times = sorted(draw(st_.lists(_on_grid(-8, 24), max_size=5, unique=True)))
    switches = tuple((t, PALETTE[i % 4]) for i, t in enumerate(switch_times))
    trials = draw(
        st_.lists(st_.tuples(_on_grid(-10, 24), _on_grid(0, 6)), min_size=1, max_size=20)
    )
    return ivs, switches, trials


@settings(max_examples=300, deadline=None)
@given(predictive_cases())
# empty stream, no base switches
@example(([], (), [(0.0, 0.0), (3.0, 1.0)]))
# equal decision and effect times: the later row wins
@example(([(1.0, 1.0, A2), (1.0, 1.0, B2)], (), [(1.0, 1.0), (2.0, 0.0)]))
# an effect at a base switch's instant, zero delay, cutoff == target
@example(([(2.0, 0.0, B), (1.0, 1.0, B2)], ((2.0, A2),), [(2.0, 0.0), (1.5, 0.5)]))
# a later decision with an earlier effect loses to an earlier decision
@example(([(0.0, 3.0, A2), (1.0, 0.5, B2)], ((4.0, A),), [(1.0, 2.0), (3.0, 1.0)]))
def test_predictive_matches_oracle(case):
    ivs, switches, trials = case
    sched = SettingSchedule(
        station=1,
        start=-5.0,
        initial=A,
        switches=switches,
        interventions=stream1(
            *(Intervention(station=1, decision_time=d, delay=x, new_label=lbl) for d, x, lbl in ivs)
        ),
    )
    cutoffs = np.array([c for c, _ in trials])
    targets = cutoffs + np.array([gap for _, gap in trials])
    out = sched.predictive_index_at(targets, cutoffs)
    for t, c, k in zip(targets, cutoffs, out):
        expect = predictive_oracle(sched, float(t), float(c)).id
        assert sched.distinct_labels[int(k)].id == expect
        assert sched.predictive_value_at(float(t), float(c)).id == expect


@st_.composite
def pair_and_column_cases(draw):
    """Switches as columns over a label tuple that may repeat a label or
    hold one no switch sets, the same switches as pairs, interventions
    and lookups."""
    labels = tuple(draw(st_.lists(st_.sampled_from(PALETTE), min_size=1, max_size=5)))
    times = sorted(draw(st_.lists(_on_grid(-8, 24), max_size=8, unique=True)))
    picks = draw(st_.lists(st_.integers(0, len(labels) - 1), min_size=len(times),
                           max_size=len(times)))
    ivs, _, trials = draw(predictive_cases())
    return SwitchTable(times, picks, labels), ivs, trials


@settings(max_examples=200, deadline=None)
@given(pair_and_column_cases())
def test_schedule_from_columns_matches_schedule_from_pairs(case):
    table, ivs, trials = case
    pairs = tuple((t, table.labels[i]) for t, i in zip(table.times, table.label_indices))
    assert list(table) == list(pairs)
    interventions = stream1(
        *(Intervention(station=1, decision_time=d, delay=x, new_label=lbl) for d, x, lbl in ivs)
    )
    by_columns, by_pairs = (
        SettingSchedule(station=1, start=-5.0, initial=A, switches=sw, interventions=interventions)
        for sw in (table, pairs)
    )
    assert isinstance(by_pairs.switches, SwitchTable) and len(by_pairs.switches) == len(table)
    assert by_columns.distinct_labels == by_pairs.distinct_labels
    for got, want in zip(by_columns._merged, by_pairs._merged):
        assert np.array_equal(got, want)
    cutoffs = np.array([c for c, _ in trials])
    targets = cutoffs + np.array([gap for _, gap in trials])
    assert np.array_equal(by_columns.value_index_at(targets), by_pairs.value_index_at(targets))
    assert np.array_equal(
        by_columns.predictive_index_at(targets, cutoffs),
        by_pairs.predictive_index_at(targets, cutoffs),
    )


def test_switch_table_rejects_mismatched_columns():
    with pytest.raises(ValueError):
        SwitchTable([1.0, 2.0], [0], (A,))
    with pytest.raises(ValueError):
        SwitchTable([1.0], [1], (A,))


def test_predictive_scales_with_mixed_delays():
    rng = np.random.default_rng(5)
    n = 20_000
    stream = InterventionStream(
        station=1,
        decision_times=np.sort(rng.uniform(0, n, n)),
        delays=rng.choice([0.0, 0.5, 1.5, 3.0], n),
        label_indices=rng.integers(0, 2, n),
        labels=(A2, B2),
    )
    assert np.any(np.diff(stream.effect_times) < 0)
    sched = SettingSchedule(station=1, start=-1.0, initial=A, interventions=stream)
    ts = np.arange(n, dtype=np.float64)
    t0 = time.perf_counter()
    out = sched.predictive_index_at(ts, ts - 1.0)
    # a loop over trials x interventions takes minutes here
    assert time.perf_counter() - t0 < 2.0
    for i in rng.integers(0, n, 10):
        expect = predictive_oracle(sched, ts[i], ts[i] - 1.0)
        assert sched.distinct_labels[int(out[i])].id == expect.id


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "quad,expected",
    [
        ((A, A, B, B), EqualityClass.BOTH_EQUAL),
        ((A, A, B, B2), EqualityClass.ONLY_1_EQUAL),
        ((A, A2, B, B), EqualityClass.ONLY_2_EQUAL),
        ((A, A2, B, B2), EqualityClass.NEITHER_EQUAL),
    ],
)
def test_classify_trial(quad, expected):
    a, a_r, b, b_r = quad
    assert classify_trial(a, a_r, b, b_r) is expected


@settings(max_examples=100, deadline=None)
@given(st_.lists(st_.tuples(*[st_.integers(0, 3)] * 4), min_size=1, max_size=30))
def test_classify_fractions_matches_classify_trial(rows):
    a, b, a_r, b_r = (np.array(col) for col in zip(*rows))
    n = len(rows)
    log = TrialLog(PALETTE, np.zeros(n), np.zeros(n), a, b, a_r, b_r, np.ones(n), np.ones(n))
    counts = dict.fromkeys((c.value for c in EqualityClass), 0)
    for i, k, j, m in rows:
        counts[classify_trial(PALETTE[i], PALETTE[j], PALETTE[k], PALETTE[m]).value] += 1
    assert classify_fractions(log) == {key: c / n for key, c in counts.items()}


@settings(max_examples=200, deadline=None)
@given(predictive_cases(), st_.sampled_from([0.5, 2.0]))
def test_retarded_lookups_match_scalar_oracles(case, tau):
    # the run's vector lookups: simple at t - L/c, predictive with the
    # other station's cutoff
    ivs, switches, trials = case
    sched = SettingSchedule(
        station=1,
        start=-8.0,
        initial=A,
        switches=switches,
        interventions=stream1(
            *(Intervention(station=1, decision_time=d, delay=x, new_label=lbl) for d, x, lbl in ivs)
        ),
    )
    g = Geometry(separation=tau, signal_speed=1.0, t1=0.0, t2=0.0, t0=-10.0)
    t1 = np.array([max(c, -2.0) for c, _ in trials])
    t2 = t1 - np.array([gap for _, gap in trials]) / 4
    simple = sched.value_index_at(t1 - tau)
    predictive = sched.predictive_index_at(t1, t2 - tau)
    for i in range(t1.size):
        assert sched.distinct_labels[simple[i]] is simple_retarded(sched, t1[i], g)
        want = predictive_retarded(sched, t1[i], t2[i], g)
        assert sched.distinct_labels[predictive[i]] is want


# ----------------------------------------------------------------------
# intervention streams
# ----------------------------------------------------------------------


def test_intervention_stream_from_objects_matches():
    ivs = (
        Intervention(station=1, decision_time=5.0, delay=1.0, new_label=A2, source_tag="x"),
        Intervention(station=1, decision_time=2.0, delay=0.0, new_label=B2, source_tag="y"),
        Intervention(station=1, decision_time=5.0, delay=0.5, new_label=B2),
    )
    stream = from_interventions(1, ivs)
    assert stream.labels == (A2, B2)
    # sorted by decision time; equal decision times keep their order
    assert stream.decision_times.tolist() == [2.0, 5.0, 5.0]
    assert stream.effect_times.tolist() == [2.0, 6.0, 5.5]
    assert stream.label_indices.tolist() == [1, 0, 1]


@pytest.mark.parametrize(
    "decision,delay,message",
    [
        (math.nan, 0.0, "decision time must be finite"),
        (math.inf, 0.0, "decision time must be finite"),
        (1.0, math.inf, "delay must be finite"),
        (1.0, math.nan, "delay must be finite"),
        (1.0, -0.5, "delay must be non-negative"),
    ],
)
def test_intervention_rejects_bad_timing(decision, delay, message):
    with pytest.raises(ValueError, match=message):
        Intervention(station=1, decision_time=decision, delay=delay, new_label=A2)
    for delays in (np.array([0.0, delay]), delay):  # per-row and common delay
        with pytest.raises(ValueError, match=message):
            InterventionStream(1, np.array([0.0, decision]), delays, np.array([0, 0]), (A2,))


@pytest.mark.parametrize(
    "decisions,delays,picks,message",
    [
        ([1.0], 0.0, [-1], "out of range"),
        ([1.0], 0.0, [1], "out of range"),
        ([1.0, 2.0], [0.0, 0.5, 1.0], [0, 0], "one length"),
        ([1.0, 2.0], [0.0], [0, 0], "one length"),
        ([1.0, 2.0], 0.0, [0], "one length"),
        ([[1.0, 2.0]], 0.0, [[0, 0]], "one length"),
        (1.0, 0.0, 0, "one length"),
    ],
    ids=["negative-index", "index-past-labels", "long-delays", "short-delays",
         "short-indices", "two-d", "scalar-times"],
)
def test_intervention_stream_rejects_malformed_columns(decisions, delays, picks, message):
    with pytest.raises(ValueError, match=message):
        InterventionStream(1, decisions, delays, picks, (A2,))


def test_schedule_interventions_must_be_a_stream():
    iv = Intervention(station=1, decision_time=1.0, delay=0.0, new_label=A2)
    with pytest.raises(TypeError, match="InterventionStream or None"):
        SettingSchedule(station=1, start=0.0, initial=A, interventions=(iv,))
    with pytest.raises(ValueError, match="station"):
        SettingSchedule(station=2, start=0.0, initial=A, interventions=stream1(iv))
    assert len(SettingSchedule(station=2, start=0.0, initial=A).interventions) == 0


# ----------------------------------------------------------------------
# intervention stream files
# ----------------------------------------------------------------------

HEADER = "station,decision_time,delay,label,source_tag\n"


def stream_rows(stream):
    return [
        (t, e, stream.labels[k].id)
        for t, e, k in zip(stream.decision_times, stream.effect_times, stream.label_indices)
    ]


def test_load_interventions_roundtrip(tmp_path):
    path = tmp_path / "stream.csv"
    path.write_text(HEADER + "1,3.0,0.0,a2,button\n2,4.0,0.5,b2,button\n")
    palette = {"a2": A2, "b2": B2}
    one = load_interventions(path, palette, 1)
    two = load_interventions(path, palette, 2)
    assert (one.station, two.station) == (1, 2)
    assert stream_rows(one) == [(3.0, 3.0, "a2")]
    assert stream_rows(two) == [(4.0, 4.5, "b2")]


def test_load_interventions_shared_file(tmp_path):
    path = tmp_path / "stream.csv"
    text = HEADER + "1,3.0,0.0,a2,button\n2,4.0,0.5,b2,button\n1,5.0,1.0,a,button\n"
    path.write_text(text)
    one = load_interventions(path, {"a": A, "a2": A2}, 1)
    two = load_interventions(path, {"b": B, "b2": B2}, 2)
    assert [lbl for _, _, lbl in stream_rows(one)] == ["a2", "a"]
    assert [lbl for _, _, lbl in stream_rows(two)] == ["b2"]
    # rows of the other station are still parsed and checked, all but
    # their label
    for bad in ("2,oops,0.0,b2,button", "3,1.0,0.0,a,button", "2,nan,-5,zz,x"):
        path.write_text(text + bad + "\n")
        with pytest.raises(StreamFormatError, match=r"stream\.csv:5:"):
            load_interventions(path, {"a": A, "a2": A2}, 1)
    path.write_text(text + "2,1.0,0.0,zz,x\n")
    assert stream_rows(load_interventions(path, {"a": A, "a2": A2}, 1)) == stream_rows(one)


def test_load_interventions_header_required(tmp_path):
    path = tmp_path / "stream.csv"
    path.write_text("1,3.0,0.0,a2,button\n")
    with pytest.raises(StreamFormatError):
        load_interventions(path, {"a2": A2}, 1)


@pytest.mark.parametrize(
    "row",
    [
        "1,oops,0.0,a2,button",
        "1,3.0,-1.0,a2,button",
        "1,3.0,0.0,nope,button",
        "1,3.0,0.0,a2",
        "1,nan,0.0,a2,button",
        "1,3.0,inf,a2,button",
        "1,3.0,nan,a2,button",
    ],
)
def test_load_interventions_malformed_rows(tmp_path, row):
    path = tmp_path / "stream.csv"
    path.write_text(HEADER + row + "\n")
    with pytest.raises(StreamFormatError, match=r"stream\.csv:2:"):
        load_interventions(path, {"a2": A2}, 1)


PALETTES = {1: {"a": A, "a2": A2}, 2: {"b": B, "b2": B2}}
#: One field's replacement in a bad row, or a row of the wrong length.
BAD_FIELDS = ["", " ", "nan", "-1", "1e400", "abc", "9" * 400, "zz", "3", "-inf", "a", "b2"]


@st_.composite
def stream_files(draw):
    """A stream file of both stations on grid times (so equal decision and
    effect times occur), with blank lines and at most one bad row."""
    lines = []
    for _ in range(draw(st_.integers(0, 14))):
        kind = draw(st_.integers(0, 9))
        if kind == 0:
            lines.append(draw(st_.sampled_from(["", " ", " , , , , ", ",,,,"])))
            continue
        station = draw(st_.sampled_from([1, 2]))
        decision = draw(_on_grid(-6, 6))
        delay = draw(_on_grid(0, 3))
        label = draw(st_.sampled_from(sorted(PALETTES[station])))
        lines.append(f"{station},{decision!r},{delay!r},{label},tag")
    if draw(st_.booleans()):
        fields = [draw(st_.sampled_from(["1", "2"])), "1.0", "0.5", "a", "tag"]
        if draw(st_.booleans()):
            fields[draw(st_.integers(0, 4))] = draw(st_.sampled_from(BAD_FIELDS))
        else:
            fields = fields[:4] if draw(st_.booleans()) else fields + ["x"]
        lines.insert(draw(st_.integers(0, len(lines))), ",".join(fields))
    return HEADER + "".join(line + "\n" for line in lines)


def _outcome(load, path, station):
    try:
        return load(path, PALETTES[station], station)
    except StreamFormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(stream_files())
# equal decision times keep file order
@example(HEADER + "1,1.0,1.0,a2,x\n1,1.0,0.0,a,x\n1,0.5,0.5,a2,x\n")
# a bad row of the other station after a blank line
@example(HEADER + "1,1.0,1.0,a2,x\n\n2,nan,-5,zz,x\n")
def test_load_interventions_matches_row_loader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("stream") / "stream.csv"
    path.write_text(text)
    for station in (1, 2):
        got = _outcome(load_interventions, path, station)
        want = _outcome(load_rows, path, station)
        if isinstance(want, str):
            assert got == want
            continue
        assert got.station == station and got.labels == want.labels
        for name in ("decision_times", "effect_times", "label_indices"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@settings(max_examples=30, deadline=None)
@given(
    switch=st_.floats(0.5, 9.5),
    eps=st_.floats(1e-9, 1e-3),
)
def test_right_continuity_property(switch, eps):
    sched = SettingSchedule(station=1, start=0.0, initial=A, switches=((switch, A2),))
    assert sched.value_at(switch).id == "a2"
    assert sched.value_at(switch - eps).id == "a"

import contextlib
import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

from conftest import actual_ids, predictive_oracle, value_at
from rbell import spacetime
from rbell.errors import StreamFormatError, UndefinedTimeError
from rbell.estimation import TrialCounts, TrialLog
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


def geom(L=2.0, c=1.0, t0=0.0):
    return Geometry(separation=L, signal_speed=c, t0=t0)


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
    return value_at(schedule, t_meas - geometry.retardation)


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
        Geometry(separation=-1.0, signal_speed=1.0, t0=0)
    with pytest.raises(ValueError):
        Geometry(separation=1.0, signal_speed=0.0, t0=0)
    assert geom().retardation == 2.0


# ----------------------------------------------------------------------
# actual settings
# ----------------------------------------------------------------------


def test_value_at_constant_base():
    sched = SettingSchedule(station=1, start=0.0, initial=A)
    assert actual_ids(sched, 7.0) == ["a"]
    assert sched.distinct_labels[sched.value_index_at(np.array([7.0]))[0]] is A


def test_value_at_right_continuous_at_switch():
    sched = SettingSchedule(station=1, start=0.0, initial=A, switches=((5.0, A2),))
    assert actual_ids(sched, 5.0, 5.0 - 1e-9) == ["a2", "a"]


def test_value_at_intervention_effect_time():
    iv = Intervention(station=1, decision_time=4.0, delay=1.0, new_label=A2)
    sched = SettingSchedule(station=1, start=0.0, initial=A, interventions=stream1(iv))
    assert actual_ids(sched, 4.5, 5.0) == ["a", "a2"]


def test_value_at_before_start_raises():
    sched = SettingSchedule(station=1, start=1.0, initial=A)
    for times in (0.5, [0.5, 2.0], [2.0, 0.5]):
        with pytest.raises(UndefinedTimeError):
            sched.value_index_at(np.array(times))


def test_base_switch_overrides_earlier_intervention():
    iv = Intervention(station=1, decision_time=2.0, delay=0.0, new_label=A2)
    sched = SettingSchedule(
        station=1, start=0.0, initial=A, switches=((3.0, A),), interventions=stream1(iv)
    )
    assert actual_ids(sched, 2.5, 3.0) == ["a2", "a"]


def test_tie_intervention_wins_over_base_switch():
    iv = Intervention(station=1, decision_time=3.0, delay=0.0, new_label=B2)
    sched = SettingSchedule(
        station=1, start=0.0, initial=A, switches=((3.0, A2),), interventions=stream1(iv)
    )
    assert actual_ids(sched, 3.0) == ["b2"]


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
        assert value_at(sched, float(t)).id == sched.distinct_labels[int(k)].id


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
    ts = rng.uniform(0, 10, 100)
    for t, k in zip(ts, sched.value_index_at(ts - 2.0)):
        assert simple_retarded(sched, float(t), g) is sched.distinct_labels[k]


def test_simple_retarded_periodic_full_cycle_equals_actual():
    # cycle of two labels held T/2 each -> pattern repeats every T = L/c
    T = 2.0
    switch_times = np.arange(-9.0, 12.0, T / 2)
    switches = tuple(
        (float(t), (A2, A)[i % 2]) for i, t in enumerate(switch_times)
    )
    sched = SettingSchedule(station=1, start=-10.0, initial=A, switches=switches)
    g = geom(L=2.0, c=1.0)
    ts = np.random.default_rng(0).uniform(0, 10, 50)
    assert np.array_equal(sched.value_index_at(ts - 2.0), sched.value_index_at(ts))
    for t in ts:
        assert simple_retarded(sched, float(t), g) is value_at(sched, float(t))


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
        assert predictive_retarded(sched, t, t, g) is value_at(sched, t)


def test_predictive_drops_late_intervention():
    iv = Intervention(station=1, decision_time=5.5, delay=0.0, new_label=A2)
    sched = SettingSchedule(station=1, start=0.0, initial=A, interventions=stream1(iv))
    g = geom()
    # cutoff = 6 - 2 = 4 < 5.5, so the intervention is invisible
    assert predictive_retarded(sched, 6.0, 6.0, g).id == "a"
    assert actual_ids(sched, 6.0) == ["a2"]


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
        assert predictive_retarded(sched, t, t, g) is value_at(sched, t)


def test_predictive_target_before_cutoff_rejected():
    sched = SettingSchedule(station=1, start=0.0, initial=A)
    with pytest.raises(ValueError):
        sched.predictive_value_at(1.0, 2.0)
    # a cutoff before the timeline start is undefined, scalar or vector
    with pytest.raises(UndefinedTimeError):
        sched.predictive_value_at(1.0, -1.0)
    with pytest.raises(UndefinedTimeError):
        sched.predictive_index_at(np.array([1.0, 2.0]), np.array([1.0, -1.0]))


@pytest.mark.parametrize(
    "targets,cutoffs",
    [
        ([2.5, 2.6, 2.7], [2.5]),  # broadcast to three trials
        ([3.5, 3.5, 3.5], [2.5]),  # an index error inside the lifting
        ([2.5], [2.5, 2.5]),
        ([[2.5, 2.6]], [[2.5, 2.5]]),
        (2.5, 2.5),
    ],
    ids=["one-cutoff", "one-late-cutoff", "one-target", "2-d", "0-d"],
)
def test_predictive_refuses_unequal_or_non_1d_shapes(targets, cutoffs):
    # whether a call worked depended on the data, not on the shapes
    ivs = [Intervention(station=1, decision_time=t, delay=0.0, new_label=B2) for t in (1, 2, 3)]
    sched = SettingSchedule(station=1, start=0.0, initial=A, interventions=stream1(*ivs))
    with pytest.raises(ValueError, match="targets and cutoffs must be 1-d of one length"):
        sched.predictive_index_at(np.array(targets), np.array(cutoffs))


@pytest.mark.parametrize(
    "lookup,message",
    [
        (lambda s: s.value_index_at(np.array([math.nan])), "time nan is not a number"),
        (lambda s: s.value_index_at(np.array([2.0, math.nan, 0.5])), "time nan"),
        (lambda s: s.predictive_index_at(np.array([math.nan]), np.array([math.nan])),
         "cutoff nan is not a number"),
        (lambda s: s.predictive_index_at(np.array([3.0, 3.0]), np.array([1.0, math.nan])),
         "cutoff nan"),
        (lambda s: s.predictive_index_at(np.array([3.0, math.nan]), np.array([1.0, 1.0])),
         "target nan is not a number"),
        (lambda s: s.predictive_value_at(math.nan, 1.0), "target nan"),
    ],
    ids=["time", "time-among-others", "target-and-cutoff", "cutoff", "target", "scalar"],
)
def test_nan_times_are_undefined(lookup, message):
    # NaN fails every comparison, so a guard of the form ``min < start``
    # let it through to a label
    iv = Intervention(station=1, decision_time=1.0, delay=0.5, new_label=B2)
    sched = SettingSchedule(
        station=1, start=0.0, initial=A, switches=((2.0, A2),), interventions=stream1(iv)
    )
    with pytest.raises(UndefinedTimeError, match=message):
        lookup(sched)


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
    _, out = sched.predictive_index_at(ts, ts - 2.0)
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


def schedule_of(case):
    ivs, switches, _ = case
    return SettingSchedule(
        station=1,
        start=-5.0,
        initial=A,
        switches=switches,
        interventions=stream1(
            *(Intervention(station=1, decision_time=d, delay=x, new_label=lbl) for d, x, lbl in ivs)
        ),
    )


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
    sched, trials = schedule_of(case), case[2]
    cutoffs = np.array([c for c, _ in trials])
    targets = cutoffs + np.array([gap for _, gap in trials])
    _, out = sched.predictive_index_at(targets, cutoffs)
    for t, c, k in zip(targets, cutoffs, out):
        expect = predictive_oracle(sched, float(t), float(c)).id
        assert sched.distinct_labels[int(k)].id == expect
        assert sched.predictive_value_at(float(t), float(c)).id == expect


@settings(max_examples=200, deadline=None)
@given(predictive_cases())
def test_actual_is_predictive_with_cutoff_at_target(case):
    # delays are >= 0, so nothing in force at x was decided after x
    sched = schedule_of(case)
    x = np.array([c for c, _ in case[2]])
    assert np.array_equal(sched.value_index_at(x), sched.predictive_index_at(x, x)[1])


@settings(max_examples=200, deadline=None)
@given(predictive_cases())
def test_winners_rank_at_or_above_the_event_in_force_at_the_cutoff(case):
    # delays are >= 0, so the event in force at a cutoff was decided by it:
    # the predictive lookup starts its window there
    sched, trials = schedule_of(case), case[2]
    ts, decisions, labels = sched._timeline
    # decision index -1, a base event, reads the appended -inf
    decided = np.append(sched.interventions.decision_times, -np.inf)
    for cutoff, gap in trials:
        in_force = int(np.searchsorted(ts, cutoff, side="right")) - 1
        qualifies = decided[decisions] <= cutoff
        qualifies[np.searchsorted(ts, cutoff + gap, side="right"):] = False
        winner = int(np.flatnonzero(qualifies)[-1])
        oracle = predictive_oracle(sched, cutoff + gap, cutoff)
        assert sched.distinct_labels[int(labels[winner])].id == oracle.id
        assert qualifies[in_force] and winner >= in_force


@settings(max_examples=50, deadline=None)
@given(predictive_cases())
def test_timeline_keeps_small_dtypes(case):
    # the timeline lives as long as its schedule: with int64 labels the
    # benchmark's scenario-sweep peak RSS rose from about 99 to 105 MiB
    times, decisions, labels = schedule_of(case)._timeline
    assert times.dtype == np.float64
    assert decisions.dtype == np.int32
    assert labels.dtype == np.uint8


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
    for got, want in zip(by_columns._timeline, by_pairs._timeline):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    cutoffs = np.array([c for c, _ in trials])
    targets = cutoffs + np.array([gap for _, gap in trials])
    assert np.array_equal(by_columns.value_index_at(targets), by_pairs.value_index_at(targets))
    assert np.array_equal(
        by_columns.predictive_index_at(targets, cutoffs)[1],
        by_pairs.predictive_index_at(targets, cutoffs)[1],
    )


def argsort_timeline(sched):
    """The timeline's columns ranked by an unconditional stable argsort."""
    sw, iv = sched.switches, sched.interventions
    ids = [lbl.id for lbl in sched.distinct_labels]
    times = np.concatenate(([-np.inf], sw.times, iv.effect_times))
    decisions = np.concatenate((np.full(1 + len(sw), -1), np.arange(len(iv))))
    labels = np.array([0] + [ids.index(lbl.id) for _, lbl in sw]
                      + [ids.index(iv.labels[k].id) for k in iv.label_indices])
    order = np.argsort(times, kind="stable")
    return times[order], decisions[order], labels[order]


@settings(max_examples=300, deadline=None)
@given(predictive_cases(), st_.booleans(), st_.one_of(st_.none(), _on_grid(0, 4)))
# a base switch and an effect at one instant, in time order: the
# intervention ranks last and wins
@example(([(2.0, 0.0, B), (2.0, 0.0, A2)], ((2.0, B2),), []), True, None)
# equal decision times with one delay: sorted rows and effects, no switches
@example(([(1.0, 0.5, B), (1.0, 0.5, A2), (3.0, 0.5, B)], (), []), True, 0.5)
def test_sorted_input_matches_stable_argsort(case, presort, common_delay):
    # input already in order skips the sort and the gathers; a stable sort
    # of such input is the identity, so the columns are those of the sort
    ivs, switches, _ = case
    if presort:
        ivs = sorted(ivs, key=lambda row: row[0])
    decisions = np.array([d for d, _, _ in ivs], dtype=np.float64)
    delays = np.array([x for _, x, _ in ivs]) if common_delay is None else common_delay
    picks = np.array([PALETTE.index(lbl) for _, _, lbl in ivs], dtype=np.int64)
    stream = InterventionStream(1, decisions, delays, picks, PALETTE)
    order = np.argsort(decisions, kind="stable")
    assert stream.decision_times.tobytes() == decisions[order].tobytes()
    assert stream.effect_times.tobytes() == (decisions + delays)[order].tobytes()
    assert np.array_equal(stream.label_indices, picks[order])
    if presort:
        assert stream.decision_times is decisions
    sched = SettingSchedule(
        station=1, start=-5.0, initial=A, switches=switches, interventions=stream
    )
    for got, want in zip(sched._timeline, argsort_timeline(sched)):
        assert got.tobytes() == want.astype(got.dtype).tobytes()


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
    _, out = sched.predictive_index_at(ts, ts - 1.0)
    # a loop over trials x interventions takes minutes here
    assert time.perf_counter() - t0 < 2.0
    for i in rng.integers(0, n, 10):
        expect = predictive_oracle(sched, ts[i], ts[i] - 1.0)
        assert sched.distinct_labels[int(out[i])].id == expect.id


def brute_force_jumps(sched, targets, cutoffs):
    """Per trial, how many ranks the predictive search steps back: the run
    of events decided after the cutoff that ends at the event in force."""
    ts, decisions, _ = sched._timeline
    decided = sched.interventions.decision_times
    late = np.zeros((targets.size, ts.size), dtype=bool)
    rows = decisions >= 0
    late[:, rows] = decided[decisions[rows]][None, :] > cutoffs[:, None]
    pos = np.searchsorted(ts, targets, side="right")
    jumps = []
    for row, p in zip(late, pos):
        j = 0
        while row[p - 1 - j]:
            j += 1
        jumps.append(j)
    return np.array(jumps)


@contextlib.contextmanager
def counting_lifts(sched):
    """Spy on the predictive lookups of ``sched``: yields a list that gets,
    per block of targets, whether it holds a late trial, and a mock that
    counts the calls of :func:`spacetime._gallop`."""
    _, decisions, _ = sched._timeline
    # decision index -1, a base event, reads the appended -inf
    decided = np.append(sched.interventions.decision_times, -np.inf)
    blocks = []
    lookup_block = SettingSchedule._predictive_block

    def spy(self, pos, cutoffs, *args):
        blocks.append(bool(np.any(decided[decisions[pos]] > cutoffs)))
        return lookup_block(self, pos, cutoffs, *args)

    with mock.patch.object(SettingSchedule, "_predictive_block", spy), \
            mock.patch.object(spacetime, "_gallop", wraps=spacetime._gallop) as gallop:
        yield blocks, gallop


def test_all_late_stream_matches_oracle():
    # 95% of the cutoffs precede every decision, so their searches step
    # back over all E ranks to the initial label (J ~ E), and the rest
    # precede all but the first few thousand.  The first block's window
    # runs from rank 0, tens of thousands of ranks below it, so the next
    # block takes that many targets, and each block is lifted once
    rng = np.random.default_rng(9)
    e = n = 100_000
    stream = InterventionStream(
        station=1,
        decision_times=np.sort(rng.uniform(0.0, 1.0, e)),
        delays=0.0,
        label_indices=rng.integers(0, 3, e),
        labels=(A2, B, B2),
    )
    sched = SettingSchedule(station=1, start=-1.0, initial=A, interventions=stream)
    targets = np.linspace(0.5, 2.0, n)
    cutoffs = np.minimum(rng.uniform(-1.0, 0.05, n), targets)
    with counting_lifts(sched) as (blocks, gallop):
        t0 = time.perf_counter()
        actual, out = sched.predictive_index_at(targets, cutoffs)
        assert time.perf_counter() - t0 < 3.0
    assert all(blocks) and gallop.call_count == len(blocks) <= 3
    assert np.array_equal(actual, sched.value_index_at(targets))
    # the initial label wins wherever nothing was decided by the cutoff
    assert np.count_nonzero(out == 0) > n // 2
    for i in np.concatenate((rng.integers(0, n, 12), [0, n - 1])):
        expect = predictive_oracle(sched, targets[i], cutoffs[i])
        assert sched.distinct_labels[int(out[i])].id == expect.id


STOP_RULE_JUMPS = sorted({(1 << k) + d for k in range(1, 8) for d in (-1, 0, 1)})


@pytest.mark.parametrize("block", [None, 16])
def test_jumps_around_the_galloping_stop_rule(block):
    # rows decided in pairs at one instant and in force in triples from
    # one instant, base switches at some of those instants, and cutoffs
    # on and between the decision times: every jump length of
    # STOP_RULE_JUMPS occurs, at ranks both near rank 0 and far from it
    rows = 400
    decided = np.arange(rows) // 2 * 1.0
    effects = 300.0 + np.arange(rows) // 3
    stream = InterventionStream(1, decided, effects - decided, np.arange(rows) % 3, (A2, B, B2))
    switches = SwitchTable(300.0 + np.arange(0, 140, 45), np.arange(4) % 2, (A, B2))
    sched = SettingSchedule(
        station=1, start=-1.0, initial=A, switches=switches, interventions=stream
    )
    targets, cutoffs = np.meshgrid(300.0 + np.array([20, 29, 60, 88, 89, 100, 133.5]),
                                   np.arange(-1, 2 * rows // 2 + 1) * 0.5)
    targets, cutoffs = targets.ravel(), cutoffs.ravel()
    jumps = brute_force_jumps(sched, targets, cutoffs)
    assert set(STOP_RULE_JUMPS) <= set(jumps.tolist())
    pick = np.flatnonzero(np.isin(jumps, STOP_RULE_JUMPS + [0]))
    shuffled = np.random.default_rng(4).permutation(targets.size)
    with mock.patch.object(spacetime, "_LOOKUP_BLOCK", block or spacetime._LOOKUP_BLOCK), \
            counting_lifts(sched) as (blocks, gallop):
        _, out = sched.predictive_index_at(targets, cutoffs)
        _, back = sched.predictive_index_at(targets[shuffled], cutoffs[shuffled])
    # one lifting pass per block that holds a late trial
    assert any(blocks) and gallop.call_count == sum(blocks)
    assert np.array_equal(back, out[shuffled])
    for i in pick:
        expect = predictive_oracle(sched, float(targets[i]), float(cutoffs[i]))
        assert sched.distinct_labels[int(out[i])].id == expect.id


@settings(max_examples=200, deadline=None)
@given(predictive_cases(), st_.sampled_from([1, 2, 5]))
def test_predictive_blocks_match_one_block(case, block):
    # blocks of a few targets, out of time order: each block's window,
    # and longer blocks after a window that reached far below its block
    sched, trials = schedule_of(case), case[2]
    cutoffs = np.array([c for c, _ in trials])
    targets = cutoffs + np.array([gap for _, gap in trials])
    whole = sched.predictive_index_at(targets, cutoffs)
    with mock.patch.object(spacetime, "_LOOKUP_BLOCK", block):
        blocked = sched.predictive_index_at(targets, cutoffs)
    assert np.array_equal(whole[0], sched.value_index_at(targets))
    for got, want in zip(blocked, whole):
        assert got.dtype == want.dtype and np.array_equal(got, want)


# ----------------------------------------------------------------------
# Rank search: merging sorted runs against a binary search per target
# ----------------------------------------------------------------------

# Event times repeat and include both zeros; targets also fall between
# and after the events, and at +inf.
RANK_TIMES = (-1.5, -0.0, 0.0, 0.5, 1.0, 2.5)
RANK_TARGETS = RANK_TIMES + (0.25, 4.0, math.inf)


@st_.composite
def rank_cases(draw):
    """A schedule whose event times repeat, after the initial label's
    -inf; targets in time order or shuffled, each with a cutoff at or
    before it; and a merge chunk and a lookup block of a few targets."""
    switch_at, rows = {}, []
    for t, delay, label, is_switch in draw(st_.lists(st_.tuples(
        st_.sampled_from(RANK_TIMES), st_.sampled_from((0.0, 0.5)),
        st_.sampled_from(PALETTE), st_.booleans(),
    ), max_size=16)):
        if is_switch and t not in switch_at:
            switch_at[t] = label
        else:
            rows.append(Intervention(1, t - delay, delay, label))
    sched = SettingSchedule(station=1, start=-2.0, initial=A,
                            switches=sorted(switch_at.items()), interventions=stream1(*rows))
    trials = draw(st_.lists(
        st_.tuples(st_.sampled_from(RANK_TARGETS), st_.sampled_from((-2.0,) + RANK_TIMES)),
        max_size=20,
    ))
    trials = sorted(trials, key=lambda trial: trial[0]) if draw(st_.booleans()) else trials
    targets = np.array([t for t, _ in trials])
    cutoffs = np.array([min(t, c) for t, c in trials])
    return sched, targets, cutoffs, draw(st_.integers(1, 8)), draw(st_.sampled_from([1, 3, 2048]))


def searchsorted_value_index_at(sched, times):
    """:meth:`SettingSchedule.value_index_at` with a binary search per target."""
    ts, labels = sched._events
    pos = np.searchsorted(ts, times, side="right")
    pos -= 1
    return labels[pos]


def searchsorted_predictive_index_at(sched, t_targets, cutoffs):
    """:meth:`SettingSchedule.predictive_index_at` per target: a binary
    search for the event in force, then a scan back from it to the first
    event not decided after the cutoff."""
    ts, decisions, labels = sched._timeline
    decided = sched.interventions.decision_times
    pos = np.searchsorted(ts, t_targets, side="right")
    pos -= 1
    winners = pos.copy()
    for i, cutoff in enumerate(cutoffs.tolist()):
        while decisions[winners[i]] >= 0 and decided[decisions[winners[i]]] > cutoff:
            winners[i] -= 1
    return labels[pos], labels[winners]


@settings(max_examples=300, deadline=None)
@given(rank_cases())
# no targets, and one target at an event's time
@example((SettingSchedule(station=1, start=-2.0, initial=A, switches=((0.5, B),)),
          np.array([]), np.array([]), 1, 2048))
@example((SettingSchedule(station=1, start=-2.0, initial=A, switches=((0.5, B),)),
          np.array([0.5]), np.array([-2.0]), 1, 2048))
def test_merged_ranks_match_a_binary_search(case):
    # chunks of 1-8 targets, so a window spans chunks; the lookups give
    # what they gave with a binary search per target
    sched, targets, cutoffs, chunk, block = case
    ts = sched._events[0]
    with mock.patch.object(spacetime, "_MERGE_CHUNK", chunk), \
            mock.patch.object(spacetime, "_LOOKUP_BLOCK", block):
        ranks = spacetime._ranks(ts, targets)
        want = np.searchsorted(ts, targets, side="right")
        assert ranks.dtype == want.dtype and np.array_equal(ranks, want)
        assert np.array_equal(sched.value_index_at(targets),
                              searchsorted_value_index_at(sched, targets))
        got = sched.predictive_index_at(targets, cutoffs)
        want = searchsorted_predictive_index_at(sched, targets, cutoffs)
        for got_column, want_column in zip(got, want):
            assert got_column.dtype == want_column.dtype
            assert np.array_equal(got_column, want_column)


def distinct_labels_by_sorting(sched):
    """Every label of a schedule as a sort of all its switches gives them."""
    labels = [sched.initial]
    seen = {sched.initial.id}
    sw = sched.switches
    _, first = np.unique(sw.label_indices, return_index=True)
    for i in sw.label_indices[np.sort(first)].tolist():
        lbl = sw.labels[i]
        if lbl.id not in seen:
            seen.add(lbl.id)
            labels.append(lbl)
    for lbl in sched.interventions.labels:
        if lbl.id not in seen:
            seen.add(lbl.id)
            labels.append(lbl)
    return tuple(labels)


@settings(max_examples=200, deadline=None)
@given(pair_and_column_cases(), st_.sampled_from([1, 2, 3, 8192]))
def test_distinct_labels_match_a_sort_of_every_switch(case, chunk):
    table, ivs, _ = case
    interventions = stream1(
        *(Intervention(station=1, decision_time=d, delay=x, new_label=lbl) for d, x, lbl in ivs)
    )
    for initial in (A, B2):
        sched = SettingSchedule(
            station=1, start=-5.0, initial=initial, switches=table, interventions=interventions
        )
        with mock.patch.object(spacetime, "_SCAN_CHUNK", chunk):
            got = sched.distinct_labels
        want = distinct_labels_by_sorting(sched)
        assert got == want and all(g is w for g, w in zip(got, want))


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
    assert classify_fractions(TrialCounts(log)) == {key: c / n for key, c in counts.items()}


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
    g = Geometry(separation=tau, signal_speed=1.0, t0=-10.0)
    t1 = np.array([max(c, -2.0) for c, _ in trials])
    t2 = t1 - np.array([gap for _, gap in trials]) / 4
    simple = sched.value_index_at(t1 - tau)
    _, predictive = sched.predictive_index_at(t1, t2 - tau)
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
    assert actual_ids(sched, switch, switch - eps) == ["a2", "a"]

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

from rbell.errors import StreamFormatError, UndefinedTimeError
from rbell.spacetime import (
    EqualityClass,
    Geometry,
    Intervention,
    InterventionStream,
    SettingLabel,
    SettingSchedule,
    classify_trial,
    load_interventions,
    normalize_angle,
    parse_angle,
    predictive_retarded,
    simple_retarded,
    value_at,
)

A = SettingLabel("a", 0.0)
A2 = SettingLabel("a2", math.pi / 2)
B = SettingLabel("b", -math.pi / 4)
B2 = SettingLabel("b2", math.pi / 4)


def geom(L=2.0, c=1.0, t1=6.0, t2=6.0, t0=0.0):
    return Geometry(separation=L, signal_speed=c, t1=t1, t2=t2, t0=t0)


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


@pytest.mark.parametrize("text", ["two pies", "pi/0", "3pi/0.0", "-pi/0", "2*pi/ 0"])
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
    sched = SettingSchedule(station=1, start=0.0, initial=A, interventions=(iv,))
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
        station=1, start=0.0, initial=A, switches=((3.0, A),), interventions=(iv,)
    )
    assert sched.value_at(2.5).id == "a2"
    assert sched.value_at(3.0).id == "a"


def test_tie_intervention_wins_over_base_switch():
    iv = Intervention(station=1, decision_time=3.0, delay=0.0, new_label=B2)
    sched = SettingSchedule(
        station=1, start=0.0, initial=A, switches=((3.0, A2),), interventions=(iv,)
    )
    assert sched.value_at(3.0).id == "b2"


def test_switch_times_must_increase():
    with pytest.raises(ValueError):
        SettingSchedule(
            station=1, start=0.0, initial=A, switches=((2.0, A2), (2.0, A))
        )
    with pytest.raises(ValueError):
        SettingSchedule(station=1, start=5.0, initial=A, switches=((5.0, A2),))


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(3)
    switches = tuple((float(t), (A, A2)[i % 2]) for i, t in enumerate(np.sort(rng.uniform(1, 9, 7))))
    ivs = tuple(
        Intervention(station=1, decision_time=float(d), delay=float(rng.uniform(0, 1)), new_label=B2)
        for d in np.sort(rng.uniform(1, 9, 5))
    )
    sched = SettingSchedule(station=1, start=0.0, initial=A, switches=switches, interventions=ivs)
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
    sched = SettingSchedule(station=1, start=0.0, initial=A, interventions=(iv,))
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
    sched = SettingSchedule(station=1, start=-10.0, initial=A, interventions=ivs)
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
    sched = SettingSchedule(station=1, start=-10.0, initial=A, interventions=ivs)
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
        station=1, start=-10.0, initial=A, switches=switches, interventions=ivs
    )
    assert not sched.interventions.effects_monotone
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
        interventions=tuple(
            Intervention(station=1, decision_time=d, delay=x, new_label=lbl)
            for d, x, lbl in ivs
        ),
    )
    cutoffs = np.array([c for c, _ in trials])
    targets = cutoffs + np.array([gap for _, gap in trials])
    out = sched.predictive_index_at(targets, cutoffs)
    for t, c, k in zip(targets, cutoffs, out):
        expect = predictive_oracle(sched, float(t), float(c)).id
        assert sched.distinct_labels[int(k)].id == expect
        assert sched.predictive_value_at(float(t), float(c)).id == expect


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
    assert not stream.effects_monotone
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


# ----------------------------------------------------------------------
# intervention stream files
# ----------------------------------------------------------------------


def test_load_interventions_roundtrip(tmp_path):
    path = tmp_path / "stream.csv"
    path.write_text(
        "station,decision_time,delay,label,source_tag\n"
        "1,3.0,0.0,a2,button\n"
        "2,4.0,0.5,b2,button\n"
    )
    palette = {"a2": A2, "b2": B2}
    ivs = load_interventions(path, palette)
    assert len(ivs) == 2
    assert ivs[0].station == 1 and ivs[0].new_label.id == "a2"
    assert ivs[1].effect_time == pytest.approx(4.5)
    only1 = load_interventions(path, palette, station=1)
    assert len(only1) == 1


def test_load_interventions_shared_file(tmp_path):
    path = tmp_path / "stream.csv"
    text = (
        "station,decision_time,delay,label,source_tag\n"
        "1,3.0,0.0,a2,button\n"
        "2,4.0,0.5,b2,button\n"
        "1,5.0,1.0,a,button\n"
    )
    path.write_text(text)
    one = load_interventions(path, {"a": A, "a2": A2}, station=1)
    two = load_interventions(path, {"b": B, "b2": B2}, station=2)
    assert [iv.new_label.id for iv in one] == ["a2", "a"]
    assert [iv.new_label.id for iv in two] == ["b2"]
    # rows of the other station are still parsed
    for bad in ("2,oops,0.0,b2,button", "3,1.0,0.0,a,button"):
        path.write_text(text + bad + "\n")
        with pytest.raises(StreamFormatError, match=r"stream\.csv:5:"):
            load_interventions(path, {"a": A, "a2": A2}, station=1)


def test_load_interventions_header_required(tmp_path):
    path = tmp_path / "stream.csv"
    path.write_text("1,3.0,0.0,a2,button\n")
    with pytest.raises(StreamFormatError):
        load_interventions(path, {"a2": A2})


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
    path.write_text("station,decision_time,delay,label,source_tag\n" + row + "\n")
    with pytest.raises(StreamFormatError, match=r"stream\.csv:2:"):
        load_interventions(path, {"a2": A2})


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


def test_intervention_stream_from_objects_matches():
    ivs = (
        Intervention(station=1, decision_time=5.0, delay=1.0, new_label=A2, source_tag="x"),
        Intervention(station=1, decision_time=2.0, delay=0.0, new_label=B2, source_tag="y"),
    )
    stream = InterventionStream.from_interventions(1, ivs)
    assert stream.effects_monotone  # sorted by decision, uniform-ish delays
    back = stream.to_interventions()
    assert [iv.decision_time for iv in back] == [2.0, 5.0]
    assert back[1].source_tag == "x"


@settings(max_examples=30, deadline=None)
@given(
    switch=st_.floats(0.5, 9.5),
    eps=st_.floats(1e-9, 1e-3),
)
def test_right_continuity_property(switch, eps):
    sched = SettingSchedule(station=1, start=0.0, initial=A, switches=((switch, A2),))
    assert sched.value_at(switch).id == "a2"
    assert sched.value_at(switch - eps).id == "a"

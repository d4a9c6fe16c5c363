import hashlib
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st_

from conftest import actual_ids, octuple_cells, oracle_octuples, oracle_trials, traced_peak_mib
from rbell import estimation, scenarios, spacetime
from rbell.errors import ConfigError, UndefinedTimeError
from rbell.estimation import (
    BLOCK_SIZE,
    TrialCounts,
    TrialLog,
    columns_dir,
    read_trial_log,
    substream,
)
from rbell.models import (
    _FACTORIES,
    DeterministicLHV,
    HiddenSpace,
    StochasticLHV,
    get_model,
    hardy_outcome_A,
    hardy_outcome_B,
    register_model,
)
from rbell.scenarios import (
    RETARDED_DEFINITIONS,
    SCHEDULE_KINDS,
    ScenarioConfig,
    StationConfig,
    _complete_octuples,
    _merge_palettes,
    _station_settings,
    chi2_upper_quantile,
    classify_fractions,
    empirical_weights,
    independence_check,
    load_config,
    make_schedule,
    replay_retarded,
    run_scenario,
)
from rbell.spacetime import Geometry, SettingLabel, SettingSchedule

QUARTET_1 = {"a": math.pi / 2, "a2": 0.0}
QUARTET_2 = {"b": -math.pi / 4, "b2": math.pi / 4}


def periodic_station(station, labels, period, phase=0.0):
    return StationConfig(
        station=station,
        labels=labels,
        kind="periodic",
        period=period,
        phase=phase,
        cycle=tuple(labels),
    )


def random_station(station, labels, rate):
    return StationConfig(station=station, labels=labels, kind="random_switch", rate=rate)


def base_config(**overrides):
    defaults = dict(
        geometry=Geometry(separation=1.0, signal_speed=1.0, t0=-3.0),
        model="hardy-singlet",
        station1=periodic_station(1, QUARTET_1, 0.5),
        station2=periodic_station(2, QUARTET_2, 0.5, phase=0.25),
        quartet=("a", "a2", "b", "b2"),
        n_trials=2000,
        spacing=0.35,
        start=0.0,
        seed=7,
        retarded_definition="simple",
        min_count=50,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


# ----------------------------------------------------------------------
# make_schedule
# ----------------------------------------------------------------------


def test_periodic_schedule_label_hold_time():
    st = periodic_station(1, QUARTET_1, period=1.0)
    sched = make_schedule(st, window=(-2.0, 5.0), seed=0)
    assert actual_ids(sched, 0.5, 1.5, 2.5) == ["a", "a2", "a"]


def test_periodic_schedule_phase():
    st = periodic_station(1, QUARTET_1, period=1.0, phase=0.25)
    sched = make_schedule(st, window=(0.0, 5.0), seed=0)
    assert actual_ids(sched, 1.2, 1.25) == ["a", "a2"]


LABELS_3 = {"a": 0.0, "a2": math.pi / 2, "a3": math.pi / 4}


def periodic_oracle(station, window):
    """The periodic base as a loop over k: the initial label and one
    ``(time, label)`` pair per switch.  A switch whose time rounds onto
    or before the start sets the initial label instead.  The loop starts
    two switches below ``floor``'s k, which can round one too high, so
    the first switch it meets is at or before the start."""
    start, end = window
    palette = station.palette()
    period = float(station.period)
    cycle = [palette[lid] for lid in station.cycle]
    m = len(cycle)
    k = math.floor((start - station.phase) / period) - 2
    initial = None
    switches = []
    while station.phase + k * period <= end:
        if station.phase + k * period <= start:
            initial = cycle[k % m]
        else:
            switches.append((station.phase + k * period, cycle[k % m]))
        k += 1
    return initial, switches


def _periodic_case(period, phase, start, end, cycle=("a", "a2")):
    station = StationConfig(
        station=1, labels=LABELS_3, kind="periodic", period=period, phase=phase, cycle=cycle
    )
    return station, (start, end)


@st_.composite
def periodic_windows(draw):
    period = draw(st_.sampled_from((0.35, 0.1, 0.25, 1.0, 1 / 3)) | st_.floats(0.05, 3.0))
    start = draw(st_.floats(-50.0, 50.0))
    # the phase at, before or after the start; after it makes k0 negative
    phase = draw(st_.just(start) | st_.floats(-80.0, 80.0))
    cycle = tuple(draw(st_.lists(st_.sampled_from(tuple(LABELS_3)), min_size=1, max_size=4)))
    if draw(st_.booleans()):
        # the window ends exactly on a switch time
        k0 = math.floor((start - phase) / period)
        end = phase + draw(st_.integers(k0 + 1, k0 + 60)) * period
    else:
        end = start + draw(st_.floats(0.0, 20.0))
    return _periodic_case(period, phase, start, end, cycle)


@settings(max_examples=400, deadline=None)
@given(periodic_windows())
@example(_periodic_case(0.35, 0.0, 0.0, 0.0 + 3 * 0.35))
@example(_periodic_case(0.1, -0.05, 0.0, -0.05 + 7 * 0.1, ("a", "a2", "a3")))
@example(_periodic_case(0.1, 5.0, 0.0, 2.0))
@example(_periodic_case(0.35, 12.3, -7.0, 12.3 - 4 * 0.35, ("a3", "a", "a3")))
@example(_periodic_case(0.5, 2.0, 2.0, 2.0))
@example(_periodic_case(0.03, -1.92, -3.75, 0.0))  # k = -61 rounds onto the start
def test_periodic_schedule_matches_loop(case):
    station, window = case
    initial, switches = periodic_oracle(station, window)
    times = np.array([t for t, _ in switches], dtype=np.float64)
    # where rounding puts the first switch on the start, both fold it into
    # the initial label
    sched = make_schedule(station, window, seed=0)
    assert sched.initial == initial
    assert sched.switches.times.tobytes() == times.tobytes()
    assert [lbl for _, lbl in sched.switches] == [lbl for _, lbl in switches]


def test_periodic_switch_just_after_a_rounded_up_start_is_kept():
    # floor((start - phase) / period) rounds up to k = -93, whose switch
    # falls one ulp after the start: k = -94's label is in force there
    station, window = _periodic_case(
        0.3333333333333333, 15.15929727227629, -15.840702727723711, -14.0
    )
    sched = make_schedule(station, window, seed=0)
    assert sched.initial.id == "a"
    t, label = next(iter(sched.switches))
    assert (t, label.id) == (-15.84070272772371, "a2")
    assert (sched.initial, list(sched.switches)) == periodic_oracle(station, window)


@st_.composite
def far_periodic_windows(draw):
    """A periodic window of up to 300 periods whose phase and
    start sit up to 1e22 from zero, where float spacing can exceed the
    period."""
    period = draw(st_.floats(1e-3, 10.0))
    scale = 10.0 ** draw(st_.integers(0, 22))
    phase = draw(st_.floats(-1.0, 1.0)) * scale
    start = draw(st_.just(phase) | st_.floats(-1.0, 1.0).map(lambda u: u * scale))
    end = start + draw(st_.floats(0.0, 300.0)) * period
    return _periodic_case(period, phase, start, end)


@settings(max_examples=300, deadline=None)
@given(far_periodic_windows())
@example(_periodic_case(0.5, 1e20, -3.0, 34999.649999999994))
@example(_periodic_case(0.5, 0.0, 1e17, 1e17 + 100.0))
def test_periodic_window_far_from_zero_is_built_exactly_or_refused(case):
    # a window is built when its switch times are distinct floats, equal to
    # the loop's; adjacent times that round together are refused up front,
    # and only when the period is within a few float spacings of the times
    station, (start, end) = case
    first, last = (start - station.phase) / station.period, (end - station.phase) / station.period
    assume(last - first <= 100_000)
    # from below floor's k, which can round one too high
    ks = range(math.floor(first) - 1, math.floor(last) + 3)
    times = [t for t in (station.phase + k * station.period for k in ks) if t <= end]
    distinct = all(u < v for u, v in zip(times, times[1:]))
    try:
        sched = make_schedule(station, (start, end), seed=0)
    except ConfigError as exc:
        assert "closer than their float rounding" in str(exc)
        reach = max(abs(station.phase), abs(start), abs(end)) + station.period
        assert station.period <= 8 * math.ulp(reach)
        return
    assert distinct
    # a rounded switch not after the start is folded into the initial label
    assert sched.switches.times.tolist() == [t for t in times if t > start]


def test_random_switch_requires_positive_rate():
    with pytest.raises(ConfigError):
        StationConfig(station=1, labels=QUARTET_1, kind="random_switch", rate=0.0)


def test_random_switch_schedule_statistics():
    st = random_station(1, QUARTET_1, rate=2.0)
    sched = make_schedule(st, window=(0.0, 1000.0), seed=3)
    n = len(sched.interventions)
    assert abs(n - 2000) < 300  # poisson count at rate * span
    assert np.all(np.diff(sched.interventions.effect_times) >= 0)


class _ShortGaps:
    """A generator whose exponential gaps are ``shrink`` times the scale
    asked for, so a first chunk sized for the window can fall short of it
    and the draw loop extends."""

    def __init__(self, rng, shrink):
        self.rng, self.shrink = rng, shrink

    def exponential(self, scale, size):
        return self.rng.exponential(scale=scale * self.shrink, size=size)

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)


@settings(max_examples=150, deadline=None)
@given(
    rate=st_.floats(0.05, 50.0),
    start=st_.floats(-20.0, 0.0),
    span=st_.floats(0.0, 40.0),
    seed=st_.integers(0, 2**32),
    station=st_.sampled_from([1, 2]),
    n_labels=st_.integers(1, 5),
    shrink=st_.sampled_from([1.0, 0.5, 0.1]),
    block=st_.sampled_from([1, 7, 64, BLOCK_SIZE]),
)
@example(rate=2.0, start=-5.0, span=40.0, seed=1, station=1, n_labels=3, shrink=0.1, block=7)
def test_random_switch_draw_matches_masked_cumsum(
    rate, start, span, seed, station, n_labels, shrink, block
):
    # the reference draws one exponential chunk per pass and keeps it by a
    # fresh cumsum and a boolean mask, joins the chunks with one
    # concatenation and takes every pick from one int64 integers call.
    # The in-place cumsum, each chunk shrunk in place to its prefix and the
    # picks drawn ``block`` at a time and narrowed to one byte take the
    # same values from the same stream.  A shrink below 0.83 makes the
    # first chunk fall short of the window.
    end = start + span
    labels = {f"a{k}": 0.3 * k for k in range(n_labels)}
    config = random_station(station, labels, rate)
    with mock.patch.object(scenarios, "substream",
                           lambda *key: _ShortGaps(substream(*key), shrink)), \
            mock.patch.object(scenarios, "BLOCK_SIZE", block):
        sched = make_schedule(config, (start, end), seed, 0.5)
    rng = _ShortGaps(substream(seed, 100 + station), shrink)
    times, t = [], start
    chunk = max(16, int(rate * span * 1.2) + 16)
    while t <= end:
        cum = t + np.cumsum(rng.exponential(scale=1.0 / rate, size=chunk))
        times.append(cum[cum <= end])
        t = float(cum[-1])
    decisions = np.concatenate(times)
    picks = rng.integers(0, n_labels, size=decisions.size)
    iv = sched.interventions
    assert iv.decision_times.tobytes() == decisions.tobytes()
    # no unused draws held behind a view
    assert iv.decision_times.base is None and iv.decision_times.flags.owndata
    assert iv.effect_times.tobytes() == (decisions + 0.5).tobytes()
    assert iv.label_indices.dtype == np.uint8
    assert np.array_equal(iv.label_indices, picks)
    assert [lbl.id for lbl in iv.labels] == list(labels)


@pytest.mark.parametrize("rate", [1e12, 1e15, 1e300, 1e308])
def test_random_switch_refuses_more_interventions_than_the_index_holds(rate):
    # a window of 1 expects ``rate`` interventions; the timeline's int32
    # decision index holds 2**31 - 1, and the refusal comes before any
    # draw.  Every rate here asks for terabytes or more, so a tree without
    # the check fails to allocate rather than drawing.
    station = random_station(2, QUARTET_2, rate)
    with pytest.raises(ConfigError, match=r"^station2\.rate .* expects more than 2\*\*31 - 1"):
        make_schedule(station, window=(0.0, 1.0), seed=0)


def test_stream_schedule(tmp_path):
    path = tmp_path / "stream.csv"
    path.write_text(
        "station,decision_time,delay,label,source_tag\n1,3.0,0.0,a2,ext\n"
    )
    st = StationConfig(
        station=1, labels=QUARTET_1, kind="stream", stream_path=str(path), base="a"
    )
    sched = make_schedule(st, window=(0.0, 10.0), seed=0)
    assert actual_ids(sched, 2.9, 3.0) == ["a", "a2"]


def test_stream_schedule_needs_file():
    with pytest.raises(ConfigError):
        StationConfig(station=1, labels=QUARTET_1, kind="stream")


# ----------------------------------------------------------------------
# scenario runs
# ----------------------------------------------------------------------


def test_aspect_periodic_all_both_equal():
    # both stations cycle with full period equal to the light-crossing time
    result = run_scenario(base_config())
    assert result.classification["both-equal"] == 1.0
    assert sum(result.classification.values()) == pytest.approx(1.0, abs=1e-12)
    # no retarded octuple can be complete when retarded always equals actual
    assert any(s["name"] == "retarded_chsh" for s in result.skipped)


def test_delay_control_restores_both_equal():
    config = base_config(
        station1=random_station(1, QUARTET_1, rate=3.0),
        station2=random_station(2, QUARTET_2, rate=3.0),
        retarded_definition="predictive",
        intervention_delay=1.5,  # 1.5 * L/c
        n_trials=3000,
    )
    result = run_scenario(config)
    assert result.classification["both-equal"] == 1.0


def test_zero_delay_random_switch_mixes_classes():
    config = base_config(
        geometry=Geometry(separation=4.0, signal_speed=1.0, t0=-6.0),
        station1=random_station(1, QUARTET_1, rate=2.0),
        station2=random_station(2, QUARTET_2, rate=2.0),
        spacing=1.0,
        n_trials=20_000,
        min_count=100,
    )
    result = run_scenario(config)
    for fraction in result.classification.values():
        assert 0.2 < fraction < 0.3
    # every retarded combination should be represented
    assert len(result.retarded_weights) == 4
    assert sum(result.retarded_weights.values()) == pytest.approx(1.0)
    names = {r.name for r in result.reports}
    assert {"retarded_chsh", "same_retarded_chsh", "retarded_ch", "averaged_chsh"} <= names
    for r in result.reports:
        assert r.verdict in ("satisfied", "inconclusive")
    assert result.independence is not None


def test_quantum_scenario_lambda_free_and_violations():
    config = base_config(
        geometry=Geometry(separation=4.0, signal_speed=1.0, t0=-6.0),
        model="quantum-singlet",
        station1=random_station(1, QUARTET_1, rate=2.0),
        station2=random_station(2, QUARTET_2, rate=2.0),
        spacing=1.0,
        n_trials=60_000,
        min_count=100,
    )
    result = run_scenario(config)
    assert result.log.lam is None
    chsh_reports = [r for r in result.reports if r.name == "retarded_chsh"]
    assert chsh_reports
    # the quantum reference ignores retarded settings, so every octuple sees
    # the full violation modulo noise
    assert any(r.verdict == "violated" for r in chsh_reports)


def test_scenario_ch_reports_match_public_estimator():
    from rbell.estimation import marginal_p1, marginal_p2
    from rbell.inequalities import Correlation, retarded_ch
    from test_estimation import estimate_ch_probs  # the mask-scan oracle

    config = base_config(
        geometry=Geometry(separation=4.0, signal_speed=1.0, t0=-6.0),
        station1=random_station(1, QUARTET_1, rate=2.0),
        station2=random_station(2, QUARTET_2, rate=2.0),
        spacing=1.0,
        n_trials=20_000,
        min_count=100,
    )
    result = run_scenario(config)
    targets = [r for r in result.reports if r.name == "retarded_ch"]
    assert targets
    for report in targets[:4]:
        ids = report.inputs
        octuple = ("a", "a2", "b", "b2", ids["ar"], ids["a2r"], ids["br"], ids["b2r"])
        cells = {}
        for q in octuple_cells(*octuple):
            est = estimate_ch_probs(result.log, *q)
            cells[q] = Correlation(est.p12, est.p12_se, est.p12_count,
                                   est.p12_count >= config.min_count)
        # the singles at (a2 | b2r) and (b2 | a2r), those of cell (a2, b2, a2r, b2r)
        p1, p1_se, n1 = marginal_p1(TrialCounts(result.log), "a2", ids["b2r"])
        p2, p2_se, n2 = marginal_p2(TrialCounts(result.log), "b2", ids["a2r"])
        est = estimate_ch_probs(result.log, "a2", "b2", ids["a2r"], ids["b2r"])
        assert (p1, p1_se, n1, p2, p2_se, n2) == (
            est.p1, est.p1_se, est.p1_count, est.p2, est.p2_se, est.p2_count)
        recomputed = retarded_ch(cells, Correlation(p1, p1_se, n1),
                                 Correlation(p2, p2_se, n2), *octuple)
        assert recomputed.value == report.value
        assert recomputed.combined_se == report.combined_se


def _far_retarded_toy():
    """A deterministic local model that needs no lambda: A = +1 only at
    (a2 | b_r = b2), and B = +1 at b and at (b2 | a_r = a2).  Angles are
    compared modulo 2*pi: the config's b = -pi/4 is stored as 7*pi/4."""
    def at(x, flag):
        angle = {**QUARTET_1, **QUARTET_2}[flag]
        return np.abs(np.remainder(np.asarray(x) - angle + math.pi, math.tau) - math.pi) < 1e-9

    def signs(plus, lam):
        return np.where(np.broadcast_to(plus, np.shape(lam)), 1, -1).astype(np.int8)

    return DeterministicLHV(
        name="far-retarded-toy",
        hidden=HiddenSpace.uniform_circle(),
        outcome_A=lambda a, b_r, lam: signs(at(a, "a2") & at(b_r, "b2"), lam),
        outcome_B=lambda b, a_r, lam: signs(at(b, "b") | (at(b, "b2") & at(a_r, "a2")), lam),
    )


def test_ch_singles_conditioned_on_the_far_retarded_setting_keep_a_local_model_inside():
    # The cells that hold a2 read A(a2, b2r), so the subtracted single is
    # p1(a2 | b_r = b2r), and likewise p2(b2 | a_r = a2r).  Singles averaged
    # over every retarded setting called this local model violated: the
    # report at a2r = a2, b2r = b2 read 1.0032 against the bound 0, at 142
    # sigma.  Its answers are exact, so each report is exactly -1 or 0.
    path = Path(__file__).resolve().parent.parent / "configs" / "fast_random_switching.ini"
    config = replace(load_config(path), model="far-retarded-toy", n_trials=20_000, min_count=10)
    register_model("far-retarded-toy", _far_retarded_toy)
    try:
        result = run_scenario(config)
    finally:
        _FACTORIES.pop("far-retarded-toy", None)
    assert not result.violated()
    ch = {(r.inputs["a2r"], r.inputs["b2r"], r.inputs["ar"], r.inputs["br"]): r.value
          for r in result.reports if r.name == "retarded_ch"}
    assert len(ch) == 16 and set(ch.values()) == {-1.0, 0.0}
    assert ch["a2", "b2", "a", "b"] == 0.0
    assert all(r.verdict == "satisfied" for r in result.reports)


def test_classification_and_weights_helpers():
    result = run_scenario(base_config(n_trials=500))
    fr = classify_fractions(TrialCounts(result.log))
    assert fr == result.classification
    w = empirical_weights(TrialCounts(result.log))
    assert w == result.retarded_weights


def test_replay_recomputes_identical_retarded_labels():
    for definition, delay in (("simple", 0.0), ("predictive", 0.3)):
        config = base_config(
            station1=random_station(1, QUARTET_1, rate=2.0),
            station2=random_station(2, QUARTET_2, rate=2.0),
            retarded_definition=definition,
            intervention_delay=delay,
            n_trials=4000,
        )
        log = run_scenario(config).log
        ar, br = replay_retarded(config, log)
        assert np.array_equal(ar, log.a_r)
        assert np.array_equal(br, log.b_r)
        # rows out of time order are ranked in time order and scattered
        # back, over several merges of the rank search
        shuffled = np.random.default_rng(3).permutation(len(log))
        columns = (log.t1, log.t2, log.a, log.b, log.a_r, log.b_r, log.outcome_1, log.outcome_2)
        back = TrialLog(log.palette, *(column[shuffled] for column in columns))
        with mock.patch.object(spacetime, "_MERGE_CHUNK", 256):
            ar, br = replay_retarded(config, back)
        assert np.array_equal(ar, log.a_r[shuffled])
        assert np.array_equal(br, log.b_r[shuffled])


def test_replay_indexes_the_merged_palette_not_the_logs(tmp_path):
    # replay_retarded returns indices into the config's merged palette
    # (a, a2, b, b2 here); a log read from disk lists ids in first-seen order
    config = base_config(
        station1=random_station(1, QUARTET_1, rate=2.0),
        station2=random_station(2, QUARTET_2, rate=2.0),
        start=0.7,
    )
    result = run_scenario(config)
    merged = np.array(result.log.ids())
    assert tuple(merged) == ("a", "a2", "b", "b2")
    back = read_trial_log(result.write_outputs(tmp_path)["trials"])
    assert back.ids() == ("a2", "b2", "a", "b")
    ar, br = replay_retarded(config, back)
    assert np.array_equal(ar, result.log.a_r) and np.array_equal(br, result.log.b_r)
    assert not np.array_equal(ar, back.a_r)
    assert np.array_equal(merged[ar], np.array(back.ids())[back.a_r])
    assert np.array_equal(merged[br], np.array(back.ids())[back.b_r])


def test_actual_columns_are_looked_up_only_where_read():
    # a predictive run takes the actual column from the predictive
    # lookup's rank search, and a replay looks up retarded columns alone
    def spy(name):
        method = getattr(SettingSchedule, name)
        return mock.patch.object(SettingSchedule, name, autospec=True, side_effect=method)

    for definition, run_calls, replay_calls in (("simple", (4, 0), (2, 0)),
                                                ("predictive", (0, 2), (0, 2))):
        config = base_config(
            station1=random_station(1, QUARTET_1, rate=2.0),
            station2=random_station(2, QUARTET_2, rate=2.0),
            retarded_definition=definition,
            n_trials=300,
        )
        with spy("value_index_at") as simple, spy("predictive_index_at") as predictive:
            log = run_scenario(config).log
        assert (simple.call_count, predictive.call_count) == run_calls
        with spy("value_index_at") as simple, spy("predictive_index_at") as predictive:
            ar, br = replay_retarded(config, log)
        assert (simple.call_count, predictive.call_count) == replay_calls
        assert np.array_equal(ar, log.a_r) and np.array_equal(br, log.b_r)


def test_replay_refuses_a_nan_time():
    for definition in RETARDED_DEFINITIONS:
        config = base_config(retarded_definition=definition, n_trials=50)
        log = run_scenario(config).log
        log.t2[7] = math.nan
        with pytest.raises(UndefinedTimeError, match="nan is not a number"):
            replay_retarded(config, log)


# Times on a grid of 0.25, so trials, switches, retarded times, cutoffs
# and stream decisions and effects tie.
STREAM_DELAYS = (0.0, 0.5, 1.5, 3.0)


@st_.composite
def settings_cases(draw):
    """A config over every schedule kind and definition, and the stream
    file rows its stream stations read."""
    tau = draw(st_.sampled_from((1.0, 2.0, 4.0)))
    n = draw(st_.integers(1, 300))
    spacing = draw(st_.sampled_from((0.25, 0.5, 1.0)))
    t0 = -tau - 1.3
    rows, stations = [], []
    for k, labels in ((1, QUARTET_1), (2, QUARTET_2)):
        kind = draw(st_.sampled_from(SCHEDULE_KINDS))
        if kind == "periodic":
            station = StationConfig(
                station=k, labels=labels, kind=kind, cycle=tuple(labels),
                period=draw(st_.sampled_from((0.25, 0.5, 1.0))),
                phase=draw(st_.sampled_from((0.0, 0.25))),
            )
        elif kind == "random_switch":
            station = random_station(k, labels, draw(st_.floats(0.25, 4.0)))
        else:
            station = StationConfig(station=k, labels=labels, kind=kind, stream_path="-")
            grid = st_.integers(int(t0 / 0.25), int((n - 1) * spacing / 0.25) + 4)
            rows += [
                f"{k},{d * 0.25},{delay},{lid},x\n"
                for d, delay, lid in draw(st_.lists(st_.tuples(
                    grid, st_.sampled_from(STREAM_DELAYS), st_.sampled_from(tuple(labels))
                ), max_size=40))
            ]
        stations.append(station)
    config = ScenarioConfig(
        geometry=Geometry(separation=tau, signal_speed=1.0, t0=t0),
        model=draw(st_.sampled_from(("hardy-singlet", "quantum-singlet", "hardy-noisy"))),
        station1=stations[0],
        station2=stations[1],
        quartet=("a", "a2", "b", "b2"),
        n_trials=n,
        spacing=spacing,
        seed=draw(st_.integers(0, 1000)),
        retarded_definition=draw(st_.sampled_from(RETARDED_DEFINITIONS)),
        intervention_delay=draw(st_.sampled_from((0.0, 0.5, 1.5))),
    )
    return config, "".join(rows)


@settings(max_examples=80, deadline=None)
@given(settings_cases())
def test_settings_and_sampling_match_the_two_schedule_oracle(case):
    # one schedule at a time, label columns of the smallest dtype and
    # angles gathered per block give the values of both schedules kept,
    # int64 columns and full-length angle arrays; 64-trial blocks make
    # several blocks of a few hundred trials
    config, rows = case
    register_model("hardy-noisy", _noisy_hardy)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "stream.csv"
            path.write_text("station,decision_time,delay,label,source_tag\n" + rows)
            config = replace(config, **{
                f"station{k}": replace(st, stream_path=str(path))
                for k, st in ((1, config.station1), (2, config.station2)) if st.kind == "stream"
            })
            with mock.patch.object(estimation, "BLOCK_SIZE", 64):
                expect = oracle_trials(config)
                log = run_scenario(config).log
            replayed = replay_retarded(config, log)
    finally:
        _FACTORIES.pop("hardy-noisy", None)
    names = ("a", "b", "a_r", "b_r", "outcome_1", "outcome_2", "lam")
    for name, want in zip(names, expect):
        got = getattr(log, name)
        if want is None:
            assert got is None, name
        elif name in ("a", "b", "a_r", "b_r"):
            # the oracle's label columns are int64; the log keeps one byte
            assert got.dtype == np.uint8 and np.array_equal(got, want), name
        else:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert np.array_equal(replayed[0], expect[2]) and np.array_equal(replayed[1], expect[3])


@st_.composite
def count_tensors(draw):
    """Palette ids (not in sorted order), a (p, p, p, p) count tensor with a
    random zero pattern, and a quartet of palette ids, for p from 1 to 5."""
    p = draw(st_.integers(1, 5))
    ids = tuple(draw(st_.permutations(["b2", "a", "x10", "a2", "b"]))[:p])
    rng = np.random.default_rng(draw(st_.integers(0, 2**32 - 1)))
    density = draw(st_.sampled_from([0.2, 0.6, 0.9, 1.0]))
    cells = rng.integers(1, 4, (p,) * 4) * (rng.random((p,) * 4) < density)
    quartet = dict(zip(("a", "a2", "b", "b2"), draw(st_.lists(st_.sampled_from(ids),
                                                              min_size=4, max_size=4))))
    return ids, cells, quartet


@settings(max_examples=300, deadline=None)
@given(count_tensors())
def test_octuples_match_the_pair_set_oracle(case):
    # the same octuples in the same order, and the same same-retarded decision
    ids, cells, quartet = case
    observed = {tuple(ids[k] for k in cell) for cell in zip(*np.nonzero(cells))}
    found = _complete_octuples(SimpleNamespace(ids=ids, cells=cells), quartet)
    assert found == oracle_octuples(observed, quartet)


def test_run_scenario_in_bounded_memory():
    # one schedule is built and looked up at a time, and angles are
    # gathered per block: keeping both schedules through sampling and
    # four full-length angle arrays peaked at 23.6 MiB here, building both
    # schedules before either lookup at 7.5 MiB; this reads 6.0 MiB
    path = Path(__file__).resolve().parent.parent / "configs" / "fast_random_switching.ini"
    config = replace(load_config(path), n_trials=100_000)
    assert traced_peak_mib(lambda: run_scenario(config)) < 8


def test_run_scenario_labels_take_one_byte_and_schedules_store_no_effect_times():
    # labels are one byte per trial, schedules keep no effect-time copy, the
    # simple lookup never ranks decision indices, and each station's
    # schedule is built on its own.  The traced peak read 82.3 bytes per
    # trial here, 86.5 with both schedules built together and 126.6 with
    # int64 labels and stored effect times; the bound leaves about 20%
    # headroom.
    path = Path(__file__).resolve().parent.parent / "configs" / "fast_random_switching.ini"
    config = replace(load_config(path), n_trials=20_000)
    assert config.retarded_definition == "simple"
    built = []
    build = scenarios.build_schedules

    def keep(config, stations=(1, 2)):
        built.append(build(config, stations))
        return built[-1]

    with mock.patch.object(scenarios, "build_schedules", keep):
        log = run_scenario(config).log
    for name in ("a", "b", "a_r", "b_r"):
        assert getattr(log, name).dtype == np.uint8, name
    assert [[s.station for s in schedules] for schedules in built] == [[1], [2]]
    for (schedule,) in built:
        assert "_events" in vars(schedule) and "_decisions" not in vars(schedule)
        assert "effect_times" not in vars(schedule.interventions)
    del built[:], log
    peak = traced_peak_mib(lambda: run_scenario(config))
    assert peak * 2**20 / config.n_trials < 100
    # a fixed scratch buffer is part of that quotient at 2e4 trials; the
    # slope to 1e5 trials is the cost of one more trial alone.  It read
    # 57.3 bytes a trial here; the bound leaves about 20% headroom.
    more = replace(config, n_trials=100_000)
    slope = (traced_peak_mib(lambda: run_scenario(more)) - peak) * 2**20 / (
        more.n_trials - config.n_trials)
    assert slope < 69


def test_settings_stage_holds_one_station_at_a_time():
    # one schedule is built, looked up BLOCK_SIZE trials at a time into
    # one-byte columns, and dropped before the next is built: 49 bytes a
    # trial here, against 71 with both stations' intervention streams built
    # before either lookup and full-length shifted-time and position arrays.
    # The first pass warms up.
    path = Path(__file__).resolve().parent.parent / "configs" / "fast_random_switching.ini"
    config = replace(load_config(path), n_trials=200_000)
    assert config.retarded_definition == "simple"
    _, index = _merge_palettes(config)
    times = config.start + config.spacing * np.arange(config.n_trials)
    for _ in range(2):
        peak = traced_peak_mib(lambda: _station_settings(config, index, times, times))
    assert peak * 2**20 / config.n_trials < 56


def test_predictive_settings_in_the_simple_settings_memory():
    # the predictive lookup lifts over the ranks a block of 2048 targets
    # can reach: a sparse table over every event rank, or one block of
    # BLOCK_SIZE targets, peaked at 3.0x the simple settings' peak here;
    # this reads 1.3x (1.6x with blocks of 4096).  The first pass of each
    # warms up.
    path = Path(__file__).resolve().parent.parent / "configs" / "fast_random_switching.ini"
    config = replace(load_config(path), n_trials=20_000)
    _, index = _merge_palettes(config)
    times = config.start + config.spacing * np.arange(config.n_trials)
    peaks = {}
    for definition in RETARDED_DEFINITIONS * 2:
        run = replace(config, retarded_definition=definition)
        peaks[definition] = traced_peak_mib(lambda: _station_settings(run, index, times, times))
    assert peaks["predictive"] <= 1.5 * peaks["simple"]


def test_run_bit_reproducible():
    config = base_config(
        station1=random_station(1, QUARTET_1, rate=2.0),
        station2=random_station(2, QUARTET_2, rate=2.0),
        n_trials=5000,
    )
    r1 = run_scenario(config)
    r2 = run_scenario(config)
    assert np.array_equal(r1.log.outcome_1, r2.log.outcome_1)
    assert np.array_equal(r1.log.lam, r2.log.lam)
    assert np.array_equal(r1.log.a_r, r2.log.a_r)
    assert [r.value for r in r1.reports] == [r.value for r in r2.reports]


@pytest.mark.parametrize("model", ["quantum-singlet", "hardy-lifted"])
def test_run_rerun_identity_per_model(model):
    # over several blocks, the nonlocal sampler and the stochastic lift of
    # hardy give the same log on a rerun
    register_model("hardy-lifted", lambda: StochasticLHV.from_deterministic(get_model("hardy")))
    try:
        config = base_config(model=model, n_trials=int(2.5 * BLOCK_SIZE), spacing=0.05)
        logs = [run_scenario(config).log for _ in range(2)]
    finally:
        _FACTORIES.pop("hardy-lifted", None)
    assert logs[0].lam is None if model == "quantum-singlet" else logs[0].lam is not None
    assert logs[1].palette == logs[0].palette
    for name in ("t1", "t2", "a", "b", "a_r", "b_r", "outcome_1", "outcome_2", "lam"):
        assert np.array_equal(getattr(logs[1], name), getattr(logs[0], name)), name


def _noisy_hardy():
    # stochastic: both stations draw a uniform per trial, in station order
    return StochasticLHV(
        name="hardy-noisy",
        hidden=HiddenSpace.uniform_circle(),
        p1=lambda a, b_r, lam: 0.5 + 0.3 * hardy_outcome_A(a, b_r, lam),
        p2=lambda b, a_r, lam: 0.5 + 0.3 * hardy_outcome_B(b, a_r, lam),
    )


#: SHA-256 of ``trials.columns/index.json`` for the runs pinned below.
COLUMN_INDEX_SHA = {
    "hardy-singlet": "65c5a869b25ac07f90ace0ef88fc892334603367e09dfcfd000f29b2a7911df7",
    "hardy-noisy": "55c46b760b4f678f6cdb643b7286db8c3fa6c1804e41293db0dbf791509d8758",
    "quantum-singlet": "7552dad2b9665b373dddf340d25699d085215cd93215af1438ec7bc6c75c8307",
}


@pytest.mark.parametrize(
    "model,trials_sha,table_sha,reports_sha",
    [
        ("hardy-singlet", "f87ef2341244d7aad5e9118746834a0aee24b51ea1e6075e022893dc2b580027",
         "240a892713777b38e2da04168c3ef3c0969c52bb89f2da8d8a2905bf86dd81dc",
         "a946acbeb226081903ff2f33690cdd665cc06e2ca28455eea4b0aa12cd5264c0"),
        ("hardy-noisy", "37bf2d859644f2e9f2dc76089e95745c31b044b89f7be1896ad32bf85c128cc4",
         "f5e71eb25ea89569c8eb9b3af1b5bb6e2fb645631a062432aef0dfc048dd1fd2",
         "ca10ce3322ba4e4c20ca5e6d6a2a2adc8109d18535f5c5f169e8761784e9eec5"),
        ("quantum-singlet", "d8a6d99f28fc2f9e319fd95a391cd297c474ca8272e5a185a55335f9121f113d",
         "fd0e3559414a639511cb3dd0afc7ba9c64c8d58df712feb42f73877c64071170",
         "a2558b7c8e5668c7c41d71a4f6521be3adb004b4401a30f0c43eb745ce3e91a6"),
    ],
)
def test_artifacts_match_pinned_digests(tmp_path, model, trials_sha, table_sha, reports_sha):
    # pinned bytes for (config, seed): a change to the draw order or the
    # sampling arithmetic of any model kind shows here
    register_model("hardy-noisy", _noisy_hardy)
    try:
        config = base_config(
            model=model,
            station1=random_station(1, QUARTET_1, 2.0),
            station2=random_station(2, QUARTET_2, 2.0),
            n_trials=3000,
        )
        paths = run_scenario(config).write_outputs(tmp_path)
    finally:
        _FACTORIES.pop("hardy-noisy", None)
    assert hashlib.sha256(paths["trials"].read_bytes()).hexdigest() == trials_sha
    assert hashlib.sha256(paths["correlations"].read_bytes()).hexdigest() == table_sha
    assert hashlib.sha256(paths["reports"].read_bytes()).hexdigest() == reports_sha
    # the pinned index records the digest of every column file, and of the CSV
    folder = columns_dir(paths["trials"])
    index = (folder / "index.json").read_bytes()
    assert hashlib.sha256(index).hexdigest() == COLUMN_INDEX_SHA[model]
    digests = json.loads(index)["digests"]
    assert digests.pop("csv") == trials_sha
    assert {p.name for p in folder.iterdir()} == {f"{k}.npy" for k in digests} | {"index.json"}
    for name, sha in digests.items():
        assert hashlib.sha256((folder / f"{name}.npy").read_bytes()).hexdigest() == sha


def test_different_seeds_differ():
    c1 = base_config(seed=1)
    c2 = base_config(seed=2)
    assert not np.array_equal(
        run_scenario(c1).log.outcome_1, run_scenario(c2).log.outcome_1
    )


def test_t0_must_precede_first_retarded_time():
    with pytest.raises((ConfigError, ValueError)):
        run_scenario(base_config(
            geometry=Geometry(separation=1.0, signal_speed=1.0, t0=-1.0),
        ))


def test_t0_must_precede_start_less_retardation_in_the_config():
    # the config type holds the measurement times, so it refuses a start
    # less L/c at or before t0, before any run
    with pytest.raises(ConfigError, match=r"^geometry\.t0 must precede start - L/c$"):
        base_config(start=-2.5)


def test_outputs_written(tmp_path):
    result = run_scenario(base_config(n_trials=300))
    paths = result.write_outputs(tmp_path / "out")
    assert paths["trials"].exists()
    lines = paths["trials"].read_text().splitlines()
    assert len(lines) == 301
    reports = json.loads(paths["reports"].read_text())
    assert isinstance(reports, list)
    summary = json.loads(paths["classification"].read_text())
    assert summary["fractions"]["both-equal"] == 1.0
    assert "independence" in summary


# ----------------------------------------------------------------------
# config files
# ----------------------------------------------------------------------


CONFIG_TEXT = """
[geometry]
separation = 4.0
signal_speed = 1.0
t0 = -6.0

[model]
name = hardy-singlet

[station1]
labels = a=pi/2, a2=0
schedule = random_switch
rate = 2.0

[station2]
labels = b=-pi/4, b2=pi/4
schedule = periodic
period = 0.5
phase = 0.25
cycle = b, b2

[run]
n_trials = 1000
spacing = 1.0
start = 0.0
seed = 42
retarded_definition = predictive
intervention_delay = 0.25
quartet = a, a2, b, b2
min_count = 10
"""


@pytest.mark.parametrize(
    "name,expect_both_equal",
    [
        ("periodic_aspect_style.ini", 1.0),
        ("delay_control.ini", 1.0),
        ("fast_random_switching.ini", None),
    ],
)
def test_shipped_configs_run(name, expect_both_equal):
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "configs" / name
    config = load_config(path)
    from dataclasses import replace

    result = run_scenario(replace(config, n_trials=2000))
    if expect_both_equal is not None:
        assert result.classification["both-equal"] == expect_both_equal
    else:
        assert 0.2 < result.classification["both-equal"] < 0.3


def test_load_config_full(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(CONFIG_TEXT)
    config = load_config(path)
    assert config.model == "hardy-singlet"
    assert config.geometry.retardation == 4.0
    assert config.station1.kind == "random_switch"
    assert config.station2.cycle == ("b", "b2")
    assert config.station1.labels["a"] == pytest.approx(math.pi / 2)
    assert config.retarded_definition == "predictive"
    assert config.intervention_delay == 0.25
    assert config.quartet == ("a", "a2", "b", "b2")
    result = run_scenario(config)
    assert len(result.log) == 1000


#: Per section, each optional key as (ini text, config field, value).
OPTIONAL_KEYS = {
    "model": [("name = quantum-singlet", "model", "quantum-singlet")],
    "station1": [("phase = 0.25", "phase", 0.25), ("switch_labels = a2, a", "switch_labels",
                  ("a2", "a")), ("base = a2", "base", "a2"), ("period = 3", "period", 3.0)],
    "station2": [("phase = -0.5", "phase", -0.5), ("base = b2", "base", "b2")],
    "run": [("start = 0.5", "start", 0.5), ("seed = 7", "seed", 7),
            ("retarded_definition = predictive", "retarded_definition", "predictive"),
            ("intervention_delay = 0.75", "intervention_delay", 0.75),
            ("min_count = 10", "min_count", 10)],
}


@settings(max_examples=60, deadline=None)
@given(st_.fixed_dictionaries({section: st_.lists(st_.sampled_from(keys), unique=True)
                               for section, keys in OPTIONAL_KEYS.items()}))
def test_config_with_any_optional_keys_equals_the_dataclasses(chosen):
    # a key left out takes the config type's own default, and only there
    text = {
        "geometry": ["separation = 2.0", "signal_speed = 1.0", "t0 = -6.0"],
        "model": [],
        "station1": ["labels = a=pi/2, a2=0", "schedule = random_switch", "rate = 2.0"],
        "station2": ["labels = b=-pi/4, b2=pi/4", "schedule = periodic", "period = 0.5",
                     "cycle = b, b2"],
        "run": ["n_trials = 100", "spacing = 1.0", "quartet = a, a2, b, b2"],
    }
    fields = {section: {field: value for _, field, value in keys}
              for section, keys in chosen.items()}
    for section, keys in chosen.items():
        text[section] += [line for line, _, _ in keys]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.ini"
        path.write_text("".join(f"[{section}]\n" + "".join(f"{line}\n" for line in lines)
                                for section, lines in text.items()))
        config = load_config(path)
    assert config == ScenarioConfig(
        geometry=Geometry(separation=2.0, signal_speed=1.0, t0=-6.0),
        model=fields["model"].get("model", "hardy-singlet"),
        station1=StationConfig(station=1, labels={"a": math.pi / 2, "a2": 0.0},
                               kind="random_switch", rate=2.0, **fields["station1"]),
        station2=StationConfig(station=2, labels={"b": -math.pi / 4, "b2": math.pi / 4},
                               kind="periodic", period=0.5, cycle=("b", "b2"),
                               **fields["station2"]),
        quartet=("a", "a2", "b", "b2"),
        n_trials=100,
        spacing=1.0,
        **fields["run"],
    )


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(CONFIG_TEXT.replace("rate = 2.0", "rate = 2.0\nturbo = yes"))
    with pytest.raises(ConfigError, match="turbo"):
        load_config(path)


def test_load_config_unknown_section(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(CONFIG_TEXT + "\n[plotting]\nstyle = fancy\n")
    with pytest.raises(ConfigError, match="plotting"):
        load_config(path)


def test_load_config_missing_section(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(CONFIG_TEXT.replace("[model]\nname = hardy-singlet\n", ""))
    with pytest.raises(ConfigError, match="model"):
        load_config(path)


def test_load_config_bad_quartet(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(CONFIG_TEXT.replace("quartet = a, a2, b, b2", "quartet = a, a2"))
    with pytest.raises(ConfigError, match="quartet"):
        load_config(path)


def test_quartet_labels_must_exist():
    with pytest.raises(ConfigError):
        base_config(quartet=("a", "nope", "b", "b2"))


def test_shared_label_angle_consistency():
    st1 = periodic_station(1, {"x": 0.0, "a2": 1.0}, 0.5)
    st2 = periodic_station(2, {"x": 0.5, "b2": 2.0}, 0.5)
    with pytest.raises(ConfigError, match="inconsistent"):
        base_config(station1=st1, station2=st2, quartet=("x", "a2", "x", "b2"))


def test_independence_check_none_for_degenerate():
    result = run_scenario(base_config(n_trials=200))
    # aspect-periodic: retarded pair is a deterministic function of the
    # actual pair, but all four combinations still appear; the checker
    # only returns None when a margin is constant
    assert result.independence is not None
    single1 = StationConfig(
        station=1, labels={"a": 0.0}, kind="periodic", period=1.0, cycle=("a",)
    )
    single2 = StationConfig(
        station=2, labels={"b": 1.0}, kind="periodic", period=1.0, cycle=("b",)
    )
    config = base_config(
        station1=single1,
        station2=single2,
        quartet=("a", "a", "b", "b"),
        n_trials=200,
    )
    res = run_scenario(config)
    assert res.independence is None


# ----------------------------------------------------------------------
# independence_check against scipy
# ----------------------------------------------------------------------


def log_with_table(table):
    """A trial log whose (actual pair) x (retarded pair) table, over a
    four-label palette, is ``table`` padded with zero rows and columns."""
    p = 4
    rows, cols = np.nonzero(table)
    counts = table[rows, cols]
    actual, ret = np.repeat(rows, counts), np.repeat(cols, counts)
    n = len(actual)
    return TrialLog(
        palette=tuple(SettingLabel(f"s{k}", 0.0) for k in range(p)),
        t1=np.zeros(n), t2=np.zeros(n),
        a=actual // p, b=actual % p, a_r=ret // p, b_r=ret % p,
        outcome_1=np.ones(n), outcome_2=np.ones(n),
    )


@st_.composite
def count_tables(draw, max_side=16):
    """Count tables from 2 x 2 to max_side x max_side with zero cells but
    no zero row or column."""
    r = draw(st_.integers(2, max_side))
    c = draw(st_.integers(2, max_side))
    cells = draw(st_.lists(st_.integers(0, 40), min_size=r * c, max_size=r * c))
    table = np.array(cells, dtype=np.int64).reshape(r, c)
    table[np.arange(r), np.arange(r) % c] += 1
    table[np.arange(c) % r, np.arange(c)] += 1
    return table


@settings(max_examples=300, deadline=None)
@given(table=count_tables())
@example(table=np.array([[2, 3], [3, 5]]))  # Yates: every |E - O| < 0.5
@example(table=np.array([[0, 7], [4, 0]]))  # Yates with zero cells
@example(table=np.ones((16, 16), dtype=np.int64))  # the largest table, dof 225
def test_independence_statistic_matches_scipy(table):
    stats = pytest.importorskip("scipy.stats")
    res = independence_check(TrialCounts(log_with_table(table)))
    stat, _, dof, _ = stats.chi2_contingency(table)
    assert res.statistic == float(stat)
    assert res.dof == int(dof)


def test_critical_value_matches_scipy_for_every_dof():
    stats = pytest.importorskip("scipy.stats")
    # 225 = (16 - 1)**2 is the largest dof of a four-label palette
    for dof in range(1, 226):
        ref = float(stats.chi2.ppf(0.999, dof))
        assert abs(chi2_upper_quantile(0.001, dof) - ref) <= 5e-15 * ref, dof


# 0.999 quantiles, to 20 digits, of a 40-digit mpmath root of Q(dof / 2, x / 2) = 0.001
@pytest.mark.parametrize("dof,quantile", [
    (1, "10.827566170662732293"), (2, "13.815510557964274104"),
    (9, "27.877164871256573469"), (19, "43.820195964517533352"),
    (20, "45.314746618125861484"), (100, "149.44925277903871123"),
    (215, "284.81526332746784475"), (225, "296.28792609374677944"),
])
def test_critical_value_within_two_ulp_of_reference(dof, quantile):
    ref = float(quantile)
    assert abs(chi2_upper_quantile(0.001, dof) - ref) <= 4e-16 * ref


@settings(max_examples=100, deadline=None)
@given(
    table=count_tables(max_side=8),
    rows=st_.lists(st_.integers(0, 15), min_size=8, max_size=8, unique=True),
    cols=st_.lists(st_.integers(0, 15), min_size=8, max_size=8, unique=True),
)
def test_independence_check_drops_empty_rows_and_columns(table, rows, cols):
    stats = pytest.importorskip("scipy.stats")
    r, c = table.shape
    padded = np.zeros((16, 16), dtype=np.int64)
    padded[np.ix_(sorted(rows[:r]), sorted(cols[:c]))] = table
    res = independence_check(TrialCounts(log_with_table(padded)))
    stat, _, dof, _ = stats.chi2_contingency(table)
    ref = float(stats.chi2.ppf(0.999, dof))
    assert (res.statistic, res.dof) == (float(stat), int(dof))
    assert abs(res.critical_999 - ref) <= 5e-15 * ref
    assert res.independent == (float(stat) <= ref)

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

from rbell.errors import ConfigError
from rbell.estimation import TrialLog, columns_dir, read_trial_log
from rbell.models import (
    _FACTORIES,
    HiddenSpace,
    StochasticLHV,
    hardy_outcome_A,
    hardy_outcome_B,
    register_model,
)
from rbell.scenarios import (
    ScenarioConfig,
    StationConfig,
    chi2_upper_quantile,
    classify_fractions,
    empirical_weights,
    independence_check,
    load_config,
    make_schedule,
    replay_retarded,
    run_scenario,
)
from rbell.spacetime import Geometry, SettingLabel

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
        geometry=Geometry(separation=1.0, signal_speed=1.0, t1=0.0, t2=0.0, t0=-3.0),
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
    assert sched.value_at(0.5).id == "a"
    assert sched.value_at(1.5).id == "a2"
    assert sched.value_at(2.5).id == "a"


def test_periodic_schedule_phase():
    st = periodic_station(1, QUARTET_1, period=1.0, phase=0.25)
    sched = make_schedule(st, window=(0.0, 5.0), seed=0)
    assert sched.value_at(1.2).id == "a"
    assert sched.value_at(1.25).id == "a2"


LABELS_3 = {"a": 0.0, "a2": math.pi / 2, "a3": math.pi / 4}


def periodic_oracle(station, window):
    """The periodic base as a loop over k: the initial label and one
    ``(time, label)`` pair per switch."""
    start, end = window
    palette = station.palette()
    period = float(station.period)
    cycle = [palette[lid] for lid in station.cycle]
    m = len(cycle)
    k0 = math.floor((start - station.phase) / period)
    switches = []
    k = k0 + 1
    while station.phase + k * period <= end:
        switches.append((station.phase + k * period, cycle[k % m]))
        k += 1
    return cycle[k0 % m], switches


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
def test_periodic_schedule_matches_loop(case):
    station, window = case
    initial, switches = periodic_oracle(station, window)
    times = np.array([t for t, _ in switches], dtype=np.float64)
    # where rounding puts the first switch on the start, both must refuse
    if times.size and not (times[0] > window[0] and np.all(np.diff(times) > 0)):
        with pytest.raises(ValueError):
            make_schedule(station, window, seed=0)
        return
    sched = make_schedule(station, window, seed=0)
    assert sched.initial == initial
    assert sched.switches.times.tobytes() == times.tobytes()
    assert [lbl for _, lbl in sched.switches] == [lbl for _, lbl in switches]


def test_random_switch_requires_positive_rate():
    with pytest.raises(ConfigError):
        StationConfig(station=1, labels=QUARTET_1, kind="random_switch", rate=0.0)


def test_random_switch_schedule_statistics():
    st = random_station(1, QUARTET_1, rate=2.0)
    sched = make_schedule(st, window=(0.0, 1000.0), seed=3)
    n = len(sched.interventions)
    assert abs(n - 2000) < 300  # poisson count at rate * span
    assert np.all(np.diff(sched.interventions.effect_times) >= 0)


def test_stream_schedule(tmp_path):
    path = tmp_path / "stream.csv"
    path.write_text(
        "station,decision_time,delay,label,source_tag\n1,3.0,0.0,a2,ext\n"
    )
    st = StationConfig(
        station=1, labels=QUARTET_1, kind="stream", stream_path=str(path), base="a"
    )
    sched = make_schedule(st, window=(0.0, 10.0), seed=0)
    assert sched.value_at(2.9).id == "a"
    assert sched.value_at(3.0).id == "a2"


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
        geometry=Geometry(separation=4.0, signal_speed=1.0, t1=0, t2=0, t0=-6.0),
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
        geometry=Geometry(separation=4.0, signal_speed=1.0, t1=0, t2=0, t0=-6.0),
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
    from rbell.inequalities import Correlation, chsh_quadruples, retarded_ch
    from test_estimation import estimate_ch_probs  # the mask-scan oracle

    config = base_config(
        geometry=Geometry(separation=4.0, signal_speed=1.0, t1=0, t2=0, t0=-6.0),
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
        for q in chsh_quadruples(*octuple):
            est = estimate_ch_probs(result.log, *q)
            cells[q] = Correlation(est.p12, est.p12_se, est.p12_count,
                                   est.p12_count >= config.min_count)
        p1, p1_se, n1 = marginal_p1(result.log, "a2")
        p2, p2_se, n2 = marginal_p2(result.log, "b2")
        recomputed = retarded_ch(cells, Correlation(p1, p1_se, n1),
                                 Correlation(p2, p2_se, n2), *octuple)
        assert recomputed.value == report.value
        assert recomputed.combined_se == report.combined_se


def test_classification_and_weights_helpers():
    result = run_scenario(base_config(n_trials=500))
    fr = classify_fractions(result.log)
    assert fr == result.classification
    w = empirical_weights(result.log)
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
        result = run_scenario(config)
        ar, br = replay_retarded(config, result.log)
        assert np.array_equal(ar, result.log.a_r)
        assert np.array_equal(br, result.log.b_r)


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


def test_run_worker_invariance(monkeypatch):
    config = base_config(
        station1=random_station(1, QUARTET_1, rate=2.0),
        station2=random_station(2, QUARTET_2, rate=2.0),
        n_trials=int(2.5 * (1 << 16)),
        spacing=0.05,
    )
    monkeypatch.delenv("RBL_WORKERS", raising=False)
    serial = run_scenario(config, workers=1)
    threaded = run_scenario(config, workers=6)
    assert np.array_equal(serial.log.outcome_1, threaded.log.outcome_1)
    assert np.array_equal(serial.log.outcome_2, threaded.log.outcome_2)
    assert np.array_equal(serial.log.lam, threaded.log.lam)


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
    "hardy-singlet": "794a30bb7cfbb5a3b1e9d71528341b0d038b20605ff9a00d7120b5be1d7f591d",
    "hardy-noisy": "1322cd8222a38d1fabc07c000fe55b30a56d41dfe432f95d6d18ed74173868cc",
    "quantum-singlet": "f57673a8521428b34e7c1903856adcd4bc90543acbeb1de9c7085a7720512003",
}


@pytest.mark.parametrize(
    "model,trials_sha,table_sha,reports_sha",
    [
        ("hardy-singlet", "f87ef2341244d7aad5e9118746834a0aee24b51ea1e6075e022893dc2b580027",
         "240a892713777b38e2da04168c3ef3c0969c52bb89f2da8d8a2905bf86dd81dc",
         "a0e5a8992997ef365c9f4810abff2c952236c3722a1266f7573524e3e8d41374"),
        ("hardy-noisy", "37bf2d859644f2e9f2dc76089e95745c31b044b89f7be1896ad32bf85c128cc4",
         "f5e71eb25ea89569c8eb9b3af1b5bb6e2fb645631a062432aef0dfc048dd1fd2",
         "cb380d781001b2acefabd5fb47f461ed49a3c6f4d7365cda72659e3c44d3f3fa"),
        ("quantum-singlet", "d8a6d99f28fc2f9e319fd95a391cd297c474ca8272e5a185a55335f9121f113d",
         "fd0e3559414a639511cb3dd0afc7ba9c64c8d58df712feb42f73877c64071170",
         "7f6fcaadc417707e13d88da210ea4992fa64006919e611dc34cefb667aa7e827"),
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
            geometry=Geometry(separation=1.0, signal_speed=1.0, t1=0, t2=0, t0=-1.0),
        ))


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
    res = independence_check(log_with_table(table))
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
    res = independence_check(log_with_table(padded))
    stat, _, dof, _ = stats.chi2_contingency(table)
    ref = float(stats.chi2.ppf(0.999, dof))
    assert (res.statistic, res.dof) == (float(stat), int(dof))
    assert abs(res.critical_999 - ref) <= 5e-15 * ref
    assert res.independent == (float(stat) <= ref)

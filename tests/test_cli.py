import contextlib
import io
import itertools
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from rbell.cli import main

QUARTET_FLAGS = ["--a", "pi/2", "--a2", "0", "--b=-pi/4", "--b2", "pi/4"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
schedule = random_switch
rate = 2.0

[run]
n_trials = 20000
spacing = 1.0
start = 0.0
seed = 42
retarded_definition = simple
quartet = a, a2, b, b2
min_count = 100
"""


# ----------------------------------------------------------------------
# analytic
# ----------------------------------------------------------------------


def test_analytic_hardy_same_retarded(capsys):
    code, out, err = run_cli(
        capsys, ["analytic", "hardy", "same_retarded_chsh"] + QUARTET_FLAGS
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(-math.sqrt(2), abs=1e-9)
    assert data["verdict"] == "satisfied"
    assert "value=-1.414214" in err


def test_analytic_quantum_chsh_violates(capsys):
    code, out, err = run_cli(capsys, ["analytic", "quantum", "chsh"] + QUARTET_FLAGS)
    assert code == 3
    data = json.loads(out)
    assert data["value"] == pytest.approx(-2 * math.sqrt(2), abs=1e-9)
    assert data["verdict"] == "violated"
    assert "value=-2.828427" in err


def test_analytic_retarded_chsh_explicit_retarded(capsys):
    code, out, _ = run_cli(
        capsys,
        ["analytic", "hardy", "retarded_chsh"] + QUARTET_FLAGS
        + ["--ar", "pi/2", "--a2r", "pi/2", "--br=-pi/4", "--b2r=-pi/4"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(-math.sqrt(2), abs=1e-9)
    assert data["inputs"]["ar"] == "ar"


def test_analytic_retarded_ch_quantum(capsys):
    code, out, _ = run_cli(
        capsys, ["analytic", "quantum", "retarded_ch"] + QUARTET_FLAGS
    )
    assert code == 3
    data = json.loads(out)
    assert data["value"] == pytest.approx(-(1 + math.sqrt(2)) / 2, abs=1e-9)
    assert data["lower"] == -1.0 and data["upper"] == 0.0


def test_analytic_both_equal(capsys):
    code, out, _ = run_cli(
        capsys, ["analytic", "hardy", "both_equal", "--a", "0", "--b", "0"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == -2.0
    assert data["verdict"] == "satisfied"


def test_analytic_monte_carlo_cross_check(capsys):
    code, out, _ = run_cli(
        capsys,
        ["analytic", "hardy", "same_retarded_chsh"] + QUARTET_FLAGS
        + ["--n", "20000", "--seed", "3"],
    )
    assert code == 0
    data = json.loads(out)
    mc = data["monte_carlo"]
    se = mc["combined_se"]
    assert abs(mc["value"] - data["value"]) <= 5 * se
    assert mc["verdict"] == "satisfied"


RETARDED_ANGLE_FLAGS = ["--ar", "0.3", "--a2r", "1.1", "--br=-0.4", "--b2r", "2.0"]


# pinned exact and Monte Carlo (n=2000, seed 5) values, with and without
# the retarded flags
@pytest.mark.parametrize(
    "ineq,retarded,exact,mc",
    [
        ("retarded_chsh", False, -1.4142135623730951, -1.411),
        ("retarded_chsh", True, -0.5347728245756019, -0.427),
        ("same_retarded_chsh", False, -1.4142135623730951, -1.411),
        ("same_retarded_chsh", True, -1.4142135623730951, -1.411),
        ("chsh", False, -1.4142135623730951, -1.411),
        ("chsh", True, -1.4142135623730951, -1.411),
        ("both_equal", False, 1.414213562373095, 1.39),
        ("both_equal", True, 1.414213562373095, 1.39),
        ("one_end_equal", False, -1.4142135623730951, -1.384),
        ("one_end_equal", True, -1.6164042080122294, -1.609),
        ("retarded_ch", False, -0.8535533905932737, None),
        ("retarded_ch", True, -0.6336932061439006, None),
    ],
)
def test_analytic_every_inequality(capsys, ineq, retarded, exact, mc):
    argv = ["analytic", "hardy", ineq] + QUARTET_FLAGS
    argv += RETARDED_ANGLE_FLAGS if retarded else []
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(exact, abs=1e-12)
    assert "monte_carlo" not in json.loads(out)

    code, out, err = run_cli(capsys, argv + ["--n", "2000", "--seed", "5"])
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(exact, abs=1e-12)
    if mc is None:
        assert "monte_carlo" not in data
        assert f"--n is ignored for {ineq}" in err
    else:
        assert data["monte_carlo"]["value"] == pytest.approx(mc, abs=1e-12)


def test_analytic_unknown_model(capsys):
    code, _, err = run_cli(capsys, ["analytic", "pr-box", "chsh"] + QUARTET_FLAGS)
    assert code == 1
    assert "unknown model" in err


def test_analytic_missing_angle(capsys):
    code, _, err = run_cli(capsys, ["analytic", "hardy", "chsh", "--a", "0"])
    assert code == 1
    assert "--a2" in err


def test_analytic_bad_angle(capsys):
    code, _, err = run_cli(
        capsys, ["analytic", "hardy", "chsh", "--a", "three", "--a2", "0",
                 "--b", "0", "--b2", "0"]
    )
    assert code == 1


# ----------------------------------------------------------------------
# optimize
# ----------------------------------------------------------------------


def test_optimize_cli_quantum(capsys):
    code, out, err = run_cli(
        capsys, ["optimize", "--model", "quantum", "--ineq", "chsh",
                 "--direction", "min"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(-2 * math.sqrt(2), abs=1e-6)
    assert "evaluations" in data


def test_optimize_cli_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "objective.json"
    spec_path.write_text(json.dumps({
        "model": "hardy",
        "inequality": "same_retarded_chsh",
        "free": ["a2", "b2"],
        "fixed": {"a": 0.0, "b": 0.0},
    }))
    code, out, _ = run_cli(capsys, ["optimize", "--spec", str(spec_path)])
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(-2.0, abs=1e-6)


SPEC = {"model": "quantum", "inequality": "chsh"}


@pytest.mark.parametrize(
    "text,key",
    [
        ("[1]", "must be a JSON object"),
        (json.dumps({**SPEC, "bogus": 1}), "unknown key 'bogus'"),
        (json.dumps({"inequality": "chsh"}), "missing key 'model'"),
        (json.dumps({**SPEC, "model": ["quantum"]}), "model must be a string"),
        (json.dumps({**SPEC, "inequality": ["chsh"]}), "inequality must be a string"),
        (json.dumps({**SPEC, "direction": 1}), "direction must be a string"),
        (json.dumps({**SPEC, "free": "a2"}), "free must be a list of strings"),
        (json.dumps({**SPEC, "free": ["a", 2]}), "free must be a list of strings"),
        (json.dumps({**SPEC, "grid_step": "pi/24"}), "grid_step must be a number"),
        (json.dumps({**SPEC, "grid_step": True}), "grid_step must be a number"),
        (json.dumps({**SPEC, "fixed": {"a": "pi"}}), "fixed must be an object of numbers"),
        (json.dumps({**SPEC, "fixed": [0.0]}), "fixed must be an object of numbers"),
        (json.dumps({**SPEC, "retarded": {"ar": None}}), "retarded must be 'tied', 'free'"),
        (json.dumps({**SPEC, "quadrature_nodes": 1.5}), "quadrature_nodes must be"),
        (json.dumps({**SPEC, "quadrature_nodes": 10}),
         "quadrature_nodes must be at least 1000, got 10"),
        (json.dumps({**SPEC, "grid_step": 0}), "grid_step must be finite and positive"),
        ('{"model": "quantum",', "Expecting property name"),
        # json reads NaN and Infinity as numbers
        (json.dumps({**SPEC, "free": ["a2"], "fixed": {"a": math.nan}}),
         "fixed angle 'a' must be finite"),
        (json.dumps({**SPEC, "free": ["a2"], "retarded": {"ar": -math.inf}}),
         "retarded angle 'ar' must be finite"),
    ],
    ids=["not-an-object", "unknown-key", "missing-model", "model-list", "inequality-list",
         "direction-number", "free-string", "free-number", "grid-step-string", "grid-step-bool", "fixed-string",
         "fixed-list", "retarded-null", "nodes-float", "nodes-too-few", "grid-step-zero", "invalid-json",
         "fixed-nan", "retarded-inf"],
)
def test_optimize_cli_malformed_spec_names_file_and_key(tmp_path, capsys, text, key):
    spec_path = tmp_path / "objective.json"
    spec_path.write_text(text)
    code, out, err = run_cli(capsys, ["optimize", "--spec", str(spec_path)])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: {spec_path}: ") and key in err


# ----------------------------------------------------------------------
# run + check round trip
# ----------------------------------------------------------------------


def test_run_and_check_roundtrip(tmp_path, capsys):
    config = tmp_path / "scenario.ini"
    config.write_text(CONFIG_TEXT)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, ["run", "--config", str(config), "--out", str(out_dir)]
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["trials"] == 20000
    table_path = out_dir / "correlations.csv"
    assert table_path.exists()

    chsh_reports = [
        r for r in summary["reports"] if r["name"] == "retarded_chsh"
    ]
    assert chsh_reports
    target = chsh_reports[0]
    ids = target["inputs"]
    code, out, _ = run_cli(
        capsys,
        ["check", "--table", str(table_path), "--ineq", "retarded_chsh",
         "--a", ids["a"], "--a2", ids["a2"], "--b", ids["b"], "--b2", ids["b2"],
         "--ar", ids["ar"], "--a2r", ids["a2r"], "--br", ids["br"],
         "--b2r", ids["b2r"]],
    )
    assert code in (0, 3)
    data = json.loads(out)
    assert data["value"] == target["value"]  # bit-exact via the CSV round trip
    assert data["combined_se"] == target["combined_se"]


def test_run_seed_override_changes_output(tmp_path, capsys):
    config = tmp_path / "scenario.ini"
    config.write_text(CONFIG_TEXT.replace("n_trials = 20000", "n_trials = 500")
                      .replace("min_count = 100", "min_count = 10"))
    code1, out1, _ = run_cli(
        capsys, ["run", "--config", str(config), "--out", str(tmp_path / "o1")]
    )
    code2, out2, _ = run_cli(
        capsys,
        ["run", "--config", str(config), "--seed", "77", "--out", str(tmp_path / "o2")],
    )
    assert (tmp_path / "o1" / "trials.csv").read_text() != (
        tmp_path / "o2" / "trials.csv"
    ).read_text()


def test_run_n_override(tmp_path, capsys):
    config = tmp_path / "scenario.ini"
    config.write_text(CONFIG_TEXT)
    code, out, _ = run_cli(
        capsys,
        ["run", "--config", str(config), "--n", "300", "--min-count", "5",
         "--out", str(tmp_path / "o")],
    )
    summary = json.loads(out)
    assert summary["trials"] == 300


def test_run_bad_config(tmp_path, capsys):
    config = tmp_path / "scenario.ini"
    config.write_text("[geometry]\nseparation = 1.0\n")
    code, _, err = run_cli(
        capsys, ["run", "--config", str(config), "--out", str(tmp_path / "o")]
    )
    assert code == 1


PERIODIC_STATION1 = "schedule = periodic\nperiod = 1.0\nphase = 0.0\ncycle = a, a2\n"


def RUN(config, out):
    return ["run", "--config", config, "--out", out]


OPTIMIZE = ["optimize", "--model", "quantum", "--ineq", "chsh"]


@pytest.mark.parametrize(
    "old,new,message,argv",
    [
        (old, new, message, RUN) for old, new, message in [
            ("spacing = 1.0", "spacing = inf", "run.spacing must be finite"),
            ("spacing = 1.0", "spacing = nan", "run.spacing must be finite"),
            ("start = 0.0", "start = nan", "must be finite"),
            ("start = 0.0", "start = -inf", "must be finite"),
            ("seed = 42", "seed = 42\nintervention_delay = inf",
             "intervention_delay must be finite"),
            ("rate = 2.0", "rate = inf", "station1.rate must be finite"),
            ("rate = 2.0", "rate = nan", "station1.rate must be finite"),
            ("schedule = random_switch\nrate = 2.0\n",
             PERIODIC_STATION1.replace("period = 1.0", "period = inf"),
             "station1.period must be finite"),
            ("schedule = random_switch\nrate = 2.0\n",
             PERIODIC_STATION1.replace("phase = 0.0", "phase = nan"),
             "station1.phase must be finite"),
            ("separation = 4.0", "separation = inf", "separation must be finite"),
            ("signal_speed = 1.0", "signal_speed = nan", "signal_speed must be finite"),
            ("t0 = -6.0", "t0 = -inf", "t0 must be finite"),
            ("min_count = 100", "min_count = -5", "min_count must be non-negative"),
        ]
    ] + [
        # a negative --seed flag, checked before the command runs
        ("", "", "--seed must be a non-negative integer",
         lambda config, out: RUN(config, out) + ["--seed", "-1"]),
        ("", "", "--seed must be a non-negative integer",
         lambda config, out: ["analytic", "hardy", "chsh", *QUARTET_FLAGS,
                              "--n", "100", "--seed", "-1"]),
        ("", "", "--seed must be a non-negative integer",
         lambda config, out: ["verify", "--seed", "-1"]),
        # --n and --min-count overrides, named as flags rather than config keys
        ("", "", "--n must be at least 1",
         lambda config, out: RUN(config, out) + ["--n", "-1"]),
        ("", "", "--min-count must be non-negative",
         lambda config, out: RUN(config, out) + ["--min-count", "-5"]),
        # a negative Monte Carlo size, named whether or not the row runs Monte Carlo
        ("", "", "--n must be non-negative, got -5",
         lambda config, out: ["analytic", "hardy", "retarded_chsh", *QUARTET_FLAGS,
                              "--n", "-5"]),
        ("", "", "--n must be non-negative, got -5",
         lambda config, out: ["analytic", "quantum", "retarded_ch", *QUARTET_FLAGS,
                              "--n", "-5"]),
    ] + [
        # a grid step that would divide by zero, scan an empty grid or never halve
        ("", "", "--grid-step must be finite and positive",
         lambda config, out, step=step: OPTIMIZE + [f"--grid-step={step}"])
        for step in ("0", "-0.1")
    ] + [
        # a non-finite grid step is rejected where it is parsed, like an angle
        ("", "", f"--grid-step: angle '{step}' is not finite",
         lambda config, out, step=step: OPTIMIZE + [f"--grid-step={step}"])
        for step in ("nan", "inf")
    ] + [
        ("", "", "free variable 'a' is listed more than once",
         lambda config, out: OPTIMIZE + ["--free", "a,a,b"]),
    ] + [
        # a pi-form angle with a zero divisor, named by its flag or config key
        ("", "", "--a: cannot parse angle 'pi/0'",
         lambda config, out: ["analytic", "hardy", "chsh", "--a=pi/0", "--a2=0",
                              "--b=0", "--b2=0"]),
        ("", "", "--b2r: cannot parse angle '3pi/0.0'",
         lambda config, out: ["analytic", "hardy", "retarded_chsh", *QUARTET_FLAGS,
                              "--ar=0", "--a2r=0", "--br=0", "--b2r=3pi/0.0"]),
        ("", "", "--grid-step: cannot parse angle 'pi/0'",
         lambda config, out: OPTIMIZE + ["--grid-step=pi/0"]),
        ("", "", "--a2: cannot parse angle '-pi/0'",
         lambda config, out: OPTIMIZE + ["--free", "a", "--a2=-pi/0"]),
        ("labels = a=pi/2, a2=0", "labels = a=pi/0, a2=0",
         "station1.labels must be id=angle entries; cannot parse angle 'pi/0'", RUN),
    ] + [
        # a non-finite angle never reaches a verdict or an optimum
        ("", "", "--a: angle 'nan' is not finite",
         lambda config, out: ["analytic", "hardy", "chsh", "--a=nan", "--a2=0",
                              "--b=0", "--b2=0"]),
        ("", "", "--br: angle '-inf' is not finite",
         lambda config, out: ["analytic", "hardy", "retarded_chsh", *QUARTET_FLAGS,
                              "--ar=0", "--a2r=0", "--br=-inf", "--b2r=0"]),
        ("", "", "--a: angle 'nan' is not finite",
         lambda config, out: OPTIMIZE + ["--free", "a2", "--a=nan"]),
        ("", "", "--ar: angle 'inf' is not finite",
         lambda config, out: OPTIMIZE + ["--free", "a2", "--ar=inf"]),
        ("labels = a=pi/2, a2=0", "labels = a=nan, a2=0",
         "station1.labels must be id=angle entries; angle 'nan' is not finite", RUN),
    ],
    ids=["spacing-inf", "spacing-nan", "start-nan", "start-inf", "delay-inf", "rate-inf",
         "rate-nan", "period-inf", "phase-nan", "separation-inf", "signal_speed-nan",
         "t0-inf", "min_count-negative", "run-seed-flag-negative",
         "analytic-seed-flag-negative", "verify-seed-flag-negative", "run-n-flag-negative",
         "run-min-count-flag-negative", "analytic-n-flag-negative",
         "analytic-ch-n-flag-negative", "grid-step-zero", "grid-step-negative",
         "grid-step-nan", "grid-step-inf", "optimize-free-repeated",
         "analytic-angle-zero-divisor", "analytic-retarded-zero-divisor",
         "grid-step-zero-divisor", "optimize-angle-zero-divisor", "labels-zero-divisor",
         "analytic-angle-nan", "analytic-retarded-inf", "optimize-angle-nan",
         "optimize-retarded-inf", "labels-angle-nan"],
)
def test_run_rejects_non_finite_and_negative_numbers(tmp_path, capsys, old, new, message, argv):
    assert old in CONFIG_TEXT
    config = tmp_path / "scenario.ini"
    config.write_text(CONFIG_TEXT.replace(old, new, 1))
    code, out, err = run_cli(capsys, argv(str(config), str(tmp_path / "o")))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "old,new,key",
    [
        ("seed = 42", "seed = 42\nintervention_delay = abc", "run.intervention_delay"),
        ("min_count = 100", "min_count = 1.5", "run.min_count"),
        ("seed = 42", "seed = 4x2", "run.seed"),
        ("n_trials = 20000", "n_trials = many", "run.n_trials"),
        ("spacing = 1.0", "spacing = wide", "run.spacing"),
        ("rate = 2.0", "rate = fast", "station1.rate"),
        ("schedule = random_switch\nrate = 2.0\n",
         PERIODIC_STATION1.replace("period = 1.0", "period = 1s"), "station1.period"),
        ("schedule = random_switch\nrate = 2.0\n",
         PERIODIC_STATION1.replace("phase = 0.0", "phase = late"), "station1.phase"),
        ("t0 = -6.0", "t0 = early", "geometry.t0"),
        ("seed = 42", "seed = -1", "run.seed"),
        ("labels = a=pi/2, a2=0", "labels = a=abc, a2=0", "station1.labels"),
        ("labels = a=pi/2, a2=0", "labels = a=pi/0, a2=0", "station1.labels"),
    ],
    ids=["delay", "min_count", "seed", "n_trials", "spacing", "rate", "period", "phase", "t0",
         "seed-negative", "labels-angle", "labels-zero-divisor"],
)
def test_run_malformed_number_names_file_and_key(tmp_path, capsys, old, new, key):
    assert old in CONFIG_TEXT
    config = tmp_path / "scenario.ini"
    config.write_text(CONFIG_TEXT.replace(old, new, 1))
    code, out, err = run_cli(
        capsys, ["run", "--config", str(config), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert f"{config}: {key} must be" in err
    assert not (tmp_path / "o").exists()


STREAM_CONFIG_TEXT = CONFIG_TEXT.replace(
    "schedule = random_switch\nrate = 2.0\n\n[station2]",
    "schedule = stream\nfile = stream.csv\nbase = a\n\n[station2]",
).replace(
    "schedule = random_switch\nrate = 2.0\n\n[run]",
    "schedule = stream\nfile = stream.csv\nbase = b\n\n[run]",
).replace("n_trials = 20000", "n_trials = 200").replace("min_count = 100", "min_count = 1")


@pytest.mark.parametrize(
    "extra_row,code",
    # 2: the run completes, but three interventions fill too few cells
    # to score an inequality
    [("", 2), ("2,nan,0.0,b2,human\n", 1), ("1,30.0,inf,a,human\n", 1)],
)
def test_run_shared_stream_file(tmp_path, capsys, extra_row, code):
    # one stream file serves both stations; a non-finite time is one error line
    assert STREAM_CONFIG_TEXT.count("file = stream.csv") == 2
    (tmp_path / "stream.csv").write_text(
        "station,decision_time,delay,label,source_tag\n"
        "1,3.0,0.0,a2,human\n"
        "2,4.0,1.5,b2,human\n"
        "1,9.0,0.5,a,human\n" + extra_row
    )
    config = tmp_path / "scenario.ini"
    config.write_text(STREAM_CONFIG_TEXT)
    got, out, err = run_cli(
        capsys, ["run", "--config", str(config), "--out", str(tmp_path / "o")]
    )
    assert got == code
    if code == 1:
        assert err.count("\n") == 1 and "stream.csv:5:" in err
        assert "must be finite" in err
    else:
        assert json.loads(out)["trials"] == 200


STREAM_ROWS = ("1,3.0,0.0,a2,human", "2,4.0,1.5,b2,human", "1,9.0,0.5,a,human",
               "2,12.0,0.0,b,human")


@st_.composite
def fuzzed_stream_files(draw):
    """A valid two-station stream file with one field of one row replaced,
    or one row given 4 or 6 fields; also the line number of that row."""
    rows = [row.split(",") for row in STREAM_ROWS]
    k = draw(st_.integers(0, len(rows) - 1))
    if draw(st_.booleans()):
        value = draw(st_.sampled_from(["", "nan", "-1", "1e400", "abc", "9" * 400, "zz"]))
        rows[k][draw(st_.integers(0, 4))] = value
    else:
        rows[k] = rows[k][:4] if draw(st_.booleans()) else rows[k] + ["extra"]
    text = "station,decision_time,delay,label,source_tag\n"
    return text + "".join(",".join(row) + "\n" for row in rows), k + 2


@settings(max_examples=40, deadline=None)
@given(fuzzed_stream_files())
def test_run_fuzzed_stream_file_finishes_or_names_the_line(tmp_path_factory, case):
    text, lineno = case
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "stream.csv").write_text(text)
    config = tmp / "scenario.ini"
    config.write_text(STREAM_CONFIG_TEXT)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(config), "--out", str(tmp / "o")])
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if code == 1:
        assert out == "" and err.count("\n") == 1
        assert f"stream.csv:{lineno}:" in err
    else:
        assert code in (0, 2, 3) and json.loads(out)["trials"] == 200


def _sixteen_cell_table(path):
    """Every (x|x2, y|y2, retarded x|x2, retarded y|y2) cell, each with its
    own correlation."""
    rows = ["a,b,a_r,b_r,E,SE,count,sufficient"]
    cells = itertools.product(("x", "x2"), ("y", "y2"), ("x", "x2"), ("y", "y2"))
    for k, (x, y, u, v) in enumerate(cells):
        rows.append(f"{x},{y},{u},{v},{(k * k % 17 - 8) / 10},0.01,1000,1")
    path.write_text("\n".join(rows) + "\n")


# pinned values; the retarded flags, when given, swap each pair
@pytest.mark.parametrize(
    "ineq,retarded,code,value",
    [
        ("retarded_chsh", False, 0, 0.30000000000000004),
        ("retarded_chsh", True, 0, 0.6),
        ("same_retarded_chsh", False, 3, 2.1),
        ("same_retarded_chsh", True, 3, 2.1),
        ("chsh", False, 0, 0.30000000000000004),
        ("chsh", True, 0, 0.30000000000000004),
        ("both_equal", False, 0, -1.6),
        ("both_equal", True, 0, -1.6),
        ("one_end_equal", False, 0, 0.9000000000000001),
        ("one_end_equal", True, 0, 0.7),
        ("retarded_ch", False, 1, None),
        ("retarded_ch", True, 1, None),
    ],
)
def test_check_every_inequality(tmp_path, capsys, ineq, retarded, code, value):
    table = tmp_path / "table.csv"
    _sixteen_cell_table(table)
    argv = ["check", "--table", str(table), "--ineq", ineq,
            "--a", "x", "--a2", "x2", "--b", "y", "--b2", "y2"]
    if retarded:
        argv += ["--ar", "x2", "--a2r", "x", "--br", "y2", "--b2r", "y"]
    got, out, err = run_cli(capsys, argv)
    assert got == code
    if value is None:
        assert err.count("\n") == 1 and "check supports correlation inequalities" in err
    else:
        data = json.loads(out)
        assert data["value"] == pytest.approx(value, abs=1e-12)
        assert data["combined_se"] == pytest.approx(0.02, abs=1e-15)


def test_check_empty_table(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text("a,b,a_r,b_r,E,SE,count,sufficient\n")
    code, _, err = run_cli(
        capsys,
        ["check", "--table", str(table), "--ineq", "retarded_chsh",
         "--a", "a", "--a2", "a2", "--b", "b", "--b2", "b2"],
    )
    assert code == 2
    assert "missing" in err


def test_check_insufficient_cells(tmp_path, capsys):
    rows = ["a,b,a_r,b_r,E,SE,count,sufficient"]
    for x, y in (("a2", "b2"), ("a2", "b"), ("a", "b2"), ("a", "b")):
        rows.append(f"{x},{y},a,b,0.0,0.1,5,0")
    table = tmp_path / "table.csv"
    table.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(
        capsys,
        ["check", "--table", str(table), "--ineq", "same_retarded_chsh",
         "--a", "a", "--a2", "a2", "--b", "b", "--b2", "b2"],
    )
    assert code == 2
    assert "trials" in err


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 0
    assert "11/11 checks passed" in out


# ----------------------------------------------------------------------
# console entry point
# ----------------------------------------------------------------------


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rbell.cli", "analytic", "hardy",
         "same_retarded_chsh", "--a", "pi/2", "--a2", "0", "--b=-pi/4",
         "--b2", "pi/4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(-math.sqrt(2))


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency: neither the package nor the
    # CLI may load scipy, whose import would dominate start-up time
    code = (
        "import json, sys\n"
        "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import rbell\n"
        "after_package = scipy()\n"
        "import rbell.cli\n"
        "print(json.dumps([after_package, scipy()]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]

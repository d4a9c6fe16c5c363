import contextlib
import dataclasses
import io
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from conftest import traced_peak_mib
from rbell import cli
from rbell.cli import _verify_checks, main
from rbell.inequalities import CHSH_TERMS, INEQUALITIES, chsh_identity_check
from rbell.models import get_model

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

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
# the retarded flags; hardy-quadrature is hardy without closed forms
ANALYTIC_PINS = [
    ("hardy", "retarded_chsh", False, -1.4142135623730951, -1.411),
    ("hardy", "retarded_chsh", True, -0.5347728245756019, -0.427),
    ("hardy", "same_retarded_chsh", False, -1.4142135623730951, -1.411),
    ("hardy", "same_retarded_chsh", True, -1.4142135623730951, -1.411),
    ("hardy", "chsh", False, -1.4142135623730951, -1.411),
    ("hardy", "chsh", True, -1.4142135623730951, -1.411),
    ("hardy", "both_equal", False, 1.414213562373095, 1.39),
    ("hardy", "both_equal", True, 1.414213562373095, 1.39),
    ("hardy", "one_end_equal", False, -1.4142135623730951, -1.384),
    ("hardy", "one_end_equal", True, -1.6164042080122294, -1.609),
    ("hardy", "retarded_ch", False, -0.8535533905932737, None),
    ("hardy", "retarded_ch", True, -0.6336932061439006, None),
    ("quantum", "retarded_chsh", False, -2.8284271247461903, -2.868),
    ("quantum", "retarded_chsh", True, -2.8284271247461903, -2.868),
    ("quantum", "same_retarded_chsh", True, -2.8284271247461903, -2.868),
    ("quantum", "chsh", True, -2.8284271247461903, -2.868),
    ("quantum", "both_equal", True, 1.414213562373095, 1.352),
    ("quantum", "one_end_equal", False, -1.4142135623730951, -1.442),
    ("quantum", "one_end_equal", True, -1.4142135623730951, -1.478),
    ("quantum", "retarded_ch", False, -1.2071067811865475, None),
    ("quantum", "retarded_ch", True, -1.2071067811865475, None),
    ("hardy-quadrature", "retarded_chsh", True, -0.53472, -0.427),
    ("hardy-quadrature", "same_retarded_chsh", False, -1.41424, -1.411),
    ("hardy-quadrature", "both_equal", True, 1.41424, 1.39),
    ("hardy-quadrature", "one_end_equal", True, -1.6164, -1.609),
    ("hardy-quadrature", "retarded_ch", False, -0.8535599999999999, None),
    ("hardy-quadrature", "retarded_ch", True, -0.6336799999999998, None),
]


@pytest.fixture
def quadrature_model():
    """``hardy-quadrature`` registered: the hardy model without closed forms."""
    from rbell.models import _FACTORIES, register_model

    register_model("hardy-quadrature", lambda: dataclasses.replace(
        get_model("hardy"), name="hardy-quadrature", closed_form_E=None,
        closed_form_p12=None, closed_form_p1=None, closed_form_p2=None))
    yield
    _FACTORIES.pop("hardy-quadrature", None)


@pytest.mark.parametrize(
    "model,ineq,retarded,exact,mc",
    [pytest.param(*pin, id="-".join(map(str, pin[1:] if pin[0] == "hardy" else pin)))
     for pin in ANALYTIC_PINS],
)
def test_analytic_every_inequality(capsys, quadrature_model, model, ineq, retarded, exact, mc):
    argv = ["analytic", model, ineq] + QUARTET_FLAGS
    argv += RETARDED_ANGLE_FLAGS if retarded else []
    row = INEQUALITIES[ineq]
    expect_code = 0 if row.lower <= exact <= row.upper else 3
    code, out, _ = run_cli(capsys, argv)
    assert code == expect_code
    assert json.loads(out)["value"] == exact
    assert "monte_carlo" not in json.loads(out)

    code, out, err = run_cli(capsys, argv + ["--n", "2000", "--seed", "5"])
    assert code == expect_code
    data = json.loads(out)
    assert data["value"] == exact
    if mc is None:
        assert "monte_carlo" not in data
        assert f"--n is ignored for {ineq}" in err
    else:
        assert data["monte_carlo"]["value"] == pytest.approx(mc, abs=1e-12)


def _bad_closed_forms(value):
    """The hardy model with every closed-form cell (E and p12) equal to ``value``."""
    def bad(a, b, a_r, b_r):
        return np.full(np.broadcast_shapes(*map(np.shape, (a, b, a_r, b_r))), value)

    return dataclasses.replace(get_model("hardy"), closed_form_E=bad, closed_form_p12=bad)


@pytest.mark.parametrize("ineq", list(INEQUALITIES))
@pytest.mark.parametrize("name,model,message", [
    ("nan-cells", lambda: _bad_closed_forms(math.nan), "error: estimate nan outside [-1, 1]"),
    ("big-cells", lambda: _bad_closed_forms(1.5), "error: estimate 1.5 outside [-1, 1]"),
    ("nan-singles", lambda: dataclasses.replace(get_model("hardy"), closed_form_p1=(
        lambda a, b_r: math.nan)), "error: estimate nan outside [-1, 1]"),
])
def test_analytic_refuses_exact_values_out_of_range(capsys, ineq, name, model, message):
    # a NaN or out-of-range exact value is refused in one line, never scored
    from rbell.models import _FACTORIES, register_model

    register_model(name, model)
    try:
        code, out, err = run_cli(capsys, ["analytic", name, ineq] + QUARTET_FLAGS)
    finally:
        _FACTORIES.pop(name, None)
    if name == "nan-singles" and not INEQUALITIES[ineq].probability:
        assert code == 0  # a correlation row reads no singles
        return
    assert (code, out) == (1, "")
    assert err == message + "\n"


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


@pytest.mark.parametrize("step", ["1e-308", "5e-324"])
def test_optimize_cli_spec_with_a_step_too_fine_to_count(tmp_path, capsys, step):
    # TAU / step overflows to inf; the grid is coarsened, not a traceback
    spec_path = tmp_path / "objective.json"
    spec_path.write_text('{"model": "quantum", "inequality": "chsh", "grid_step": %s}' % step)
    code, out, err = run_cli(capsys, ["optimize", "--spec", str(spec_path)])
    assert code == 0
    assert err.startswith("optimize quantum chsh minimize: ") and err.count("\n") == 1
    assert json.loads(out)["value"] == pytest.approx(-2 * math.sqrt(2), abs=1e-9)


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
        (json.dumps({**SPEC, "grid_step": 7}), "less than 2*pi, got 7"),
        (json.dumps({**SPEC, "grid_step": 6.2832}), "less than 2*pi, got 6.2832"),
        ('{"model": "quantum",', "Expecting property name"),
        # json reads NaN and Infinity as numbers
        (json.dumps({**SPEC, "free": ["a2"], "fixed": {"a": math.nan}}),
         "fixed angle 'a' must be finite"),
        (json.dumps({**SPEC, "free": ["a2"], "retarded": {"ar": -math.inf}}),
         "retarded angle 'ar' must be finite"),
    ],
    ids=["not-an-object", "unknown-key", "missing-model", "model-list", "inequality-list",
         "direction-number", "free-string", "free-number", "grid-step-string", "grid-step-bool", "fixed-string",
         "fixed-list", "retarded-null", "nodes-float", "nodes-too-few", "grid-step-zero",
         "grid-step-seven", "grid-step-turn", "invalid-json", "fixed-nan", "retarded-inf"],
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
            ("separation = 4.0", "separation = inf",
             "geometry.separation must be finite, got inf"),
            ("signal_speed = 1.0", "signal_speed = nan",
             "geometry.signal_speed must be finite, got nan"),
            ("t0 = -6.0", "t0 = -inf", "geometry.t0 must be finite, got -inf"),
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
        # a grid step of a turn or more scans one point, at all-zero angles
        ("", "", f"--grid-step must be finite and positive and less than 2*pi, got {step}",
         lambda config, out, step=step: OPTIMIZE + [f"--grid-step={step}"])
        for step in ("7", "6.2832")
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
    ] + [
        # a rate expecting more interventions than a timeline's int32
        # decision index holds over the run window, refused before any draw
        ("rate = 2.0", f"rate = {rate}", f"station1.rate {float(rate)!r} over a window of "
         "20005.0 expects more than 2**31 - 1 interventions", RUN)
        for rate in ("1e15", "1e300", "1e308")
    ] + [
        # --n sets the window, so the check runs with the run
        ("rate = 2.0", "rate = 1e9", "station1.rate 1000000000.0 over a window of 15.0 "
         "expects more than 2**31 - 1 interventions",
         lambda config, out: RUN(config, out) + ["--n", "10"]),
    ] + [
        # the last trial time overflows: from the file, and from --n
        ("spacing = 1.0", spacing, "the last trial time, run.start + (run.n_trials - 1) * "
         "run.spacing, must be finite", argv)
        for spacing, argv in (
            ("spacing = 1e308", RUN),
            ("spacing = 1e300", lambda config, out: RUN(config, out) + ["--n", "10000000000"]),
        )
    ],
    ids=["spacing-inf", "spacing-nan", "start-nan", "start-inf", "delay-inf", "rate-inf",
         "rate-nan", "period-inf", "phase-nan", "separation-inf", "signal_speed-nan",
         "t0-inf", "min_count-negative", "run-seed-flag-negative",
         "analytic-seed-flag-negative", "verify-seed-flag-negative", "run-n-flag-negative",
         "run-min-count-flag-negative", "analytic-n-flag-negative",
         "analytic-ch-n-flag-negative", "grid-step-zero", "grid-step-negative",
         "grid-step-seven", "grid-step-turn", "grid-step-nan", "grid-step-inf",
         "optimize-free-repeated",
         "analytic-angle-zero-divisor", "analytic-retarded-zero-divisor",
         "grid-step-zero-divisor", "optimize-angle-zero-divisor", "labels-zero-divisor",
         "analytic-angle-nan", "analytic-retarded-inf", "optimize-angle-nan",
         "optimize-retarded-inf", "labels-angle-nan", "rate-1e15", "rate-1e300", "rate-1e308",
         "rate-window-of-n-flag", "spacing-1e308", "spacing-1e300-n-flag"],
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
    "old,new,message",
    [
        ("seed = 42", "seed = 42\nintervention_delay = abc", "run.intervention_delay must be"),
        ("min_count = 100", "min_count = 1.5", "run.min_count must be"),
        ("seed = 42", "seed = 4x2", "run.seed must be"),
        ("n_trials = 20000", "n_trials = many", "run.n_trials must be"),
        ("spacing = 1.0", "spacing = wide", "run.spacing must be"),
        ("rate = 2.0", "rate = fast", "station1.rate must be"),
        ("schedule = random_switch\nrate = 2.0\n",
         PERIODIC_STATION1.replace("period = 1.0", "period = 1s"), "station1.period must be"),
        ("schedule = random_switch\nrate = 2.0\n",
         PERIODIC_STATION1.replace("phase = 0.0", "phase = late"), "station1.phase must be"),
        ("t0 = -6.0", "t0 = early", "geometry.t0 must be"),
        ("seed = 42", "seed = -1", "run.seed must be"),
        ("labels = a=pi/2, a2=0", "labels = a=abc, a2=0", "station1.labels must be"),
        ("labels = a=pi/2, a2=0", "labels = a=pi/0, a2=0", "station1.labels must be"),
        ("schedule = random_switch\nrate = 2.0\n",
         PERIODIC_STATION1.replace("period = 1.0", "period = -1"),
         "periodic schedule needs period > 0"),
        ("quartet = a, a2, b, b2", "quartet = a, a2, b, zz",
         "quartet label 'zz' not on station 2"),
        ("schedule = random_switch", "schedule = bogus", "unknown schedule kind 'bogus'"),
        ("rate = 2.0", "rate = 2.0\nturbo = yes", "unknown keys in [station1]: ['turbo']"),
        ("seed = 42", "seed = 42\nturbo = yes", "unknown keys in [run]: ['turbo']"),
        ("labels = a=pi/2, a2=0\n", "", "missing required key 'station1.labels'"),
        ("quartet = a, a2, b, b2", "quartet = a, a2", "run.quartet must list four labels"),
        ("spacing = 1.0\n", "", "missing required key 'run.spacing'"),
        ("[model]\nname = hardy-singlet\n", "", "missing sections ['model']"),
        ("separation = 4.0", "separation = -4.0", "geometry.separation must be positive"),
        ("name = hardy-singlet", "name = foo", "model.name: unknown model 'foo'; known: "),
        ("labels = a=pi/2, a2=0", "labels = a=pi/2, =1",
         "station1.labels entry '=1' has an empty label id"),
        ("labels = a=pi/2, a2=0", "labels = a=pi/2, a2=0, a=1",
         "station1.labels repeats label id 'a'"),
    ],
    ids=["delay", "min_count", "seed", "n_trials", "spacing", "rate", "period", "phase", "t0",
         "seed-negative", "labels-angle", "labels-zero-divisor", "period-negative",
         "quartet-unknown-label", "schedule-kind", "station-unknown-key", "run-unknown-key",
         "labels-missing", "quartet-two-labels", "spacing-missing", "section-missing",
         "separation-negative", "model-unknown", "labels-empty-id", "labels-repeated-id"],
)
def test_run_malformed_number_names_file_and_key(tmp_path, capsys, old, new, message):
    assert old in CONFIG_TEXT
    config = tmp_path / "scenario.ini"
    config.write_text(CONFIG_TEXT.replace(old, new, 1))
    code, out, err = run_cli(
        capsys, ["run", "--config", str(config), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert f"{config}: {message}" in err and err.count(str(config)) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("period = 0.5", "period = 1e-300",
         "station1.period 1e-300 over a window of 35002.649999999994 gives more than "
         "2**31 - 1 switches"),
        ("start = 0.0", "start = 1e300",
         "station1.period 0.5 over a window of 1e+300 gives more than 2**31 - 1 switches"),
    ],
    ids=["period-tiny", "start-huge"],
)
def test_run_refuses_a_periodic_window_of_too_many_switches(tmp_path, capsys, old, new,
                                                            message):
    # refused before the switch times are built
    _assert_periodic_refusal(tmp_path, capsys, [(old, new)], message)


@pytest.mark.parametrize(
    "edits,message",
    [
        ([("phase = 0.0", "phase = 1e20")],
         "station1.period 0.5 with station1.phase 1e+20 over the window "
         "[-3.0, 34999.649999999994] gives switch times closer than their float rounding"),
        ([("start = 0.0", "start = 1e19"), ("t0 = -3.0", "t0 = 9999999999999000000"),
          ("n_trials = 100000", "n_trials = 10")],
         "station1.period 0.5 with station1.phase 0.0 over the window "
         "[9.999999999999e+18, 1e+19] gives switch times closer than their float rounding"),
    ],
    ids=["phase-1e20", "start-1e19"],
)
def test_run_refuses_periodic_switch_times_closer_than_float_rounding(tmp_path, capsys,
                                                                      edits, message):
    # the parent printed "switch times must be strictly increasing after
    # start", naming neither the file nor the key
    _assert_periodic_refusal(tmp_path, capsys, edits, message)


def _assert_periodic_refusal(tmp_path, capsys, edits, message):
    text = (CONFIG_DIR / "periodic_aspect_style.ini").read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    config = tmp_path / "scenario.ini"
    config.write_text(text)
    code, out, err = run_cli(capsys, RUN(str(config), str(tmp_path / "o")))
    assert (code, out, err) == (1, "", f"error: {config}: {message}\n")
    assert not (tmp_path / "o").exists()


def test_run_folds_a_periodic_switch_that_rounds_onto_the_start(tmp_path, capsys):
    # floor((-3.75 + 1.92) / 0.03) is -62, and -1.92 + (-61) * 0.03 rounds to
    # -3.75, the window start: that switch sets station 1's initial label
    text = (CONFIG_DIR / "periodic_aspect_style.ini").read_text()
    for old, new in [("t0 = -3.0", "t0 = -3.75"),
                     ("period = 0.5\nphase = 0.0", "period = 0.03\nphase = -1.92")]:
        assert old in text
        text = text.replace(old, new)
    config = tmp_path / "scenario.ini"
    config.write_text(text)
    code, out, err = run_cli(capsys, RUN(str(config), str(tmp_path / "o")) + ["--n", "200"])
    # the run finishes like the bundled config: exit 2, since periodic
    # switching leaves no complete retarded octuple to score
    assert code == cli.EXIT_INSUFFICIENT
    assert "error" not in err
    assert json.loads(out)["trials"] == 200
    assert (tmp_path / "o" / "trials.csv").exists()


def test_run_names_a_malformed_worker_count(tmp_path, capsys, monkeypatch):
    # RBL_WORKERS is not a config key, so the line names it and not the file
    monkeypatch.setenv("RBL_WORKERS", "abc")
    config = tmp_path / "scenario.ini"
    config.write_text(CONFIG_TEXT)
    code, out, err = run_cli(capsys, RUN(str(config), str(tmp_path / "o")) + ["--n", "100"])
    assert (code, out, err) == (1, "", "error: RBL_WORKERS must be an integer, got 'abc'\n")


def test_run_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(config):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000000000000,) and data type float64")

    monkeypatch.setattr("rbell.scenarios.run_scenario", exhausted)
    config = tmp_path / "scenario.ini"
    config.write_text(CONFIG_TEXT)
    argv = RUN(str(config), str(tmp_path / "o")) + ["--n", "1000000000000"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err == ("error: out of memory: Unable to allocate 7.28 TiB for an array with "
                   "shape (1000000000000,) and data type float64\n")


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


@pytest.mark.parametrize("n_trials,argv", [("3", []), ("2", ["--n", "3"])], ids=["file", "n-flag"])
def test_run_shared_stream_file_refuses_an_infinite_trial_time(tmp_path, capsys, n_trials, argv):
    # stream schedules have no window to refuse, so the config refuses a
    # last trial time past the float range, before any output is written
    (tmp_path / "stream.csv").write_text(
        "station,decision_time,delay,label,source_tag\n1,3.0,0.0,a2,human\n2,4.0,1.5,b2,human\n"
    )
    config = tmp_path / "scenario.ini"
    config.write_text(STREAM_CONFIG_TEXT.replace("spacing = 1.0", "spacing = 1e308")
                      .replace("n_trials = 200", f"n_trials = {n_trials}"))
    code, out, err = run_cli(capsys, RUN(str(config), str(tmp_path / "o")) + argv)
    assert (code, out) == (1, "")
    assert err == (f"error: {config}: the last trial time, run.start + (run.n_trials - 1) * "
                   "run.spacing, must be finite\n")
    assert not (tmp_path / "o").exists()


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


ADVERSARIAL = ("", "nan", "-1", "1e400", "abc", "9" * 400, "0", "1e20", "zz")


@st_.composite
def fuzzed_configs(draw):
    """A bundled config with the value of one of its keys replaced by an
    adversarial string."""
    text = (CONFIG_DIR / draw(st_.sampled_from(sorted(p.name for p in CONFIG_DIR.glob("*.ini"))))
            ).read_text()
    lines = text.splitlines()
    keyed = [i for i, line in enumerate(lines) if "=" in line and not line.startswith("#")]
    i = draw(st_.sampled_from(keyed))
    lines[i] = f"{lines[i].split('=', 1)[0].strip()} = {draw(st_.sampled_from(ADVERSARIAL))}"
    return "\n".join(lines) + "\n"


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(fuzzed_configs())
def test_run_fuzzed_config_finishes_or_names_the_file(tmp_path_factory, text):
    tmp = tmp_path_factory.mktemp("fuzz")
    config = tmp / "scenario.ini"
    config.write_text(text)
    code, out, err = _main_output(RUN(str(config), str(tmp / "o")) + ["--n", "200"])
    assert "Traceback" not in err
    if code == 1:
        assert out == "" and err.count("\n") == 1 and err.startswith(f"error: {config}: ")
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


@settings(max_examples=60, deadline=None)
@given(row=st_.integers(0, 15), field=st_.integers(0, 7),
       value=st_.sampled_from(ADVERSARIAL + ("inf", "1.5")), retarded=st_.booleans())
def test_check_fuzzed_table_finishes_or_names_the_line(tmp_path_factory, row, field, value,
                                                      retarded):
    table = tmp_path_factory.mktemp("fuzz") / "correlations.csv"
    _sixteen_cell_table(table)
    lines = [line.split(",") for line in table.read_text().splitlines()]
    lines[row + 1][field] = value
    table.write_text("".join(",".join(line) + "\n" for line in lines))
    argv = ["check", "--table", str(table), "--ineq", "retarded_chsh",
            "--a", "x", "--a2", "x2", "--b", "y", "--b2", "y2"]
    if retarded:
        argv += ["--ar", "x2", "--a2r", "x", "--br", "y2", "--b2r", "y"]
    code, out, err = _main_output(argv)
    assert "Traceback" not in err
    if code == 1:
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {table}: line {row + 2}: ")
    else:
        assert code in (0, 2, 3)


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
    assert "16/16 checks passed" in out
    # one exact local-bounds check per row of the table
    bounds = [line for line in out.splitlines() if " local-bounds-" in line]
    assert bounds == [f"ok   local-bounds-{name} (range [{row.lower:g}, {row.upper:g}])"
                      for name, row in INEQUALITIES.items()]


def _flip_last_chsh_sign(monkeypatch):
    """Patch a sign slip into every row with the CHSH terms."""
    flipped = CHSH_TERMS[:-1] + ((-CHSH_TERMS[-1][0], CHSH_TERMS[-1][1]),)
    for name, row in list(INEQUALITIES.items()):
        if row.terms == CHSH_TERMS:
            monkeypatch.setitem(INEQUALITIES, name, dataclasses.replace(row, terms=flipped))


def test_verify_reads_the_table_rows(capsys, monkeypatch):
    # a sign slip in the CHSH terms of the table is a failure of verify,
    # not only of the runs and the optimizer that read the same rows
    _flip_last_chsh_sign(monkeypatch)
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 1
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == ["chsh-identity-16-assignments", "local-bounds-retarded_chsh",
                      "local-bounds-same_retarded_chsh", "local-bounds-chsh",
                      "local-bounds-one_end_equal", "local-bounds-retarded_ch",
                      "lhv-retarded-chsh-bound", "lhv-retarded-ch-bound",
                      "ch-one-end-cannot-violate"]


def test_verify_prints_the_point_an_identity_check_failed_at(capsys, monkeypatch):
    # a mistyped row fails the identity and local-bounds checks: each FAIL
    # line names the point, or the local strategy, that broke the bound
    _flip_last_chsh_sign(monkeypatch)
    point = chsh_identity_check().counterexample
    assert point is not None
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 1
    lines = {line.split()[1]: line for line in out.splitlines() if line.startswith("FAIL")}
    assert lines["chsh-identity-16-assignments"] == (
        f"FAIL chsh-identity-16-assignments (checked 16, counterexample {point})")
    assert lines["local-bounds-retarded_ch"] == (
        "FAIL local-bounds-retarded_ch (range [-1, 2] against [-1, 0], "
        "2 at A(a|br)=1 A(a2|b2r)=1 B(b|ar)=1 B(b2|a2r)=1)")
    passing = [line for line in out.splitlines() if line.startswith("ok")]
    assert passing and not any("counterexample" in line for line in passing)


def test_verify_fails_a_row_whose_retarded_flags_are_wired_wrongly(capsys, monkeypatch):
    # retarded_chsh with its second term read at a2r instead of ar: its
    # actual settings are unchanged, so the identity checks pass it, but
    # station 2 then answers three ways and the local range doubles
    row = INEQUALITIES["retarded_chsh"]
    terms = list(row.terms)
    terms[1] = (1.0, ("a2", "b", "a2r", "b2r"))
    monkeypatch.setitem(INEQUALITIES, "retarded_chsh", dataclasses.replace(row, terms=tuple(terms)))
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 1
    lines = {line.split()[1]: line for line in out.splitlines() if line.startswith("FAIL")}
    assert list(lines) == ["local-bounds-retarded_chsh", "lhv-retarded-chsh-bound"]
    assert lines["local-bounds-retarded_chsh"] == (
        "FAIL local-bounds-retarded_chsh (range [-4, 4] against [-2, 2], "
        "-4 at A(a|br)=-1 A(a2|b2r)=-1 B(b|a2r)=1 B(b|ar)=-1 B(b2|a2r)=1)")


def test_verify_fails_a_nan_quantum_joint_error(capsys, monkeypatch):
    # a nan error must fail the check, not drop out of the fold
    from rbell import models

    monkeypatch.setattr(models, "quantum_joint_probs", lambda a, b: (math.nan,) * 4)
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL quantum-joint-consistent (worst nan)"]


def _zero_marginals_per_pair(rng, hardy):
    """The zero-marginal check as it was written first: each angle pair
    drawn in turn and summed over freshly built lambda blocks."""
    from rbell.estimation import BLOCK_SIZE

    nodes = 1 << 20
    worst = 0.0
    for _ in range(8):
        a, br = rng.uniform(0, math.tau, 2)
        total = 0
        for start in range(0, nodes, BLOCK_SIZE):
            lam = (np.arange(start, min(start + BLOCK_SIZE, nodes)) + 0.5) * (math.tau / nodes)
            total += int(hardy.outcome_A(a, br, lam).sum(dtype=np.int64))
        worst = max(worst, abs(total / nodes))
    return f"worst {worst:.2e}"


@pytest.mark.parametrize("seed", [0, 4, 11])
def test_zero_marginals_check_matches_the_per_pair_loop(seed, monkeypatch):
    # building each lambda block once for all pairs keeps the detail and
    # leaves the rng where the per-pair loop left it, so the next check's
    # draw (the quadrature angles) is unchanged
    from rbell import estimation

    quadrature_E, drawn = estimation.quadrature_E, []

    def record(model, *angles, **kwargs):
        drawn.append(np.array(angles))
        return quadrature_E(model, *angles, **kwargs)

    monkeypatch.setattr(estimation, "quadrature_E", record)
    details = {name: detail for name, _, detail in _verify_checks(np.random.default_rng(seed))}
    rng = np.random.default_rng(seed)
    assert details["hardy-zero-marginals"] == _zero_marginals_per_pair(rng, get_model("hardy"))
    (angles,) = drawn
    np.testing.assert_array_equal(angles, rng.uniform(0, math.tau, (100, 4)).T)


def test_verify_checks_run_in_bounded_memory():
    # the 2**20-node marginal runs in blocks: one float64 array of it
    # alone is 8 MiB.  The battery read 3.3 MiB traced here, 4.56 MiB with
    # the 10**6-point sampled identity check that the local bounds replace
    checks = []
    assert traced_peak_mib(lambda: checks.extend(_verify_checks(np.random.default_rng(3)))) < 6
    assert len(checks) == 16 and all(ok for _, ok, _ in checks)


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
    assert fresh_interpreter(code) == [[], []]


def fresh_interpreter(code):
    """What ``code`` prints as JSON when run by a new Python process."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED = ("import json, sys\n"
          "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] in ('rbell', 'numpy'))\n")


def test_import_rbell_loads_only_the_package_and_its_errors():
    code = LOADED + "import rbell\nprint(json.dumps([loaded(), rbell.spacetime.__name__]))\n"
    # a subpackage is still reachable as an attribute, imported on first access
    assert fresh_interpreter(code) == [["rbell", "rbell.errors"], "rbell.spacetime"]


def test_parser_build_loads_no_numpy():
    # the start-up that --help and every command pay: each command imports
    # the layers it uses when it runs
    loaded = fresh_interpreter(
        LOADED + "import rbell.cli\nrbell.cli.build_parser()\nprint(json.dumps(loaded()))\n")
    assert "numpy" not in loaded
    assert set(loaded) <= {"rbell", "rbell.errors", "rbell.inequalities", "rbell.cli"}


def test_public_names_are_their_defining_modules_objects():
    code = (
        "import importlib, json, rbell\n"
        "home = {n: m for m in ('errors', 'spacetime', 'models', 'inequalities', 'estimation',\n"
        "                       'scenarios', 'optimizer')\n"
        "        for n, v in vars(importlib.import_module('rbell.' + m)).items()\n"
        "        if getattr(v, '__module__', None) == 'rbell.' + m}\n"
        "print(json.dumps({n: [n in home and getattr(rbell, n) is getattr(\n"
        "    importlib.import_module('rbell.' + home[n]), n), n in dir(rbell)]\n"
        "    for n in rbell.__all__}))\n"
    )
    names = fresh_interpreter(code)
    assert len(names) >= 50
    assert {n: v for n, v in names.items() if v != [True, True]} == {}


def test_cli_names_read_through_to_their_layer():
    # every name cli has offered from a layer below it is that layer's object
    code = ("import importlib, json, rbell.cli, rbell.scenarios\n"
            "print(json.dumps([rbell.cli.run_scenario is rbell.scenarios.run_scenario, {\n"
            "    n: getattr(rbell.cli, n) is getattr(importlib.import_module('rbell.' + m), n)\n"
            "    for m, names in rbell.cli._LAYER_NAMES.items() for n in names}]))\n")
    same, names = fresh_interpreter(code)
    assert same is True
    assert len(names) == 15
    assert [n for n, v in names.items() if not v] == []


def test_analytic_model_help_names_every_built_in_model():
    # the help is static text, so that building the parser needs no numpy;
    # a fresh interpreter sees only the built-in registry
    code = ("import argparse, json, rbell.cli, rbell.models\n"
            "sub = next(a for a in rbell.cli.build_parser()._actions\n"
            "           if isinstance(a, argparse._SubParsersAction))\n"
            "text = next(a.help for a in sub.choices['analytic']._actions if a.dest == 'model')\n"
            "print(json.dumps([text, rbell.models.model_names()]))\n")
    text, names = fresh_interpreter(code)
    assert names
    assert [n for n in names if n not in text] == []

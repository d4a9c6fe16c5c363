"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them on success).  Tolerances are fixed here, not tuned at runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import octuple_cells
from rbell.cli import main
from rbell.estimation import (
    mc_correlations,
    mc_E,
    quadrature_ch_probs,
    quadrature_E,
)
from rbell.inequalities import (
    Correlation,
    CorrelationInput,
    both_equal_reduction,
    ch_expression,
    chsh_identity_check,
    one_end_equal_chsh,
    retarded_ch,
    same_retarded_chsh,
)
from rbell.models import get_model, hardy_closed_form_E, quantum_E
from rbell.optimizer import ObjectiveSpec, optimize
from rbell.scenarios import ScenarioConfig, StationConfig, run_scenario
from rbell.spacetime import Geometry

SQRT2 = math.sqrt(2)

QUARTET_ANGLES = {"a": math.pi / 2, "a2": 0.0, "b": -math.pi / 4, "b2": math.pi / 4}
QUARTET_FLAGS = ["--a", "pi/2", "--a2", "0", "--b=-pi/4", "--b2", "pi/4"]

HARDY = get_model("hardy")


def report_line(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")


def hardy_station(station: int, kind: str, **kw) -> StationConfig:
    labels = (
        {"a": math.pi / 2, "a2": 0.0}
        if station == 1
        else {"b": -math.pi / 4, "b2": math.pi / 4}
    )
    return StationConfig(station=station, labels=labels, kind=kind, **kw)


def test_criterion_01_model_value_and_monte_carlo(capsys):
    t_start = time.monotonic()
    code = main(["analytic", "hardy", "same_retarded_chsh"] + QUARTET_FLAGS)
    out = capsys.readouterr().out
    value = json.loads(out)["value"]
    ok_exact = code == 0 and abs(value - (-SQRT2)) <= 1e-9

    quads = octuple_cells("a", "a2", "b", "b2", "a", "a", "b", "b")
    mc = mc_correlations(HARDY, QUARTET_ANGLES, quads, n=1_000_000, seed=20_240)
    mc_report = same_retarded_chsh(mc, "a", "a2", "b", "b2")
    ok_mc = abs(mc_report.value - (-SQRT2)) <= 5 * mc_report.combined_se

    elapsed = time.monotonic() - t_start
    ok = ok_exact and ok_mc and elapsed < 5.0
    with capsys.disabled():
        report_line(
            1, "same-retarded value -sqrt(2)", ok,
            f"value={value:.9f}, mc={mc_report.value:.6f}"
            f"+-{mc_report.combined_se:.6f}, {elapsed:.2f}s",
        )
    assert ok_exact, f"analytic value {value} (exit {code})"
    assert ok_mc, f"monte carlo {mc_report.value} vs -sqrt2"
    assert elapsed < 5.0, f"criterion took {elapsed:.2f}s"


def test_criterion_02_quantum_reproduction(capsys):
    grid = np.linspace(0.0, math.tau, 64, endpoint=False)
    ga, gb = np.meshgrid(grid, grid)
    worst = float(np.max(np.abs(
        hardy_closed_form_E(ga, gb, ga, gb) - (-np.cos(ga - gb))
    )))
    ok = worst <= 1e-12
    with capsys.disabled():
        report_line(2, "tied settings reproduce -cos(a-b)", ok, f"worst={worst:.2e}")
    assert ok


def test_criterion_03_lhv_soundness(capsys):
    rng = np.random.default_rng(3)
    a, a2, b, b2, ar, a2r, br, b2r = rng.uniform(0, math.tau, (8, 10_000))
    values = (
        hardy_closed_form_E(a2, b2, a2r, b2r)
        + hardy_closed_form_E(a2, b, ar, b2r)
        + hardy_closed_form_E(a, b2, a2r, br)
        - hardy_closed_form_E(a, b, ar, br)
    )
    exceptions = int(np.sum((values < -2 - 1e-9) | (values > 2 + 1e-9)))
    ok = exceptions == 0
    with capsys.disabled():
        report_line(
            3, "retarded four-correlation combination within [-2, 2]", ok,
            f"octuples=10000, exceptions={exceptions}, "
            f"range=[{values.min():.6f}, {values.max():.6f}]",
        )
    assert ok


def test_criterion_04_quantum_violation(capsys):
    opt = optimize(ObjectiveSpec(model="quantum", inequality="chsh"))
    ok_opt = abs(abs(opt.value) - 2 * SQRT2) <= 1e-6

    code = main(["analytic", "quantum", "chsh"] + QUARTET_FLAGS)
    capsys.readouterr()
    ok_quartet_exit = code == 3
    quartet_value = (
        quantum_E(QUARTET_ANGLES["a2"], QUARTET_ANGLES["b2"])
        + quantum_E(QUARTET_ANGLES["a2"], QUARTET_ANGLES["b"])
        + quantum_E(QUARTET_ANGLES["a"], QUARTET_ANGLES["b2"])
        - quantum_E(QUARTET_ANGLES["a"], QUARTET_ANGLES["b"])
    )
    ok_quartet = abs(quartet_value - (-2 * SQRT2)) <= 1e-9
    ok = ok_opt and ok_quartet and ok_quartet_exit
    with capsys.disabled():
        report_line(
            4, "quantum reaches 2*sqrt(2)", ok,
            f"optimum={opt.value:.9f}, quartet={quartet_value:.9f}",
        )
    assert ok_opt, f"optimizer value {opt.value}"
    assert ok_quartet and ok_quartet_exit


def test_criterion_05_reduction_collapses(capsys):
    estimates = np.linspace(-1.0, 1.0, 2001)
    ok_both = True
    for e in estimates:
        corr = CorrelationInput({("a", "b", "a", "b"): Correlation(float(e))})
        rep = both_equal_reduction(corr, "a", "b")
        if rep.verdict != "satisfied" or rep.value != 2.0 * float(e):
            ok_both = False
            break

    rng = np.random.default_rng(5)
    worst = 0.0
    ok_one_end = True
    for _ in range(100):
        ang = dict(zip(("a", "b", "b2", "br", "b2r"), rng.uniform(0, math.tau, 5)))
        quads = [("a", "b2", "a", "b2r"), ("a", "b", "a", "b2r"),
                 ("a", "b2", "a", "br"), ("a", "b", "a", "br")]
        cells = {
            q: Correlation(float(quantum_E(ang[q[0]], ang[q[1]]))) for q in quads
        }
        rep = one_end_equal_chsh(CorrelationInput(cells), "a", "b", "b2", "br", "b2r")
        diff = abs(rep.value - 2.0 * float(quantum_E(ang["a"], ang["b2"])))
        worst = max(worst, diff)
        if diff > 1e-12 or rep.verdict != "satisfied":
            ok_one_end = False
    ok = ok_both and ok_one_end
    with capsys.disabled():
        report_line(
            5, "degenerate reductions collapse as required", ok,
            f"one-end worst dev={worst:.2e}",
        )
    assert ok_both
    assert ok_one_end


def test_criterion_06_algebraic_identities(capsys):
    chsh = chsh_identity_check()
    rng = np.random.default_rng(6)
    pts = rng.random((4, 1_000_000))
    values = ch_expression(pts[0], pts[1], pts[2], pts[3])
    bad = int(np.sum((values < -1.0) | (values > 0.0)))
    ok = chsh.passed and bad == 0
    with capsys.disabled():
        report_line(
            6, "sign and probability identities hold", ok,
            f"chsh=16/16, ch range=[{values.min():.6f}, {values.max():.6f}]",
        )
    assert chsh.passed
    assert bad == 0


def test_criterion_07_probability_form(capsys):
    octuple = ("a", "a2", "b", "b2", "a", "a", "b", "b")
    quads = octuple_cells(*octuple)
    cells = {
        q: Correlation((1.0 - math.cos(QUARTET_ANGLES[q[0]] - QUARTET_ANGLES[q[1]])) / 4.0)
        for q in quads
    }
    rep = retarded_ch(cells, 0.5, 0.5, *octuple)
    ok_quantum = (
        abs(rep.value - (-(1 + SQRT2) / 2)) <= 1e-9
        and rep.value < -1.0
        and rep.verdict == "violated"
    )

    rng = np.random.default_rng(7)
    a, a2, b, b2, ar, a2r, br, b2r = rng.uniform(0, math.tau, (8, 10_000))
    ch_values = (
        (1 + hardy_closed_form_E(a2, b2, a2r, b2r)) / 4
        + (1 + hardy_closed_form_E(a2, b, ar, b2r)) / 4
        + (1 + hardy_closed_form_E(a, b2, a2r, br)) / 4
        - (1 + hardy_closed_form_E(a, b, ar, br)) / 4
        - 0.5
        - 0.5
    )
    bad = int(np.sum((ch_values < -1 - 1e-9) | (ch_values > 1e-9)))

    # quadrature spot checks pin the lifted probabilities to the closed form
    worst = 0.0
    for k in range(20):
        p12, p1, p2 = quadrature_ch_probs(
            HARDY, float(a[k]), float(b[k]), float(ar[k]), float(br[k]), nodes=50_000
        )
        closed = (1 + float(hardy_closed_form_E(a[k], b[k], ar[k], br[k]))) / 4
        worst = max(worst, abs(p12 - closed), abs(p1 - 0.5), abs(p2 - 0.5))
    ok = ok_quantum and bad == 0 and worst <= 1e-3
    with capsys.disabled():
        report_line(
            7, "probability-form violation and local bound", ok,
            f"quantum={rep.value:.9f}, lhv exceptions={bad}, quad dev={worst:.1e}",
        )
    assert ok_quantum, rep
    assert bad == 0
    assert worst <= 1e-3


def test_criterion_08_periodic_switching_classification(capsys):
    # full switching cycle (two labels, half-period hold) equals L/c
    config = ScenarioConfig(
        geometry=Geometry(separation=1.0, signal_speed=1.0, t0=-3.0),
        model="hardy-singlet",
        station1=hardy_station(1, "periodic", period=0.5, cycle=("a", "a2")),
        station2=hardy_station(2, "periodic", period=0.5, phase=0.25, cycle=("b", "b2")),
        quartet=("a", "a2", "b", "b2"),
        n_trials=100_000,
        spacing=0.35,
        seed=8,
        retarded_definition="simple",
    )
    result = run_scenario(config)
    fraction = result.classification["both-equal"]
    ok = fraction == 1.0
    with capsys.disabled():
        report_line(
            8, "periodic switching leaves retarded equal to actual", ok,
            f"both-equal={fraction:.6f} over {len(result.log)} trials",
        )
    assert ok


def test_criterion_09_delay_control(capsys):
    config = ScenarioConfig(
        geometry=Geometry(separation=1.0, signal_speed=1.0, t0=-3.0),
        model="hardy-singlet",
        station1=hardy_station(1, "random_switch", rate=3.0),
        station2=hardy_station(2, "random_switch", rate=3.0),
        quartet=("a", "a2", "b", "b2"),
        n_trials=100_000,
        spacing=0.35,
        seed=9,
        retarded_definition="predictive",
        intervention_delay=1.5,  # 1.5 * L/c
    )
    result = run_scenario(config)
    fraction = result.classification["both-equal"]
    ok = fraction == 1.0
    with capsys.disabled():
        report_line(
            9, "delayed interventions restore predictability", ok,
            f"both-equal={fraction:.6f} over {len(result.log)} trials",
        )
    assert ok


def test_criterion_10_averaging_recovers_standard_bound(capsys):
    config = ScenarioConfig(
        geometry=Geometry(separation=4.0, signal_speed=1.0, t0=-6.0),
        model="hardy-singlet",
        station1=hardy_station(1, "random_switch", rate=2.0),
        station2=hardy_station(2, "random_switch", rate=2.0),
        quartet=("a", "a2", "b", "b2"),
        n_trials=4_000_000,
        spacing=1.0,
        seed=2024,
        retarded_definition="simple",
    )
    result = run_scenario(config)
    ind = result.independence
    ok_ind = ind is not None and ind.statistic < ind.critical_999
    averaged = [r for r in result.reports if r.name == "averaged_chsh"]
    ok_avg = bool(averaged) and abs(averaged[0].value) <= 2.0 + 3.0 * averaged[0].combined_se
    ok = ok_ind and ok_avg
    with capsys.disabled():
        detail = (
            f"chi2={ind.statistic:.2f}<{ind.critical_999:.2f}, "
            f"averaged={averaged[0].value:.5f}+-{averaged[0].combined_se:.5f}"
            if averaged and ind
            else "missing pieces"
        )
        report_line(10, "random switching recovers the standard bound", ok, detail)
    assert ok_ind, ind
    assert ok_avg


def test_criterion_11_consistency_triangle(capsys):
    t_start = time.monotonic()
    rng = np.random.default_rng(11)
    worst_quad = 0.0
    worst_mc_sigma = 0.0
    ok = True
    for k in range(100):
        a, b, ar, br = rng.uniform(0, math.tau, 4)
        closed = float(hardy_closed_form_E(a, b, ar, br))
        quad = quadrature_E(HARDY, a, b, ar, br, nodes=100_000)
        worst_quad = max(worst_quad, abs(quad - closed))
        est = mc_E(HARDY, a, b, ar, br, n=1_000_000, seed=11_000 + k)
        sigma = max(est.standard_error, 1e-15)
        worst_mc_sigma = max(worst_mc_sigma, abs(est.estimate - closed) / sigma)
        if abs(quad - closed) > 1e-4 or abs(est.estimate - closed) > 5 * sigma:
            ok = False
    elapsed = time.monotonic() - t_start
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        report_line(
            11, "closed form, quadrature and sampling agree", ok,
            f"quad worst={worst_quad:.2e}, mc worst={worst_mc_sigma:.2f} sigma, "
            f"{elapsed:.1f}s",
        )
    assert worst_quad <= 1e-4
    assert worst_mc_sigma <= 5.0
    assert elapsed < 60.0


def test_criterion_12_model_saturation(capsys):
    opt = optimize(ObjectiveSpec(model="hardy", inequality="same_retarded_chsh"))
    s = opt.settings
    ok_value = abs(opt.value - (-2.0)) <= 1e-6
    ok_geometry = (
        abs(math.cos(s["a2"] - s["b"]) - 1.0) <= 1e-6
        and abs(math.cos(s["a"] - s["b2"]) - 1.0) <= 1e-6
    )
    ok = ok_value and ok_geometry
    with capsys.disabled():
        report_line(
            12, "model saturates the bound at swapped settings", ok,
            f"value={opt.value:.9f}",
        )
    assert ok_value, opt.value
    assert ok_geometry, opt.settings


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
seed = 1312
retarded_definition = simple
quartet = a, a2, b, b2
min_count = 100
"""


def test_criterion_13_bit_reproducibility(tmp_path, capsys, monkeypatch):
    config = tmp_path / "scenario.ini"
    config.write_text(CONFIG_TEXT)

    def run_into(name: str, workers_env) -> dict[str, bytes]:
        if workers_env is None:
            monkeypatch.delenv("RBL_WORKERS", raising=False)
        else:
            monkeypatch.setenv("RBL_WORKERS", str(workers_env))
        out = tmp_path / name
        code = main(["run", "--config", str(config), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        # every file the run wrote, the trial log's column files included
        return {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        }

    first = run_into("r1", None)
    assert {"trials.csv", "correlations.csv", "trials.columns/index.json",
            "trials.columns/a_r.npy"} <= set(first)
    second = run_into("r2", None)
    serial = run_into("r3", 1)
    threaded = run_into("r4", 8)
    ok_repeat = first == second
    ok_workers = serial == threaded == first
    ok = ok_repeat and ok_workers
    with capsys.disabled():
        report_line(
            13, "identical seeds give identical artifacts", ok,
            f"repeat={'=' if ok_repeat else '!='}, workers={'=' if ok_workers else '!='}",
        )
    assert ok_repeat
    assert ok_workers

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from conftest import grid_min, traced_peak_mib
from rbell import optimizer
from rbell.errors import UnsupportedObjectiveError
from rbell.estimation import exact_terms
from rbell.inequalities import ANGLE_FLAGS, INEQUALITIES, QUARTET, Correlation, CorrelationInput
from rbell.models import DeterministicLHV, HiddenSpace, get_model, hardy_closed_form_E
from rbell.optimizer import ObjectiveSpec, _grid_axes, _grid_scan, build_objective, optimize

SQRT2 = math.sqrt(2)


def test_quantum_chsh_minimum():
    opt = optimize(ObjectiveSpec(model="quantum", inequality="chsh"))
    assert opt.value == pytest.approx(-2 * SQRT2, abs=1e-6)
    s = opt.settings
    # canonicalized rotation puts a at zero
    assert s["a"] == 0.0
    # each of the three positive terms sits at -cos = -1/sqrt(2), the
    # negative one at +1/sqrt(2)
    assert math.cos(s["a2"] - s["b2"]) == pytest.approx(1 / SQRT2, abs=1e-6)
    assert math.cos(s["a2"] - s["b"]) == pytest.approx(1 / SQRT2, abs=1e-6)
    assert math.cos(s["a"] - s["b2"]) == pytest.approx(1 / SQRT2, abs=1e-6)
    assert math.cos(s["a"] - s["b"]) == pytest.approx(-1 / SQRT2, abs=1e-6)


def test_quantum_chsh_maximum():
    opt = optimize(ObjectiveSpec(model="quantum", inequality="chsh",
                                 direction="maximize"))
    assert opt.value == pytest.approx(2 * SQRT2, abs=1e-6)


def test_quantum_chsh_against_independent_grid_search():
    # coarse independent oracle over the same expression
    def chsh(a, a2, b, b2):
        E = lambda x, y: -np.cos(x - y)
        return E(a2, b2) + E(a2, b) + E(a, b2) - E(a, b)

    axis = np.arange(0.0, math.tau, math.pi / 8)
    oracle_value, _ = grid_min(chsh, {"a": axis, "a2": axis, "b": axis, "b2": axis})
    opt = optimize(ObjectiveSpec(model="quantum", inequality="chsh"))
    assert opt.value <= oracle_value + 1e-12


def test_hardy_same_retarded_saturates_at_swapped_angles():
    opt = optimize(ObjectiveSpec(model="hardy", inequality="same_retarded_chsh"))
    assert opt.value == pytest.approx(-2.0, abs=1e-6)
    s = opt.settings
    assert math.cos(s["a2"] - s["b"]) == pytest.approx(1.0, abs=1e-6)
    assert math.cos(s["a"] - s["b2"]) == pytest.approx(1.0, abs=1e-6)


def test_hardy_retarded_chsh_stays_in_local_bounds():
    fixed_retarded = {"ar": 0.3, "a2r": 1.1, "br": 2.0, "b2r": 0.7}
    lo = optimize(ObjectiveSpec(model="hardy", inequality="retarded_chsh",
                                retarded=fixed_retarded))
    hi = optimize(ObjectiveSpec(model="hardy", inequality="retarded_chsh",
                                retarded=fixed_retarded, direction="maximize"))
    assert lo.value >= -2.0 - 1e-9
    assert hi.value <= 2.0 + 1e-9


def test_constant_objective_single_variable():
    # quantum correlations ignore retarded settings entirely
    spec = ObjectiveSpec(
        model="quantum",
        inequality="retarded_chsh",
        free=("ar",),
        fixed={"a": 0.0, "a2": math.pi / 2, "b": math.pi / 4, "b2": -math.pi / 4},
        retarded="free",
    )
    opt = optimize(spec)
    expect = float(
        -np.cos(math.pi / 2 + math.pi / 4)
        - np.cos(math.pi / 2 - math.pi / 4)
        - np.cos(math.pi / 4)
        + np.cos(-math.pi / 4)
    )
    assert opt.value == pytest.approx(expect, abs=1e-12)


def test_trace_is_monotone_and_value_reproducible():
    spec = ObjectiveSpec(model="quantum", inequality="chsh")
    opt = optimize(spec)
    values = [v for _, v in opt.trace]
    assert all(v2 <= v1 + 1e-15 for v1, v2 in zip(values, values[1:]))
    # re-evaluating the objective at the reported settings reproduces value
    objective = build_objective(spec)
    again = float(objective({k: np.asarray(v) for k, v in opt.settings.items()}))
    assert again == pytest.approx(opt.value, abs=1e-9)
    # grid best (first trace entry) is never better than the final value
    assert opt.value <= values[0] + 1e-15


def test_maximize_trace_monotone_up():
    opt = optimize(ObjectiveSpec(model="quantum", inequality="chsh",
                                 direction="maximize"))
    values = [v for _, v in opt.trace]
    assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(values, values[1:]))


def test_rotation_invariance_of_reported_optimum():
    spec = ObjectiveSpec(model="quantum", inequality="chsh")
    opt = optimize(spec)
    objective = build_objective(spec)
    shift = 0.7
    rotated = {k: np.asarray((v + shift) % math.tau) for k, v in opt.settings.items()}
    assert float(objective(rotated)) == pytest.approx(opt.value, abs=1e-9)


def test_retarded_ch_quantum_minimum():
    opt = optimize(ObjectiveSpec(model="quantum", inequality="retarded_ch"))
    assert opt.value == pytest.approx(-(1 + SQRT2) / 2, abs=1e-6)


def test_retarded_ch_hardy_bounded():
    lo = optimize(ObjectiveSpec(model="hardy", inequality="retarded_ch"))
    hi = optimize(ObjectiveSpec(model="hardy", inequality="retarded_ch",
                                direction="maximize"))
    assert lo.value >= -1.0 - 1e-9
    assert hi.value <= 0.0 + 1e-9


def test_monte_carlo_only_model_rejected():
    class SamplerOnly:
        name = "sampler-only"
        is_local = False

        @staticmethod
        def sample_pairs(a, b, rng, n):  # pragma: no cover - never called
            raise AssertionError

    from rbell.models import register_model, _FACTORIES

    register_model("sampler-only", SamplerOnly)
    try:
        with pytest.raises(UnsupportedObjectiveError):
            optimize(ObjectiveSpec(model="sampler-only", inequality="chsh"))
    finally:
        _FACTORIES.pop("sampler-only", None)


def test_quadrature_backed_objective_coarsens_grid():
    # a local model without closed forms goes through quadrature; the
    # grid is automatically coarsened to stay tractable
    from rbell.models import hardy_outcome_A, hardy_outcome_B

    model = DeterministicLHV(
        name="hardy-no-closed-form",
        hidden=HiddenSpace.uniform_circle(),
        outcome_A=hardy_outcome_A,
        outcome_B=hardy_outcome_B,
    )
    from rbell.models import register_model, _FACTORIES

    register_model("hardy-no-closed-form", lambda: model)
    try:
        spec = ObjectiveSpec(
            model="hardy-no-closed-form",
            inequality="same_retarded_chsh",
            free=("a2", "b2"),
            fixed={"a": 0.0, "b": 0.0},
            quadrature_nodes=2_000,
        )
        opt = optimize(spec)
        # reduced problem: -(cos(a2) + cos(b2)) - cos(0) + cos(0), minimized at 0
        assert opt.value == pytest.approx(-2.0, abs=1e-2)
    finally:
        _FACTORIES.pop("hardy-no-closed-form", None)


def test_objective_spec_validation_and_json():
    with pytest.raises(ValueError):
        ObjectiveSpec(model="quantum", inequality="nope")
    with pytest.raises(ValueError):
        ObjectiveSpec(model="quantum", inequality="chsh", direction="sideways")
    with pytest.raises(ValueError):
        ObjectiveSpec(model="quantum", inequality="chsh", free=("zz",))
    with pytest.raises(ValueError):
        ObjectiveSpec(model="quantum", inequality="chsh", free=())
    with pytest.raises(ValueError, match="'a' is listed more than once"):
        ObjectiveSpec(model="quantum", inequality="chsh", free=("a", "b", "a"))
    # a zero, negative, nan or infinite step cannot be scanned; inf never halves
    for step in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="grid_step must be finite and positive"):
            ObjectiveSpec(model="quantum", inequality="chsh", grid_step=step)
    with pytest.raises(ValueError, match="grid_step"):
        ObjectiveSpec.from_json('{"model": "quantum", "inequality": "chsh", "grid_step": 0}')
    # a step of a turn or more would scan one point, all-zero angles, and stall there
    for step in (7.0, 6.2832, math.tau, 1e308):
        with pytest.raises(ValueError, match=r"less than 2\*pi, got"):
            ObjectiveSpec(model="quantum", inequality="chsh", grid_step=step)
    # quadrature refuses fewer nodes, and a spec says so before any search
    with pytest.raises(ValueError, match="quadrature_nodes must be at least 1000, got 999"):
        ObjectiveSpec(model="quantum", inequality="chsh", quadrature_nodes=999)
    spec = ObjectiveSpec.from_json(json.dumps({
        "model": "hardy",
        "inequality": "same_retarded_chsh",
        "direction": "minimize",
        "free": ["a", "a2", "b", "b2"],
    }))
    assert spec.free == ("a", "a2", "b", "b2")


def test_optimum_json_shape():
    opt = optimize(ObjectiveSpec(
        model="quantum", inequality="chsh", free=("a2",),
        fixed={"a": 0.0, "b": math.pi / 4, "b2": -math.pi / 4},
    ))
    data = json.loads(json.dumps(opt.to_dict()))
    assert set(data) == {"settings", "value", "evaluations", "trace"}
    assert isinstance(data["trace"][0], list)


@pytest.mark.parametrize("retarded", [False, True], ids=["tied", "retarded"])
@pytest.mark.parametrize("model", ["hardy", "quantum"])
@pytest.mark.parametrize("ineq", list(INEQUALITIES))
@settings(max_examples=25, deadline=None)
@given(data=st_.data())
def test_objective_matches_table_evaluate(ineq, model, retarded, data):
    # the optimizer's vectorized objective against the row's scalar
    # evaluate on exact cells, point by point, as `analytic` builds them
    flags = ANGLE_FLAGS if retarded else QUARTET
    n = data.draw(st_.integers(1, 6), label="n")
    angle = st_.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    assign = {
        k: np.array(data.draw(st_.lists(angle, min_size=n, max_size=n), label=k))
        for k in flags
    }
    spec = ObjectiveSpec(model=model, inequality=ineq, free=flags,
                         retarded="free" if retarded else "tied")
    values = np.broadcast_to(build_objective(spec)(assign), n)
    row, m = INEQUALITIES[ineq], get_model(model)
    # an absent retarded flag takes its actual flag's angle, as in `analytic`
    ids = {k: k if k in flags else k[:-1] for k in ANGLE_FLAGS}
    quads, terms = row.cells(ids), exact_terms(m, row)
    for i in range(n):
        cell_values, singles = terms({k: float(assign[v][i]) for k, v in ids.items()})
        cells = CorrelationInput({q: Correlation(float(v)) for q, v in zip(quads, cell_values)})
        report = row.evaluate(cells, ids, singles or None)
        assert abs(values[i] - report.value) <= 1e-12


def _meshgrid_scan(objective, free, axis, sign):
    """The grid stage over full meshgrid arrays, one k**len(free) array per
    free variable: best flat index, its signed value, points evaluated."""
    grids = np.meshgrid(*[axis] * len(free), indexing="ij")
    flat = {name: g.ravel() for name, g in zip(free, grids)}
    values = sign * np.asarray(objective(flat), dtype=float).ravel()
    best_flat = int(np.argmin(values))
    return best_flat, float(values[best_flat]), values.size


def _assert_scans_agree(spec, quadrature_backed=False, objective=None):
    step, axis = _grid_axes(spec, quadrature_backed)
    objective = objective or build_objective(spec)
    sign = 1.0 if spec.direction == "minimize" else -1.0
    expect = _meshgrid_scan(objective, spec.free, axis, sign)
    assert _grid_scan(objective, spec.free, axis, sign) == expect
    # a prime block size divides no grid here: the scan takes many blocks,
    # often with a short last one; 997 keeps 6**8 points to ~2000 blocks
    odd_block = 7 if axis.size ** len(spec.free) <= 4**6 else 997
    with mock.patch.object(optimizer, "BLOCK_SIZE", odd_block):
        assert _grid_scan(objective, spec.free, axis, sign) == expect
    return expect


@pytest.mark.parametrize("retarded", ["tied", "free"])
@pytest.mark.parametrize("model", ["hardy", "quantum"])
@pytest.mark.parametrize("ineq", list(INEQUALITIES))
@settings(max_examples=10, deadline=None)
@given(data=st_.data())
def test_grid_scan_matches_meshgrid_scan(ineq, model, retarded, data):
    # broadcasting the free axes finds the same point, value and count as
    # evaluating the objective on the full meshgrid
    flags = ANGLE_FLAGS if retarded == "free" else QUARTET
    free = data.draw(
        st_.lists(st_.sampled_from(flags), min_size=1, max_size=len(flags), unique=True),
        label="free",
    )
    angle = st_.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    fixed = {k: data.draw(angle, label=k) for k in flags
             if k not in free and data.draw(st_.booleans(), label=f"fix {k}")}
    spec = ObjectiveSpec(
        model=model,
        inequality=ineq,
        direction=data.draw(st_.sampled_from(["minimize", "maximize"]), label="direction"),
        free=tuple(free),
        fixed=fixed,
        retarded=retarded,
        grid_step=data.draw(st_.sampled_from([math.pi / 2, 2 * math.pi / 5, math.pi / 3]),
                            label="grid_step"),
    )
    _assert_scans_agree(spec)


@pytest.mark.parametrize("ineq", list(INEQUALITIES))
def test_grid_scan_matches_meshgrid_scan_by_quadrature(ineq):
    from rbell.models import _FACTORIES, hardy_outcome_A, hardy_outcome_B, register_model

    register_model("hardy-no-closed-form", lambda: DeterministicLHV(
        name="hardy-no-closed-form",
        hidden=HiddenSpace.uniform_circle(),
        outcome_A=hardy_outcome_A,
        outcome_B=hardy_outcome_B,
    ))
    try:
        spec = ObjectiveSpec(
            model="hardy-no-closed-form",
            inequality=ineq,
            free=("a", "b2", "ar"),
            fixed={"b": 0.4},
            retarded="free",
            grid_step=math.pi / 2,
            quadrature_nodes=2_000,
        )
        _assert_scans_agree(spec, quadrature_backed=True)
    finally:
        _FACTORIES.pop("hardy-no-closed-form", None)


@pytest.mark.parametrize("free", [("a",), ("a", "b"), ("a", "a2", "b"), QUARTET])
def test_grid_scan_tie_across_blocks_resolves_to_first_point(free):
    # a constant objective ties every block: the first block wins, at flat 0
    spec = ObjectiveSpec(model="quantum", inequality="chsh", free=free,
                         grid_step=2 * math.pi / 5)
    expect = _assert_scans_agree(spec, objective=lambda assign: 0.0 * sum(assign.values()))
    assert expect == (0, 0.0, 5 ** len(free))


@pytest.mark.parametrize("step", [1e-308, 5e-324])
def test_grid_axes_coarsen_a_step_too_fine_to_count(step):
    # TAU / step is inf here; the step doubles like any over-fine step
    spec = ObjectiveSpec(model="quantum", inequality="chsh", grid_step=step)
    coarse, axis = _grid_axes(spec, False)
    assert math.isfinite(math.tau / coarse)
    # the finest grid within the limit: half the step would exceed it
    assert axis.size**4 <= optimizer.MAX_GRID_POINTS < math.ceil(math.tau / (coarse / 2)) ** 4


@pytest.mark.parametrize(
    "ineq,quadrature",
    [("retarded_ch", True), ("same_retarded_chsh", False), ("retarded_chsh", False)],
)
def test_grid_size_follows_the_quantities_the_row_reads(monkeypatch, ineq, quadrature):
    # a model with a closed-form E alone scores a probability row by
    # quadrature, so its grid takes the quadrature limit; the scan itself
    # is never run
    from rbell.models import _FACTORIES, hardy_outcome_A, hardy_outcome_B, register_model

    register_model("hardy-E-only", lambda: DeterministicLHV(
        name="hardy-E-only",
        hidden=HiddenSpace.uniform_circle(),
        outcome_A=hardy_outcome_A,
        outcome_B=hardy_outcome_B,
        closed_form_E=hardy_closed_form_E,
    ))

    class Scanned(Exception):
        pass

    def scan(objective, free, axis, sign):
        raise Scanned(axis.size ** len(free))

    monkeypatch.setattr(optimizer, "_grid_scan", scan)
    try:
        with pytest.raises(Scanned) as scanned:
            optimize(ObjectiveSpec(model="hardy-E-only", inequality=ineq))
    finally:
        _FACTORIES.pop("hardy-E-only", None)
    (points,) = scanned.value.args
    limit = optimizer.MAX_GRID_POINTS_QUADRATURE if quadrature else optimizer.MAX_GRID_POINTS
    assert points <= limit
    assert (points <= optimizer.MAX_GRID_POINTS_QUADRATURE) == quadrature


def test_grid_scan_memory_does_not_grow_with_the_grid():
    # 64**4 = 16.8 M points: one float64 array of them alone is 128 MiB
    spec = ObjectiveSpec("quantum", "chsh", grid_step=math.pi / 32)
    assert traced_peak_mib(lambda: optimize(spec)) < 16

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from conftest import piecewise_constant_mean
from rbell.errors import UnknownModelError, UnsupportedModelError
from rbell.models import (
    TAU,
    DeterministicLHV,
    HiddenSpace,
    QuantumSinglet,
    StochasticLHV,
    _THREE_PI,
    _half_circle_sign,
    get_model,
    hardy_closed_form_E,
    hardy_outcome_A,
    hardy_outcome_B,
    hardy_singlet,
    model_names,
    quantum_E,
    quantum_joint_probs,
    quantum_sample_pairs,
    sample_outcomes,
)
from rbell.estimation import substream

angles = st_.floats(-10.0, 10.0)


# ----------------------------------------------------------------------
# hidden space
# ----------------------------------------------------------------------


def test_uniform_circle_density_normalized():
    assert HiddenSpace.uniform_circle().normalization_defect() <= 1e-9


def test_uniform_circle_sampler_in_range():
    rng = np.random.default_rng(0)
    lam = HiddenSpace.uniform_circle().sample(rng, 10_000)
    assert lam.min() >= 0.0 and lam.max() < math.tau


# ----------------------------------------------------------------------
# half-circle offsets
# ----------------------------------------------------------------------


def hardy_thetas(a: float, b: float, a_r: float, b_r: float) -> tuple[float, float]:
    """Half-circle offsets of the two outcome functions at one point.

    The left offset depends on (a, b_r), the right one on (b, a_r).
    Values are un-normalized; their difference always lies in [0, pi],
    which is what the closed-form correlation relies on.  The oracle of
    the offsets that hardy_outcome_A and hardy_outcome_B compute per
    trial.
    """
    left = -(np.pi / 4.0) * (1.0 + np.cos(a - b_r))
    right = (np.pi / 4.0) * (1.0 + np.cos(a_r - b))
    return float(left), float(right)


def test_theta_left_at_equal_angles():
    tl, _ = hardy_thetas(0.7, 0.0, 0.0, 0.7)
    assert tl == pytest.approx(-math.pi / 2, abs=1e-15)


def test_theta_right_at_opposite_angles():
    _, tr = hardy_thetas(0.0, 0.0, math.pi, 0.0)
    assert tr == pytest.approx(0.0, abs=1e-12)


def test_theta_left_quarter_turn():
    tl, _ = hardy_thetas(0.0, 0.0, 0.0, math.pi / 2)
    assert tl == pytest.approx(-math.pi / 4, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(a=angles, b=angles, ar=angles, br=angles)
def test_theta_difference_in_unit_interval(a, b, ar, br):
    tl, tr = hardy_thetas(a, b, ar, br)
    assert 0.0 <= tr - tl <= math.pi + 1e-12


# ----------------------------------------------------------------------
# outcome functions
# ----------------------------------------------------------------------


def test_outcome_examples():
    assert int(hardy_outcome_A(0.0, 0.0, np.asarray(0.0))) == 1
    assert int(hardy_outcome_A(0.0, 0.0, np.asarray(math.pi))) == -1


def test_outcomes_are_signs():
    rng = np.random.default_rng(1)
    lam = rng.uniform(0, math.tau, 1000)
    out = hardy_outcome_A(0.3, 1.2, lam)
    assert set(np.unique(out)) <= {-1, 1}


def _half_circle_sign_by_remainder(theta, lam):
    """The kernel as numpy's float remainder states it."""
    return np.where((np.asarray(lam) - theta) % TAU < np.pi, 1, -1).astype(np.int8)


def test_three_pi_is_least_float_a_period_past_the_half_circle():
    # the kernel's band test: (d - 2pi) % 2pi < pi exactly when d < 3pi on [2pi, 4pi)
    below = np.nextafter(_THREE_PI, -math.inf)
    assert _THREE_PI == 3 * math.pi
    assert _THREE_PI - TAU >= math.pi
    assert below - TAU < math.pi
    assert (below - TAU) % TAU < math.pi <= (_THREE_PI - TAU) % TAU


# lam - theta at the period, the half period and zero, at -pi and 3pi
# (the kernel's band edges), one ulp either side of each, at large
# magnitudes, infinite and nan
_EDGES = [
    x
    for v in (-TAU, -math.pi, -0.0, 0.0, math.pi, TAU, _THREE_PI, 2 * TAU)
    for x in (np.nextafter(v, -math.inf), v, np.nextafter(v, math.inf))
] + [1e300, -1e300, 2.0**53 + 1.0, -(2.0**60), math.inf, -math.inf, math.nan]
_differences = st_.one_of(st_.sampled_from(_EDGES), st_.floats(allow_nan=True))
_offsets = st_.one_of(st_.sampled_from([0.0, -0.0, math.pi, -math.pi / 2]),
                      st_.floats(-10.0, 10.0), st_.floats(allow_nan=True))


# the kernel's band edges, the ends of its band between them; d spans
# the edges strictly inside the gaps its min and max are drawn from
_BAND_EDGES = (-math.pi, 0.0, math.pi, TAU, _THREE_PI)
_GAPS = list(zip((-TAU,) + _BAND_EDGES, _BAND_EDGES + (2 * TAU,)))


@st_.composite
def _band_differences(draw):
    """An array of d = lam - theta inside (-2pi, 4pi) whose min lies in
    one gap between edges and whose max in the same or a later one, so
    it spans none, one, several or all five edges."""
    first = draw(st_.integers(0, len(_GAPS) - 1), label="first gap")
    last = draw(st_.integers(first, len(_GAPS) - 1), label="last gap")

    def in_gap(k):
        left, right = _GAPS[k]
        ends = [np.nextafter(right, -math.inf)] + ([left] if k else [])
        inner = st_.floats(left, right, exclude_min=not k, exclude_max=True)
        return st_.one_of(st_.sampled_from(ends), inner)

    lo, hi = draw(in_gap(first)), draw(in_gap(last))
    lo, hi = min(lo, hi), max(lo, hi)
    n = draw(st_.integers(0, 62), label="n")
    inner = st_.one_of(st_.sampled_from([lo, hi]), st_.floats(lo, hi))
    return np.array([lo, hi] + draw(st_.lists(inner, min_size=n, max_size=n)))


def _assert_sign_matches_remainder_form(theta, lam):
    got, want = _half_circle_sign(theta, lam), _half_circle_sign_by_remainder(theta, lam)
    assert got.dtype == want.dtype == np.int8
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(data=st_.data())
def test_half_circle_sign_matches_remainder_form(data):
    if data.draw(st_.booleans(), label="in band"):
        d = data.draw(_band_differences(), label="d")
        n = len(d)
    else:
        n = data.draw(st_.integers(0, 64), label="n")
        d = np.array(data.draw(st_.lists(_differences, min_size=n, max_size=n), label="d"))
    theta_scalar = data.draw(st_.booleans(), label="theta_scalar")
    if theta_scalar:
        theta = data.draw(_offsets, label="theta")
    else:
        theta = np.array(data.draw(st_.lists(_offsets, min_size=n, max_size=n), label="theta"))
    # lam = theta + d reaches d itself wherever theta is zero
    with np.errstate(invalid="ignore", over="ignore"):
        lam = theta + d
        cases = [(theta, lam)] + [(theta, x) for x in lam[:2]]
        if theta_scalar:
            cases += [(theta, float(x)) for x in d[:2]]
        for t, x in cases:
            _assert_sign_matches_remainder_form(t, x)


def test_half_circle_sign_at_every_edge_and_its_neighbours():
    # every edge and one ulp either side, whole and cut so that each
    # edge, and each neighbour, is the min or the max of some array
    d = np.array([x for v in _BAND_EDGES
                  for x in (np.nextafter(v, -math.inf), v, np.nextafter(v, math.inf))])
    for k in range(len(d)):
        for part in (d, d[:k + 1], d[k:], d[::-1]):
            _assert_sign_matches_remainder_form(0.0, part)
            _assert_sign_matches_remainder_form(-0.0, part)


@settings(max_examples=100, deadline=None)
@given(data=st_.data())
def test_outcomes_match_per_trial_offsets(data):
    # per-trial setting arrays against the scalar offsets of each trial
    n = data.draw(st_.integers(1, 8), label="n")
    a, b, ar, br = (np.array(data.draw(st_.lists(angles, min_size=n, max_size=n)))
                    for _ in range(4))
    lam = np.array(data.draw(st_.lists(st_.floats(0.0, math.tau, exclude_max=True),
                                       min_size=n, max_size=n), label="lam"))
    thetas = [hardy_thetas(*point) for point in zip(a, b, ar, br)]
    left = [_half_circle_sign_by_remainder(tl, x) for (tl, _), x in zip(thetas, lam)]
    right = [_half_circle_sign_by_remainder(tr, x) for (_, tr), x in zip(thetas, lam)]
    np.testing.assert_array_equal(hardy_outcome_A(a, br, lam), left)
    np.testing.assert_array_equal(hardy_outcome_B(b, ar, lam), right)


def test_plus_set_measure_is_half_circle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, br = rng.uniform(0, math.tau, 2)
        measure = piecewise_constant_mean(
            lambda lam: (hardy_outcome_A(a, br, lam) > 0).astype(float),
            0.0,
            math.tau,
        )
        assert measure * math.tau == pytest.approx(math.pi, abs=1e-9)


def test_outcome_periodic_in_lambda():
    rng = np.random.default_rng(3)
    lam = rng.uniform(0, math.tau, 500)
    a, br = 1.1, 4.0
    assert np.array_equal(
        hardy_outcome_A(a, br, lam), hardy_outcome_A(a, br, lam + math.tau)
    )
    assert np.array_equal(
        hardy_outcome_B(a, br, lam), hardy_outcome_B(a, br, lam - math.tau)
    )


def test_zero_marginals_exact():
    # the +1 region is exactly a half circle, so the average outcome is 0
    rng = np.random.default_rng(4)
    for _ in range(10):
        a, br = rng.uniform(0, math.tau, 2)
        mean = piecewise_constant_mean(
            lambda lam: hardy_outcome_A(a, br, lam).astype(float), 0.0, math.tau
        )
        assert abs(mean) <= 1e-9
        mean_b = piecewise_constant_mean(
            lambda lam: hardy_outcome_B(a, br, lam).astype(float), 0.0, math.tau
        )
        assert abs(mean_b) <= 1e-9


# ----------------------------------------------------------------------
# closed-form correlation
# ----------------------------------------------------------------------


def test_closed_form_examples():
    # retarded equal to actual reproduces the singlet correlation
    assert float(hardy_closed_form_E(0.4, 1.3, 0.4, 1.3)) == pytest.approx(
        -math.cos(0.4 - 1.3), abs=0.0
    )
    assert float(hardy_closed_form_E(0.7, 0.7, 0.7, 0.7)) == -1.0
    assert float(hardy_closed_form_E(0.0, 0.0, math.pi, math.pi)) == pytest.approx(
        1.0, abs=1e-15
    )


def test_closed_form_equals_theta_formula():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b, ar, br = rng.uniform(-6, 6, 4)
        tl, tr = hardy_thetas(a, b, ar, br)
        assert float(hardy_closed_form_E(a, b, ar, br)) == pytest.approx(
            1.0 - 2.0 * abs(tr - tl) / math.pi, abs=1e-12
        )


def test_closed_form_matches_brute_force_quadrature():
    # independent oracle: plain uniform-grid average of the outcome product
    rng = np.random.default_rng(6)
    nodes = 100_000
    lam = (np.arange(nodes) + 0.5) * (math.tau / nodes)
    for _ in range(100):
        a, b, ar, br = rng.uniform(0, math.tau, 4)
        brute = float(
            np.mean(
                hardy_outcome_A(a, br, lam).astype(float) * hardy_outcome_B(b, ar, lam)
            )
        )
        assert brute == pytest.approx(float(hardy_closed_form_E(a, b, ar, br)), abs=1e-4)


def test_reproduces_quantum_when_tied_exactly():
    grid = np.linspace(0.0, math.tau, 64, endpoint=False)
    for a in grid:
        for b in grid[::7]:
            assert float(hardy_closed_form_E(a, b, a, b)) == float(quantum_E(a, b))


def test_one_end_mismatch_breaks_quantum_agreement():
    # witness quadruple: same actual angles, one retarded flipped by pi
    value = float(hardy_closed_form_E(0.0, 0.0, 0.0, math.pi))
    assert value == pytest.approx(0.0, abs=1e-12)
    assert float(quantum_E(0.0, 0.0)) == -1.0


@settings(max_examples=100, deadline=None)
@given(a=angles, b=angles, ar=angles, br=angles, shift=angles)
def test_rotation_invariance(a, b, ar, br, shift):
    base = float(hardy_closed_form_E(a, b, ar, br))
    rotated = float(hardy_closed_form_E(a + shift, b + shift, ar + shift, br + shift))
    assert rotated == pytest.approx(base, abs=1e-12)
    assert float(quantum_E(a + shift, b + shift)) == pytest.approx(
        float(quantum_E(a, b)), abs=1e-12
    )


@settings(max_examples=200, deadline=None)
@given(a=angles, b=angles, ar=angles, br=angles)
def test_correlations_bounded(a, b, ar, br):
    assert abs(float(hardy_closed_form_E(a, b, ar, br))) <= 1.0
    assert abs(float(quantum_E(a, b))) <= 1.0


# ----------------------------------------------------------------------
# quantum reference
# ----------------------------------------------------------------------


def test_quantum_E_examples():
    assert float(quantum_E(1.3, 1.3)) == -1.0
    assert float(quantum_E(math.pi / 2 + 0.4, 0.4)) == pytest.approx(0.0, abs=1e-12)
    assert float(quantum_E(math.pi / 2, -math.pi / 4)) == pytest.approx(
        math.sqrt(2) / 2, abs=1e-12
    )


def test_quantum_joint_probs_examples():
    assert quantum_joint_probs(0.9, 0.9) == pytest.approx((0.0, 0.5, 0.5, 0.0))
    assert quantum_joint_probs(math.pi, 0.0) == pytest.approx((0.5, 0.0, 0.0, 0.5))
    probs = quantum_joint_probs(math.pi / 4, 0.0)
    assert probs[0] == pytest.approx((1 - math.sqrt(2) / 2) / 4, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(a=angles, b=angles)
def test_quantum_joint_probs_consistent(a, b):
    p_pp, p_pm, p_mp, p_mm = quantum_joint_probs(a, b)
    assert all(0.0 <= p <= 1.0 for p in (p_pp, p_pm, p_mp, p_mm))
    assert p_pp + p_pm + p_mp + p_mm == pytest.approx(1.0, abs=1e-12)
    assert p_pp + p_pm == pytest.approx(0.5, abs=1e-12)  # station-1 marginal
    assert p_pp + p_mp == pytest.approx(0.5, abs=1e-12)  # station-2 marginal
    e = p_pp - p_pm - p_mp + p_mm
    assert e == pytest.approx(float(quantum_E(a, b)), abs=1e-12)


def quantum_sample_pair(a: float, b: float, rng: np.random.Generator) -> tuple[int, int]:
    """One (+-1, +-1) outcome pair from the singlet distribution, from one
    uniform: the oracle of quantum_sample_pairs, one pair at a time."""
    c = float(np.cos(a - b))
    p_same, p_diff = (1.0 - c) / 4.0, (1.0 + c) / 4.0
    u = rng.random()
    # outcome order: (+,+), (+,-), (-,+), (-,-)
    k = (u >= p_same) + (u >= p_same + p_diff) + (u >= p_same + 2.0 * p_diff)
    return (1 if k <= 1 else -1), (1 if k in (0, 2) else -1)


def test_quantum_sampling_anticorrelated_at_equal_angles():
    rng = np.random.default_rng(7)
    o1, o2 = quantum_sample_pairs(0.8, 0.8, rng, 5000)
    assert np.all(o1 == -o2)
    pair = quantum_sample_pair(0.8, 0.8, rng)
    assert pair[0] == -pair[1]


@settings(max_examples=100, deadline=None)
@given(a=angles, b=angles, seed=st_.integers(0, 2**32 - 1), n=st_.integers(1, 50))
def test_quantum_sample_pairs_match_one_pair_at_a_time(a, b, seed, n):
    o1, o2 = quantum_sample_pairs(a, b, np.random.default_rng(seed), n)
    rng = np.random.default_rng(seed)
    pairs = [quantum_sample_pair(a, b, rng) for _ in range(n)]
    assert o1.dtype == o2.dtype == np.int8
    np.testing.assert_array_equal(o1, [p[0] for p in pairs])
    np.testing.assert_array_equal(o2, [p[1] for p in pairs])


def test_quantum_sampling_matches_expectation():
    rng = np.random.default_rng(8)
    n = 1_000_000
    a, b = 0.0, math.pi / 3
    o1, o2 = quantum_sample_pairs(a, b, rng, n)
    e_hat = float(np.mean(o1.astype(float) * o2))
    se = math.sqrt((1 - 0.25) / n)
    assert abs(e_hat - (-0.5)) <= 5 * se
    p1_hat = float(np.mean(o1 == 1))
    assert abs(p1_hat - 0.5) <= 5 * math.sqrt(0.25 / n)


def test_quantum_sampler_matches_joint_probability_thresholds():
    # the sampler's thresholds p_same, p_same + p_diff, p_same + 2 p_diff
    # give the same outcomes as cumulating quantum_joint_probs
    grid = np.linspace(-4.0, 4.0, 9)
    for k, (a, b) in enumerate((x, y) for x in grid for y in grid):
        p_pp, p_pm, p_mp, _ = quantum_joint_probs(a, b)
        u = np.random.default_rng(k).random(2000)
        cat = (u >= p_pp).astype(int) + (u >= p_pp + p_pm) + (u >= p_pp + p_pm + p_mp)
        o1, o2 = quantum_sample_pairs(a, b, np.random.default_rng(k), 2000)
        np.testing.assert_array_equal(o1, np.where(cat <= 1, 1, -1))
        np.testing.assert_array_equal(o2, np.where((cat == 0) | (cat == 2), 1, -1))


SAMPLED_MODELS = {
    "hardy": hardy_singlet(),
    "hardy-lifted": StochasticLHV.from_deterministic(hardy_singlet()),
    "quantum": QuantumSinglet(),
}


@settings(max_examples=150, deadline=None)
@given(
    name=st_.sampled_from(sorted(SAMPLED_MODELS)),
    a=angles, b=angles, ar=angles, br=angles,
    seed=st_.integers(0, 2**32 - 1),
    n=st_.integers(1, 200),
)
def test_sampler_scalar_settings_match_arrays(name, a, b, ar, br, seed, n):
    # one draw sequence whether the settings are scalars or per-trial arrays
    model = SAMPLED_MODELS[name]
    scalar = sample_outcomes(model, a, b, ar, br, substream(seed, 3), n)
    arrays = sample_outcomes(
        model, *(np.full(n, x) for x in (a, b, ar, br)), substream(seed, 3), n
    )
    for got, want in zip(arrays[:2], scalar[:2]):
        assert got.shape == (n,) and set(np.unique(got)) <= {-1, 1}
        np.testing.assert_array_equal(got, want)
    if name == "quantum":
        assert scalar[2] is None and arrays[2] is None
    else:
        np.testing.assert_array_equal(arrays[2], scalar[2])


def test_sampler_rejects_unsampleable_model():
    class Opaque:
        name = "opaque"
        is_local = False

    with pytest.raises(UnsupportedModelError):
        sample_outcomes(Opaque(), 0.0, 0.0, 0.0, 0.0, np.random.default_rng(0), 4)


# ----------------------------------------------------------------------
# model wrappers and the registry
# ----------------------------------------------------------------------


def test_registry_names_and_aliases():
    assert set(model_names()) == {"hardy-singlet", "quantum-singlet"}
    assert isinstance(get_model("hardy"), DeterministicLHV)
    assert isinstance(get_model("hardy-singlet"), DeterministicLHV)
    assert isinstance(get_model("quantum"), QuantumSinglet)
    with pytest.raises(UnknownModelError):
        get_model("pr-box")


def test_model_locality_flags():
    assert get_model("hardy").is_local
    assert not get_model("quantum").is_local


def test_stochastic_lift_probabilities_valid():
    lifted = StochasticLHV.from_deterministic(hardy_singlet())
    rng = np.random.default_rng(9)
    lam = rng.uniform(0, math.tau, 1000)
    p1 = lifted.p1(0.3, 2.2, lam)
    p2 = lifted.p2(1.0, 0.1, lam)
    assert np.all((p1 >= 0) & (p1 <= 1))
    assert np.all((p2 >= 0) & (p2 <= 1))
    # lifting a deterministic model keeps p in {0, 1}
    assert set(np.unique(p1)) <= {0.0, 1.0}

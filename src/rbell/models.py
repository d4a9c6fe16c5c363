"""Local hidden-variable models and the quantum singlet reference.

Local models carry a shared hidden variable with a normalized density
and per-station outcome functions that may depend on the *retarded*
setting of the far station (a local dependence).  The built-in
"hardy-singlet" model places the hidden variable uniformly on the
circle and answers +1 on a half-circle whose position is steered by
the local setting and the far retarded setting; it reproduces the
singlet correlation -cos(a - b) whenever retarded equals actual.

The quantum reference is not a hidden-variable model: it has no lambda
and its predictions ignore retarded settings entirely.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import UnknownModelError, UnsupportedModelError

TAU = math.tau

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class HiddenSpace:
    """Sample space of the shared hidden variable.

    ``density`` must integrate to 1 over [lower, upper]; ``sample`` draws
    from it using a caller-owned random generator.
    """

    lower: float
    upper: float
    density: Callable[[np.ndarray], np.ndarray]
    sample: Callable[[np.random.Generator, int], np.ndarray]

    @classmethod
    def uniform_circle(cls) -> "HiddenSpace":
        return cls(
            lower=0.0,
            upper=TAU,
            density=lambda lam: np.full_like(np.asarray(lam, dtype=float), 1.0 / TAU),
            sample=lambda rng, n: rng.uniform(0.0, TAU, size=n),
        )

    def normalization_defect(self, nodes: int = 200_000) -> float:
        """|integral of density - 1| by the midpoint rule."""
        h = (self.upper - self.lower) / nodes
        lam = self.lower + (np.arange(nodes) + 0.5) * h
        return abs(float(np.sum(self.density(lam)) * h) - 1.0)


@dataclass(frozen=True)
class DeterministicLHV:
    """Deterministic local model: outcomes are functions of (setting, far retarded setting, lambda).

    Outcome functions must be total on the hidden space, vectorized over
    lambda, and return values in {-1, +1}.  Closed forms, when present,
    must agree with the lambda-average of the outcome products; they are
    used by the analytic evaluation paths and the optimizer.
    """

    name: str
    hidden: HiddenSpace
    outcome_A: Callable[[ArrayLike, ArrayLike, np.ndarray], np.ndarray]
    outcome_B: Callable[[ArrayLike, ArrayLike, np.ndarray], np.ndarray]
    closed_form_E: Optional[Callable[..., ArrayLike]] = None
    closed_form_p12: Optional[Callable[..., ArrayLike]] = None
    closed_form_p1: Optional[Callable[[ArrayLike, ArrayLike], ArrayLike]] = None
    closed_form_p2: Optional[Callable[[ArrayLike, ArrayLike], ArrayLike]] = None

    is_local = True


@dataclass(frozen=True)
class StochasticLHV:
    """Stochastic local model: per-station +1 probabilities given lambda."""

    name: str
    hidden: HiddenSpace
    p1: Callable[[ArrayLike, ArrayLike, np.ndarray], np.ndarray]
    p2: Callable[[ArrayLike, ArrayLike, np.ndarray], np.ndarray]
    closed_form_E: Optional[Callable[..., ArrayLike]] = None
    closed_form_p12: Optional[Callable[..., ArrayLike]] = None
    closed_form_p1: Optional[Callable[[ArrayLike, ArrayLike], ArrayLike]] = None
    closed_form_p2: Optional[Callable[[ArrayLike, ArrayLike], ArrayLike]] = None

    is_local = True

    @classmethod
    def from_deterministic(cls, det: DeterministicLHV) -> "StochasticLHV":
        """Lift a deterministic model via p = (1 + outcome)/2."""
        return cls(
            name=det.name + "-lifted",
            hidden=det.hidden,
            p1=lambda a, b_r, lam: (1.0 + det.outcome_A(a, b_r, lam)) / 2.0,
            p2=lambda b, a_r, lam: (1.0 + det.outcome_B(b, a_r, lam)) / 2.0,
            closed_form_E=det.closed_form_E,
            closed_form_p12=det.closed_form_p12,
            closed_form_p1=det.closed_form_p1,
            closed_form_p2=det.closed_form_p2,
        )


# ----------------------------------------------------------------------
# The half-circle singlet model
# ----------------------------------------------------------------------


def _theta_left(a: ArrayLike, b_r: ArrayLike) -> ArrayLike:
    return -(np.pi / 4.0) * (1.0 + np.cos(np.asarray(a) - np.asarray(b_r)))


def _theta_right(b: ArrayLike, a_r: ArrayLike) -> ArrayLike:
    return (np.pi / 4.0) * (1.0 + np.cos(np.asarray(a_r) - np.asarray(b)))


def _signs(plus: np.ndarray) -> np.ndarray:
    """int8 +1 where ``plus`` holds and -1 elsewhere, without an int64 copy."""
    return plus.view(np.int8) * 2 - 1


#: The least float U with U - 2*pi >= pi; the kernel's band test needs it.
_THREE_PI = 3.0 * math.pi

#: The kernel's edges, ascending: on its band, the sign is +1 exactly when
#: an odd count of them lies above lam - theta.
_EDGES = (-math.pi, 0.0, math.pi, TAU, _THREE_PI)


def _half_circle_sign(theta: ArrayLike, lam: ArrayLike) -> np.ndarray:
    """+1 iff lam lies in [theta, theta + pi) modulo 2*pi.

    Bit-equal to ``(lam - theta) % TAU < pi`` for every float input.
    numpy's float remainder by a positive divisor is fmod plus the
    divisor on a negative result.  On the band -2*pi < d < 4*pi,
    d = lam - theta, fmod is exact: the identity below 2*pi, and
    d - 2*pi (Sterbenz) from there.  So the remainder is below pi
    exactly when d < -pi (d + 2*pi rounds below pi), 0 <= d < pi, or
    2*pi <= d < 3*pi (3*pi is a float, the least U with U - 2*pi >= pi).
    That is an odd count of ``_EDGES`` above d.  The min and max that
    admit d to the band also settle most edges for the whole array: an
    edge at or below min d lies above no element, and an edge above
    max d lies above every element, so it only flips the parity.  Only
    the edges in (min d, max d] are compared, and an array that reaches
    none gets one constant sign.  The built-in model never leaves the
    band: lam is in [0, 2*pi) and theta in [-pi/2, pi/2], so d reaches
    at most the three edges 0, pi and 2*pi.  Any other d (out of band,
    inf, nan, not float64) takes fmod.
    """
    d = np.asarray(np.subtract(lam, theta))
    if d.dtype == np.float64 and d.size:
        lo, hi = float(d.min()), float(d.max())
        if -TAU < lo and hi < 2.0 * TAU:
            first, stop = bisect.bisect_right(_EDGES, lo), bisect.bisect_right(_EDGES, hi)
            flip = (len(_EDGES) - stop) % 2
            if first == stop:
                return np.full(d.shape, 1 if flip else -1, dtype=np.int8)
            # not (d < edge) is d >= edge here: the band admits no nan
            plus = d >= _EDGES[first] if flip else d < _EDGES[first]
            for edge in _EDGES[first + 1:stop]:
                plus ^= d < edge
            return _signs(plus)
    np.fmod(d, TAU, out=d)
    np.add(d, TAU, out=d, where=d < 0)
    return _signs(d < np.pi)


def hardy_outcome_A(a: ArrayLike, b_r: ArrayLike, lam: ArrayLike) -> np.ndarray:
    return _half_circle_sign(_theta_left(a, b_r), lam)


def hardy_outcome_B(b: ArrayLike, a_r: ArrayLike, lam: ArrayLike) -> np.ndarray:
    return _half_circle_sign(_theta_right(b, a_r), lam)


def hardy_closed_form_E(
    a: ArrayLike, b: ArrayLike, a_r: ArrayLike, b_r: ArrayLike
) -> ArrayLike:
    """Correlation of the half-circle model: -(cos(a - b_r) + cos(a_r - b))/2.

    Equal to 1 - 2|theta_right - theta_left|/pi for the offsets of
    ``_theta_left`` and ``_theta_right``, whose difference lies in [0, pi].
    Reduces to -cos(a - b) when the retarded settings equal the actual
    ones.
    """
    return -0.5 * (
        np.cos(np.asarray(a) - np.asarray(b_r)) + np.cos(np.asarray(a_r) - np.asarray(b))
    )


def hardy_closed_form_p12(
    a: ArrayLike, b: ArrayLike, a_r: ArrayLike, b_r: ArrayLike
) -> ArrayLike:
    """Joint +1 probability of the lifted model.

    Both outcome marginals vanish (each +1 set is exactly a half
    circle), so p12 = (1 + E)/4 exactly.
    """
    return (1.0 + hardy_closed_form_E(a, b, a_r, b_r)) / 4.0


def _uniform_half(x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Constant 1/2 marginal, broadcast to the shape of the inputs."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    return np.full(shape, 0.5) if shape else 0.5


def hardy_singlet() -> DeterministicLHV:
    return DeterministicLHV(
        name="hardy-singlet",
        hidden=HiddenSpace.uniform_circle(),
        outcome_A=hardy_outcome_A,
        outcome_B=hardy_outcome_B,
        closed_form_E=hardy_closed_form_E,
        closed_form_p12=hardy_closed_form_p12,
        closed_form_p1=_uniform_half,
        closed_form_p2=_uniform_half,
    )


# ----------------------------------------------------------------------
# Quantum singlet reference (nonlocal oracle, no hidden variable)
# ----------------------------------------------------------------------


def quantum_E(a: ArrayLike, b: ArrayLike) -> ArrayLike:
    """Singlet correlation for equatorial spin measurements: -cos(a - b)."""
    return -np.cos(np.asarray(a) - np.asarray(b))


def quantum_joint_probs(a: float, b: float) -> tuple[float, float, float, float]:
    """(p++, p+-, p-+, p--) for the singlet; unambiguous given E = -cos(a-b)
    and the uniform single-station marginals."""
    c = math.cos(a - b)
    same = (1.0 - c) / 4.0
    diff = (1.0 + c) / 4.0
    return (same, diff, diff, same)


def quantum_sample_pairs(
    a: ArrayLike, b: ArrayLike, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sampler for the four-outcome singlet distribution.

    ``a`` and ``b`` are scalars or arrays of length n; one uniform is
    drawn per pair.
    """
    c = np.cos(np.asarray(a) - np.asarray(b))
    p_same = (1.0 - c) / 4.0  # p(+,+) = p(-,-)
    p_diff = (1.0 + c) / 4.0  # p(+,-) = p(-,+)
    u = rng.random(n)
    # outcome order: (+,+), (+,-), (-,+), (-,-)
    k = (u >= p_same).astype(np.int8)
    k += (u >= p_same + p_diff).astype(np.int8)
    k += (u >= p_same + 2.0 * p_diff).astype(np.int8)
    outcome_1 = _signs(k <= 1)
    outcome_2 = _signs((k == 0) | (k == 2))
    return outcome_1, outcome_2


class QuantumSinglet:
    """Nonlocal reference predictions for the two-particle singlet.

    This is not a hidden-variable model: there is no lambda to integrate
    over, and estimation refuses lambda-quadrature on it.  Correlations
    ignore retarded settings.
    """

    name = "quantum-singlet"
    is_local = False

    @staticmethod
    def E(a: ArrayLike, b: ArrayLike) -> ArrayLike:
        return quantum_E(a, b)

    # Closed forms mirror the LHV interface so analytic evaluators can
    # treat every model uniformly; retarded arguments are accepted and
    # ignored.
    @staticmethod
    def closed_form_E(a, b, a_r=None, b_r=None):
        return quantum_E(a, b)

    @staticmethod
    def closed_form_p12(a, b, a_r=None, b_r=None):
        return (1.0 + quantum_E(a, b)) / 4.0

    @staticmethod
    def closed_form_p1(a, b_r=None):
        return 0.5

    @staticmethod
    def closed_form_p2(b, a_r=None):
        return 0.5

    @staticmethod
    def sample_pairs(
        a: ArrayLike, b: ArrayLike, rng: np.random.Generator, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        return quantum_sample_pairs(a, b, rng, n)


Model = Union[DeterministicLHV, StochasticLHV, QuantumSinglet]


def sample_outcomes(
    model: Model,
    a: ArrayLike,
    b: ArrayLike,
    a_r: ArrayLike,
    b_r: ArrayLike,
    rng: np.random.Generator,
    n: int,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Draw n outcome pairs (+-1) and the hidden variable behind them.

    Settings are scalars or arrays of length n.  Local models draw
    lambda first and, when stochastic, then one uniform per trial for
    station 1 and one for station 2.  Models without a hidden variable
    sample through their ``sample_pairs`` and return lambda as None.
    """
    if isinstance(model, DeterministicLHV):
        lam = model.hidden.sample(rng, n)
        return model.outcome_A(a, b_r, lam), model.outcome_B(b, a_r, lam), lam
    if isinstance(model, StochasticLHV):
        lam = model.hidden.sample(rng, n)
        p1v = model.p1(a, b_r, lam)
        p2v = model.p2(b, a_r, lam)
        outcome_1 = _signs(rng.random(n) < p1v)
        outcome_2 = _signs(rng.random(n) < p2v)
        return outcome_1, outcome_2, lam
    if not hasattr(model, "sample_pairs"):
        raise UnsupportedModelError(f"model {model!r} cannot be sampled")
    outcome_1, outcome_2 = model.sample_pairs(a, b, rng, n)
    return outcome_1, outcome_2, None


_FACTORIES: dict[str, Callable[[], Model]] = {
    "hardy-singlet": hardy_singlet,
    "quantum-singlet": QuantumSinglet,
}

_ALIASES = {
    "hardy": "hardy-singlet",
    "quantum": "quantum-singlet",
}


def register_model(name: str, factory: Callable[[], Model]) -> None:
    """Add a model factory to the registry (used by configs and the CLI)."""
    _FACTORIES[name] = factory


def model_names() -> tuple[str, ...]:
    return tuple(sorted(_FACTORIES))


def get_model(name: str) -> Model:
    """Look up a model by registry name (short aliases accepted)."""
    key = _ALIASES.get(name, name)
    try:
        factory = _FACTORIES[key]
    except KeyError:
        known = ", ".join(sorted(set(_FACTORIES) | set(_ALIASES)))
        raise UnknownModelError(f"unknown model {name!r}; known: {known}") from None
    return factory()

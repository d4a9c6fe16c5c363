"""Derivative-free search over measurement angles.

An objective is any row of ``rbell.inequalities.INEQUALITIES``: the
row's signed terms over the resolved angle arrays, evaluated through a
model's closed form (or lambda-quadrature when no closed form exists),
so an inequality added to the table can be optimized as it is.  Monte
Carlo backed objectives are rejected.  The search is a coarse grid scan
followed by compass pattern refinement with a halving step, which is
plenty for the smooth trigonometric surfaces that arise here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Union

import numpy as np

from .errors import UnsupportedModelError, UnsupportedObjectiveError
from .estimation import exact_values
from .inequalities import ANGLE_FLAGS, INEQUALITIES
from .models import Model, get_model

TAU = math.tau

#: Default coarse-grid resolution.
GRID_STEP = math.pi / 24

#: Grid scans larger than this are coarsened (doubling the step) to stay
#: tractable; refinement still runs at full precision.
MAX_GRID_POINTS = 20_000_000
MAX_GRID_POINTS_QUADRATURE = 50_000


@dataclass(frozen=True)
class ObjectiveSpec:
    """What to extremize.

    ``retarded`` is "tied" (retarded angles follow the actual ones),
    "free" (they are variables or fixed angles of their own), or a
    mapping of fixed retarded angles.  Variables not listed in ``free``
    take their values from ``fixed`` (default 0).
    """

    model: str
    inequality: str
    direction: str = "minimize"
    free: tuple[str, ...] = ("a", "a2", "b", "b2")
    fixed: Mapping[str, float] = field(default_factory=dict)
    retarded: Union[str, Mapping[str, float]] = "tied"
    grid_step: float = GRID_STEP
    quadrature_nodes: int = 100_000

    def __post_init__(self) -> None:
        if self.inequality not in INEQUALITIES:
            raise ValueError(f"inequality must be one of {tuple(INEQUALITIES)}")
        if self.direction not in ("minimize", "maximize"):
            raise ValueError("direction must be 'minimize' or 'maximize'")
        for i, name in enumerate(self.free):
            if name not in ANGLE_FLAGS:
                raise ValueError(f"unknown variable {name!r}")
            if name in self.free[:i]:
                raise ValueError(f"free variable {name!r} is listed more than once")
        for name in self.fixed:
            if name not in ANGLE_FLAGS:
                raise ValueError(f"unknown fixed variable {name!r}")
        if isinstance(self.retarded, str):
            if self.retarded not in ("tied", "free"):
                raise ValueError("retarded must be 'tied', 'free', or a mapping")
        else:
            object.__setattr__(self, "retarded", dict(self.retarded))
        if not self.free:
            raise ValueError("at least one free variable is required")
        if not (math.isfinite(self.grid_step) and self.grid_step > 0):
            raise ValueError(f"grid_step must be finite and positive, got {self.grid_step!r}")

    @classmethod
    def from_dict(cls, data: Mapping) -> "ObjectiveSpec":
        """A spec from parsed JSON; a malformed one raises a ValueError
        that names the key."""
        if not isinstance(data, Mapping):
            raise ValueError(f"spec must be a JSON object, got {type(data).__name__}")
        for key, value in data.items():
            if key not in _SPEC_VALUES:
                raise ValueError(f"unknown key {key!r}; known keys: {', '.join(_SPEC_VALUES)}")
            ok, expected = _SPEC_VALUES[key]
            if not ok(value):
                raise ValueError(f"{key} must be {expected}, got {value!r}")
        for key in ("model", "inequality"):
            if key not in data:
                raise ValueError(f"missing key {key!r}")
        return cls(**{**data, "free": tuple(data.get("free", cls.free))})

    @classmethod
    def from_json(cls, text: str) -> "ObjectiveSpec":
        return cls.from_dict(json.loads(text))


def _angle_map(value) -> bool:
    return isinstance(value, Mapping) and all(type(v) in (int, float) for v in value.values())


#: key -> (test, what the value must be) for each key of a JSON spec.
_SPEC_VALUES = {
    "model": (lambda v: isinstance(v, str), "a string"),
    "inequality": (lambda v: isinstance(v, str), "a string"),
    "direction": (lambda v: isinstance(v, str), "a string"),
    "free": (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
             "a list of strings"),
    "fixed": (_angle_map, "an object of numbers"),
    "retarded": (lambda v: v in ("tied", "free") or _angle_map(v),
                 "'tied', 'free' or an object of numbers"),
    "grid_step": (lambda v: type(v) in (int, float), "a number"),
    "quadrature_nodes": (lambda v: type(v) is int and v >= 1, "a positive integer"),
}


@dataclass(frozen=True)
class Optimum:
    """Best point found, with the evaluation trace of the search."""

    settings: dict[str, float]
    value: float
    evaluations: int
    trace: tuple[tuple[int, float], ...]

    def to_dict(self) -> dict:
        return {
            "settings": dict(self.settings),
            "value": self.value,
            "evaluations": self.evaluations,
            "trace": [list(t) for t in self.trace],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


# ----------------------------------------------------------------------
# Objective construction
# ----------------------------------------------------------------------


def _uses_quadrature(model: Model) -> bool:
    return getattr(model, "closed_form_E", None) is None


def _exact(model: Model, quantity: str, nodes: int) -> Callable[..., tuple]:
    try:
        return exact_values(model, quantity, nodes)
    except UnsupportedModelError:
        raise UnsupportedObjectiveError(
            f"model {model.name} offers neither a closed form nor lambda functions"
        ) from None


def build_objective(spec: ObjectiveSpec) -> Callable[[Mapping[str, np.ndarray]], np.ndarray]:
    """Vectorized objective over dicts of free-variable arrays: the signed
    sum of the table row's terms, in term order, minus the +1 singles
    at a2 and b2 for a probability row."""
    model = get_model(spec.model)
    row = INEQUALITIES[spec.inequality]
    exact = _exact(model, "p12" if row.probability else "E", spec.quadrature_nodes)
    if row.probability:
        marginals = _exact(model, "marginals", spec.quadrature_nodes)

    def resolve(assign: Mapping[str, np.ndarray], name: str) -> np.ndarray:
        if name in assign:
            return np.asarray(assign[name], dtype=float)
        if name in spec.fixed:
            return np.asarray(spec.fixed[name], dtype=float)
        base = name[:-1]  # "ar" -> "a"
        if name.endswith("r"):
            if spec.retarded == "tied":
                return resolve(assign, base)
            if isinstance(spec.retarded, dict) and name in spec.retarded:
                return np.asarray(spec.retarded[name], dtype=float)
        return np.asarray(0.0)

    def objective(assign: Mapping[str, np.ndarray]) -> np.ndarray:
        angles = {name: resolve(assign, name) for name in ANGLE_FLAGS}
        (coef, _), *rest = row.terms
        first, *cells = row.cells(angles)
        value = coef * exact(*first)[0]
        for (coef, _), cell in zip(rest, cells):
            value = value + coef * exact(*cell)[0]
        if row.probability:
            m1, m2 = marginals(row.flag(angles, "a2"), row.flag(angles, "b2"), 0.0, 0.0)
            value = value - m1 - m2
        return value

    return objective


# ----------------------------------------------------------------------
# Search
# ----------------------------------------------------------------------


def _grid_axes(spec: ObjectiveSpec, model_is_quadrature: bool) -> tuple[float, np.ndarray]:
    step = spec.grid_step
    limit = MAX_GRID_POINTS_QUADRATURE if model_is_quadrature else MAX_GRID_POINTS
    k = len(spec.free)
    while (math.ceil(TAU / step)) ** k > limit:
        step *= 2.0
    return step, np.arange(0.0, TAU, step)


def _grid_scan(
    objective: Callable[[Mapping[str, np.ndarray]], np.ndarray],
    free: tuple[str, ...],
    axis: np.ndarray,
    sign: float,
) -> tuple[int, float, int]:
    """Scan every point of the grid ``axis`` x ... x ``axis``, one axis per
    free variable, for the least ``sign * objective``.

    Each free variable gets ``axis`` along a dimension of its own, so the
    objective broadcasts: a cell costs k**(its angles), not k**len(free).
    Returns the C-order flat index of the first least point, its signed
    value and the number of points evaluated (one for an objective that
    no free variable reaches).
    """
    n = len(free)
    axes = {name: axis.reshape((-1,) + (1,) * (n - 1 - i)) for i, name in enumerate(free)}
    values = sign * np.asarray(objective(axes), dtype=float)
    size = axis.size**n if values.ndim else 1
    values = np.broadcast_to(values, (axis.size,) * n).ravel()
    best_flat = int(np.argmin(values))
    return best_flat, float(values[best_flat]), size


def optimize(spec: ObjectiveSpec) -> Optimum:
    """Coarse grid scan plus compass refinement (step halves to 1e-7).

    The returned settings are canonicalized by rotating ``a`` to zero
    when that rotation provably leaves the objective value unchanged.
    """
    model = get_model(spec.model)
    objective = build_objective(spec)
    sign = 1.0 if spec.direction == "minimize" else -1.0
    evaluations = 0

    def value_of(point: Mapping[str, float]) -> float:
        arrays = {k: np.asarray(v) for k, v in point.items()}
        return float(objective(arrays))

    # --- grid stage -----------------------------------------------------
    quadrature_backed = _uses_quadrature(model)
    step, axis = _grid_axes(spec, quadrature_backed)
    free = spec.free
    best_flat, best_value, size = _grid_scan(objective, free, axis, sign)
    evaluations += size
    index = np.unravel_index(best_flat, (axis.size,) * len(free))
    best_point = {name: float(axis[i]) for name, i in zip(free, index)}
    trace = [(0, sign * best_value)]

    # --- compass refinement ----------------------------------------------
    iteration = 0
    while step >= 1e-7:
        moved = False
        for name in free:
            trial_pts = {k: np.full(2, best_point[k]) for k in free}
            trial_pts[name] = np.asarray(
                [best_point[name] - step, best_point[name] + step]
            )
            vals = sign * np.asarray(objective(trial_pts), dtype=float).ravel()
            evaluations += 2
            j = int(np.argmin(vals))
            if vals[j] < best_value:
                best_value = float(vals[j])
                best_point[name] = float(trial_pts[name][j]) % TAU
                moved = True
        iteration += 1
        trace.append((iteration, sign * best_value))
        if not moved:
            step /= 2.0

    # --- canonicalize the rotation degeneracy ------------------------------
    settings = {name: float(v) % TAU for name, v in best_point.items()}
    true_best = sign * best_value
    if "a" in settings and settings["a"] != 0.0:
        shift = settings["a"]
        rotated = {name: (v - shift) % TAU for name, v in settings.items()}
        if abs(value_of(rotated) - true_best) <= 1e-12:
            settings = rotated
        evaluations += 1

    final_value = value_of(settings)
    trace.append((iteration + 1, final_value))
    return Optimum(
        settings=settings,
        value=final_value,
        evaluations=evaluations,
        trace=tuple(trace),
    )

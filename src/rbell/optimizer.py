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
from .estimation import (
    BLOCK_SIZE,
    MIN_QUADRATURE_NODES,
    exact_row,
    row_quantities,
    uses_quadrature,
)
from .inequalities import ANGLE_FLAGS, INEQUALITIES, RETARDED_FLAGS
from .models import get_model

TAU = math.tau

#: Default coarse-grid resolution.
GRID_STEP = math.pi / 24

#: Grid scans larger than this are coarsened (doubling the step) to bound
#: their time (the scan's memory is bounded by BLOCK_SIZE whatever the
#: grid); refinement still runs at full precision.
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
            for name in self.retarded:
                if name not in RETARDED_FLAGS:
                    raise ValueError(f"unknown retarded variable {name!r}")
        for key in ("fixed", "retarded"):
            angles = getattr(self, key)
            for name, value in ({} if isinstance(angles, str) else angles).items():
                if not math.isfinite(value):
                    raise ValueError(f"{key} angle {name!r} must be finite, got {value!r}")
        if not self.free:
            raise ValueError("at least one free variable is required")
        if not 0 < self.grid_step < TAU:  # a step of a turn or more scans one point
            raise ValueError(f"grid_step must be finite and positive and less than 2*pi, "
                             f"got {self.grid_step!r}")
        if self.quadrature_nodes < MIN_QUADRATURE_NODES:
            raise ValueError(f"quadrature_nodes must be at least {MIN_QUADRATURE_NODES}, "
                             f"got {self.quadrature_nodes!r}")

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
    "quadrature_nodes": (lambda v: type(v) is int, "an integer"),
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


# ----------------------------------------------------------------------
# Objective construction
# ----------------------------------------------------------------------


def build_objective(spec: ObjectiveSpec) -> Callable[[Mapping[str, np.ndarray]], np.ndarray]:
    """Vectorized objective over dicts of free-variable arrays: the table
    row's value (:func:`rbell.estimation.exact_row`) at the resolved
    angles."""
    model = get_model(spec.model)
    try:
        row_value = exact_row(model, INEQUALITIES[spec.inequality], spec.quadrature_nodes)
    except UnsupportedModelError:
        raise UnsupportedObjectiveError(
            f"model {model.name} offers neither a closed form nor lambda functions"
        ) from None

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
        return row_value({name: resolve(assign, name) for name in ANGLE_FLAGS})

    return objective


# ----------------------------------------------------------------------
# Search
# ----------------------------------------------------------------------


def _grid_axes(spec: ObjectiveSpec, model_is_quadrature: bool) -> tuple[float, np.ndarray]:
    step = spec.grid_step
    limit = MAX_GRID_POINTS_QUADRATURE if model_is_quadrature else MAX_GRID_POINTS
    k = len(spec.free)
    # the first test also coarsens a step so fine that TAU / step is inf
    while TAU / step > limit or math.ceil(TAU / step) ** k > limit:
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

    The trailing free axes (all but the first at most) whose points fit
    in ``BLOCK_SIZE`` get ``axis`` along a dimension of their own, so the
    objective broadcasts over them.  The leading ones are enumerated in
    C order, as many rows as fit in ``BLOCK_SIZE`` points (at least one)
    at a time, so memory does not grow with the grid.  Returns the
    C-order flat index of the first least point (the first least of the
    blocks' first least points), its signed value and the number of
    points evaluated (one for an objective that no free variable
    reaches).
    """
    n, k = len(free), axis.size
    trailing = 0
    while trailing < n - 1 and k ** (trailing + 1) <= BLOCK_SIZE:
        trailing += 1
    lead, row = n - trailing, k**trailing
    assign = {name: axis.reshape((-1,) + (1,) * (n - 1 - i))
              for i, name in enumerate(free) if i >= lead}
    rows_per_block = max(1, BLOCK_SIZE // row)
    firsts, minima = [], []
    for start in range(0, k**lead, rows_per_block):
        rows = np.arange(start, min(start + rows_per_block, k**lead))
        for name, index in zip(free, np.unravel_index(rows, (k,) * lead)):
            assign[name] = axis[index].reshape((-1,) + (1,) * trailing)
        values = sign * np.asarray(objective(assign), dtype=float)
        if not values.ndim:
            return 0, float(values), 1
        values = np.broadcast_to(values, (rows.size,) + (k,) * trailing).ravel()
        best = int(np.argmin(values))
        firsts.append(start * row + best)
        minima.append(values[best])
    block = int(np.argmin(minima))
    return firsts[block], float(minima[block]), k**n


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
    row = INEQUALITIES[spec.inequality]
    step, axis = _grid_axes(spec, uses_quadrature(model, *row_quantities(row)))
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

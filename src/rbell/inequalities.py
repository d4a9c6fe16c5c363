"""Inequality evaluation over correlation and probability inputs.

Correlations are keyed by the setting quadruple (actual pair, retarded
pair).  ``INEQUALITIES`` states each member of the family once, as
signed terms over setting flags; its ``evaluate`` pulls the cells a row
needs, combines their standard errors in quadrature, and issues a
verdict against the row's bounds with a 3-sigma tolerance band (zero
for analytic inputs).

Note on the probability-form inequality: the algebraic bound used here
is ``-1 <= x'y' + x'y + xy' - xy - x' - y' <= 0`` for x, y, x', y' in
[0, 1] (multilinear, so it suffices to check the 16 vertices).  The
subtracted singles therefore belong to the *primed* settings; for the
models bundled here both marginals are 1/2, so the numbers match the
familiar presentation either way.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import InsufficientCellError, MissingCellError

Quad = tuple[str, str, str, str]

SATISFIED = "satisfied"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Correlation:
    """One correlation (or probability) estimate with its uncertainty."""

    estimate: float
    standard_error: float = 0.0
    count: int = 0
    sufficient: bool = True

    def __post_init__(self) -> None:
        if abs(self.estimate) > 1.0 + 1e-12:
            raise ValueError(f"estimate {self.estimate} outside [-1, 1]")
        if self.standard_error < 0.0:
            raise ValueError("standard_error must be non-negative")


class CorrelationInput:
    """Mapping from setting quadruples to correlation estimates.

    ``source`` is "analytic" (zero standard errors) or "monte-carlo".
    Lookups raise on missing quadruples and on cells flagged as having
    too few trials; partial inequality values are never produced.
    """

    def __init__(self, cells: Mapping[Quad, Correlation], source: str = "analytic"):
        if source not in ("analytic", "monte-carlo"):
            raise ValueError("source must be 'analytic' or 'monte-carlo'")
        for key, cell in cells.items():
            if source == "analytic" and cell.standard_error != 0.0:
                raise ValueError(
                    f"analytic cell {key!r} must have zero standard error"
                )
        self.cells = dict(cells)
        self.source = source

    def lookup(self, key: Quad) -> Correlation:
        key = tuple(key)
        try:
            cell = self.cells[key]
        except KeyError:
            raise MissingCellError(key) from None
        if not cell.sufficient:
            raise InsufficientCellError(key, cell.count)
        return cell


@dataclass(frozen=True)
class InequalityReport:
    """Evaluated inequality with bounds, verdict and statistical margin.

    ``margin_sigma`` is the signed distance past the nearer bound in
    units of the combined standard error: positive values lie outside
    the bounds.  With zero combined error it is +/- infinity.
    ``violated_bound`` names the side ("lower"/"upper") the value falls
    past, or None when it sits inside the bounds.
    """

    name: str
    value: float
    lower_bound: float
    upper_bound: float
    verdict: str
    margin_sigma: float
    combined_se: float
    violated_bound: Optional[str] = None
    inputs: Mapping[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "lower": self.lower_bound,
            "upper": self.upper_bound,
            "verdict": self.verdict,
            "margin_sigma": self.margin_sigma,
            "combined_se": self.combined_se,
            "violated_bound": self.violated_bound,
            "inputs": dict(self.inputs),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _report(
    name: str,
    value: float,
    lower: float,
    upper: float,
    combined_se: float,
    inputs: Mapping[str, str],
) -> InequalityReport:
    # how far past the nearer bound the value lies (negative = inside)
    excess = max(lower - value, value - upper)
    tol = 3.0 * combined_se
    if excess > tol:
        verdict = VIOLATED
    elif excess > 0.0:
        verdict = INCONCLUSIVE
    else:
        verdict = SATISFIED
    if combined_se > 0.0:
        margin = excess / combined_se
    else:
        margin = math.inf if excess > 0.0 else -math.inf
    side = None
    if excess > 0.0:
        side = "lower" if lower - value >= value - upper else "upper"
    return InequalityReport(
        name=name,
        value=value,
        lower_bound=lower,
        upper_bound=upper,
        verdict=verdict,
        margin_sigma=margin,
        combined_se=combined_se,
        violated_bound=side,
        inputs=dict(inputs),
    )


def _combine(terms: Sequence[tuple[float, Correlation]]) -> tuple[float, float]:
    """Signed sum of the estimates and quadrature sum of the scaled
    errors, both in term order and started from the first term."""
    (coef, cell), *rest = terms
    value = coef * cell.estimate
    var = (coef * cell.standard_error) ** 2
    for coef, cell in rest:
        value += coef * cell.estimate
        var += (coef * cell.standard_error) ** 2
    return value, math.sqrt(var)


Estimate = Union[float, tuple[float, float], Correlation]


def _as_probability(value: Estimate, what: str) -> Correlation:
    if isinstance(value, Correlation):
        cell = value
    elif isinstance(value, tuple):
        cell = Correlation(float(value[0]), float(value[1]))
    else:
        cell = Correlation(float(value))
    if not (0.0 <= cell.estimate <= 1.0):
        raise ValueError(f"{what} = {cell.estimate} outside [0, 1]")
    return cell


# ----------------------------------------------------------------------
# The inequality table
# ----------------------------------------------------------------------

#: Setting flags: the actual quartet, then the retarded settings that
#: go with a, a2, b and b2.
ANGLE_FLAGS = ("a", "a2", "b", "b2", "ar", "a2r", "br", "b2r")
QUARTET = ANGLE_FLAGS[:4]
RETARDED_FLAGS = ANGLE_FLAGS[4:]

#: E(a2,b2|a2r,b2r) + E(a2,b|ar,b2r) + E(a,b2|a2r,br) - E(a,b|ar,br):
#: signed cells (actual pair, retarded pair) over flags.
CHSH_TERMS = (
    (1.0, ("a2", "b2", "a2r", "b2r")),
    (1.0, ("a2", "b", "ar", "b2r")),
    (1.0, ("a", "b2", "a2r", "br")),
    (-1.0, ("a", "b", "ar", "br")),
)


@dataclass(frozen=True)
class Inequality:
    """One member of the retarded inequality family.

    ``name`` is the report name and ``needs`` the flags a caller must
    give.  A flag in ``ties`` takes the value of the flag it maps to.
    ``terms`` are signed cells over flags, ``inputs`` the flags recorded
    in the report, and ``lower``/``upper`` its bounds.  A
    ``probability`` row sums joint +1 probabilities and subtracts the
    +1 singles at a2 and b2.
    """

    name: str
    needs: tuple[str, ...]
    terms: tuple[tuple[float, tuple[str, str, str, str]], ...]
    inputs: tuple[str, ...]
    lower: float
    upper: float
    ties: Mapping[str, str] = field(default_factory=dict)
    probability: bool = False

    def flag(self, ids: Mapping[str, Any], name: str) -> Any:
        """The value (cell id or angle) of flag ``name`` after the ties."""
        return ids[self.ties.get(name, name)]

    def cells(self, ids: Mapping[str, Any]) -> tuple[tuple, ...]:
        """The cell of each term, in term order, for flag values ``ids``."""
        return tuple(tuple(self.flag(ids, k) for k in flags) for _, flags in self.terms)

    def evaluate(
        self,
        corr: CorrelationInput,
        ids: Mapping[str, str],
        singles: Optional[tuple[Estimate, Estimate]] = None,
    ) -> InequalityReport:
        """Report over correlations, or over joint +1 probabilities and
        the +1 ``singles`` (p1 at a2, p2 at b2) for a probability row."""
        if self.probability and singles is None:
            raise ValueError(f"{self.name} needs the +1 singles at a2 and b2")
        terms = []
        for (coef, _), quad in zip(self.terms, self.cells(ids)):
            cell = corr.lookup(quad)
            if self.probability:
                cell = _as_probability(cell, f"p12{quad!r}")
            terms.append((coef, cell))
        if self.probability:
            terms += [(-1.0, _as_probability(p, what)) for p, what in zip(singles, ("p1", "p2"))]
        value, se = _combine(terms)
        inputs = {k: self.flag(ids, k) for k in self.inputs}
        return _report(self.name, value, self.lower, self.upper, se, inputs)


#: CLI name -> inequality.  ``analytic``, ``check``, scenario runs and
#: the optimizer all read this table: a new inequality is one row.
INEQUALITIES = {
    "retarded_chsh": Inequality(
        "retarded_chsh", QUARTET, CHSH_TERMS, ANGLE_FLAGS, -2.0, 2.0,
    ),
    # one retarded pair (a, b) shared by every term
    "same_retarded_chsh": Inequality(
        "same_retarded_chsh", QUARTET, CHSH_TERMS, ANGLE_FLAGS, -2.0, 2.0,
        ties={"ar": "a", "a2r": "a", "br": "b", "b2r": "b"},
    ),
    # retarded settings equal to the actual ones
    "chsh": Inequality(
        "chsh", QUARTET, CHSH_TERMS, ANGLE_FLAGS, -2.0, 2.0,
        ties=dict(zip(RETARDED_FLAGS, QUARTET)),
    ),
    # 2*E(a,b|a,b): no correlation bounded by 1 leaves [-2, 2], so this
    # case carries no constraint
    "both_equal": Inequality(
        "both_equal_reduction", ("a", "b"), ((2.0, ("a", "b", "a", "b")),),
        ("a", "b"), -2.0, 2.0,
    ),
    # station 1 fixed at a with retarded equal to actual; correlations
    # that ignore retarded settings collapse this to 2*E(a,b2)
    "one_end_equal": Inequality(
        "one_end_equal_chsh", ("a", "b", "b2"), CHSH_TERMS,
        ("a", "b", "b2", "br", "b2r"), -2.0, 2.0,
        ties={"a2": "a", "ar": "a", "a2r": "a"},
    ),
    # probability form with range [-1, 0]
    "retarded_ch": Inequality(
        "retarded_ch", QUARTET, CHSH_TERMS, ANGLE_FLAGS, -1.0, 0.0, probability=True,
    ),
}


def chsh_quadruples(
    a: str, a2: str, b: str, b2: str, ar: str, a2r: str, br: str, b2r: str
) -> tuple[Quad, Quad, Quad, Quad]:
    """The four cells entering the retarded four-correlation combination,
    in term order (+, +, +, -)."""
    ids = dict(zip(ANGLE_FLAGS, (a, a2, b, b2, ar, a2r, br, b2r)))
    return INEQUALITIES["retarded_chsh"].cells(ids)


# Per-name entry points over the table rows (all below but averaged_chsh).
# Nothing in the package calls them, but the benchmark reads their spans by
# name (perfbench/layers.py), so they stay until it traces Inequality.evaluate.


def retarded_chsh(
    corr: CorrelationInput,
    a: str,
    a2: str,
    b: str,
    b2: str,
    ar: str,
    a2r: str,
    br: str,
    b2r: str,
) -> InequalityReport:
    """Four-correlation combination conditioned on retarded settings.

    value = E(a2,b2|a2r,b2r) + E(a2,b|ar,b2r) + E(a,b2|a2r,br) - E(a,b|ar,br),
    bounded by [-2, 2] for any local model.
    """
    ids = dict(zip(ANGLE_FLAGS, (a, a2, b, b2, ar, a2r, br, b2r)))
    return INEQUALITIES["retarded_chsh"].evaluate(corr, ids)


def same_retarded_chsh(
    corr: CorrelationInput, a: str, a2: str, b: str, b2: str
) -> InequalityReport:
    """Retarded combination with one retarded pair (a, b) shared by every term."""
    ids = dict(zip(QUARTET, (a, a2, b, b2)))
    return INEQUALITIES["same_retarded_chsh"].evaluate(corr, ids)


def both_equal_reduction(
    corr: CorrelationInput, a: str, b: str
) -> InequalityReport:
    """Degenerate case with retarded equal to actual at both ends.

    Collapses to 2*E(a,b|a,b), which no correlation bounded by 1 can
    push outside [-2, 2]: this case carries no constraint.
    """
    return INEQUALITIES["both_equal"].evaluate(corr, {"a": a, "b": b})


def one_end_equal_chsh(
    corr: CorrelationInput, a: str, b: str, b2: str, br: str, b2r: str
) -> InequalityReport:
    """Reduction when station 1 has retarded equal to actual (both fixed at a).

    The retarded combination with a2, ar and a2r all set to a.  Theories
    whose correlations ignore retarded settings collapse this to
    2*E(a,b2), which cannot leave [-2, 2].
    """
    ids = {"a": a, "b": b, "b2": b2, "br": br, "b2r": b2r}
    return INEQUALITIES["one_end_equal"].evaluate(corr, ids)


def averaged_chsh(
    corr: CorrelationInput,
    weights: Mapping[tuple[str, str], float],
    a: str,
    a2: str,
    b: str,
    b2: str,
    weights_independent: bool = True,
) -> InequalityReport:
    """Standard four-correlation bound after averaging out retarded settings.

    E_av(x, y) = sum over (u, v) of w(u, v) * E(x,y|u,v).  The result is
    a valid bound only when the weights do not depend on the actual
    settings; the caller asserts that via ``weights_independent`` and
    the flag is recorded in the report.
    """
    total = 0.0
    for pair, w in weights.items():
        if w < 0.0:
            raise ValueError(f"negative weight for retarded pair {pair!r}")
        total += w
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1 (got {total!r})")

    def averaged(x: str, y: str) -> Correlation:
        est = 0.0
        var = 0.0
        for (u, v), w in weights.items():
            if w == 0.0:
                continue
            cell = corr.lookup((x, y, u, v))
            est += w * cell.estimate
            var += (w * cell.standard_error) ** 2
        return Correlation(est, math.sqrt(var))

    terms = [
        (1.0, averaged(a2, b2)),
        (1.0, averaged(a2, b)),
        (1.0, averaged(a, b2)),
        (-1.0, averaged(a, b)),
    ]
    value, se = _combine(terms)
    inputs = {
        "a": a, "a2": a2, "b": b, "b2": b2,
        "weights_independent": str(weights_independent),
    }
    return _report("averaged_chsh", value, -2.0, 2.0, se, inputs)


def retarded_ch(
    p12: Union[Mapping[Quad, Correlation], CorrelationInput],
    p1: Estimate,
    p2: Estimate,
    a: str,
    a2: str,
    b: str,
    b2: str,
    ar: str,
    a2r: str,
    br: str,
    b2r: str,
) -> InequalityReport:
    """Probability-form inequality with range [-1, 0].

    value = p12(a2,b2|a2r,b2r) + p12(a2,b|ar,b2r) + p12(a,b2|a2r,br)
            - p12(a,b|ar,br) - p1 - p2

    ``p1`` and ``p2`` are the +1 marginals for the settings a2 and b2
    (see the module docstring for why the primed singles are the ones
    subtracted).  Retarded-dependent marginals are supported by simply
    passing the appropriately conditioned numbers.
    """
    if not isinstance(p12, CorrelationInput):
        p12 = CorrelationInput(dict(p12), source="monte-carlo")
    ids = dict(zip(ANGLE_FLAGS, (a, a2, b, b2, ar, a2r, br, b2r)))
    return INEQUALITIES["retarded_ch"].evaluate(p12, ids, singles=(p1, p2))


# ----------------------------------------------------------------------
# Algebraic identity checks underlying the bounds
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheckResult:
    passed: bool
    checked: int
    counterexample: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.passed


def chsh_identity_check() -> IdentityCheckResult:
    """Every sign assignment gives X'Y' + X'Y + XY' - XY = +/-2."""
    for x, x2, y, y2 in itertools.product((-1, 1), repeat=4):
        value = x2 * y2 + x2 * y + x * y2 - x * y
        if value not in (-2, 2):
            return IdentityCheckResult(False, 16, (x, x2, y, y2, value))
    return IdentityCheckResult(True, 16)


def ch_expression(
    x: np.ndarray, y: np.ndarray, x2: np.ndarray, y2: np.ndarray
) -> np.ndarray:
    """x'y' + x'y + xy' - xy - x' - y' (the probability-form combination)."""
    return x2 * y2 + x2 * y + x * y2 - x * y - x2 - y2


def ch_identity_check(samples: int, seed: int = 0) -> IdentityCheckResult:
    """Check the probability-form combination stays in [-1, 0].

    Draws ``samples`` uniform points from the unit 4-cube; the
    expression is multilinear, so vertices are the extreme cases and
    random sampling is a smoke test on top of them.
    """
    rng = np.random.default_rng(seed)
    checked = 0
    remaining = int(samples)
    while remaining > 0:
        n = min(remaining, 1_000_000)
        pts = rng.random((4, n))
        values = ch_expression(pts[0], pts[1], pts[2], pts[3])
        bad = np.flatnonzero((values < -1.0) | (values > 0.0))
        if bad.size:
            i = int(bad[0])
            return IdentityCheckResult(
                False,
                checked + i + 1,
                (pts[0][i], pts[1][i], pts[2][i], pts[3][i], float(values[i])),
            )
        checked += n
        remaining -= n
    return IdentityCheckResult(True, checked)

"""Inequality evaluation over correlation and probability inputs.

Correlations are keyed by the setting quadruple (actual pair, retarded
pair).  ``INEQUALITIES`` states each member of the family once, as
signed terms over setting flags, and ``Inequality.signed_sum`` is the
one place a row's terms are combined.  Scenario runs, ``analytic``,
``check``, the optimizer, ``local_bounds``, the identity checks and
``rbell verify`` all evaluate these rows.  A row's ``evaluate`` pulls
the cells it needs, combines their standard errors in quadrature, and
issues a verdict against the row's bounds with a 3-sigma tolerance band
(zero for analytic inputs).

Note on the probability-form inequality: the algebraic bound used here
is ``-1 <= x'y' + x'y + xy' - xy - x' - y' <= 0`` for x, y, x', y' in
[0, 1] (multilinear, so it suffices to check the 16 vertices).  The
subtracted singles therefore belong to the *primed* settings; for the
models bundled here both marginals are 1/2, so the numbers match the
familiar presentation either way.  Each single is conditioned on the
far retarded setting of the cells that hold its actual setting:
p1(a2 | b_r = b2r) and p2(b2 | a_r = a2r), the answers A(a2, b2r) and
B(b2, a2r) that a local model gives in those cells.

``local_bounds`` derives a row's bounds from locality itself: it
enumerates the deterministic local strategies over the (actual, far
retarded) pairs the row's cells read, so a row whose retarded flags are
wired wrongly shows a wider range than it states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence, Union

from .errors import InsufficientCellError, MissingCellError

if TYPE_CHECKING:
    import numpy as np

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
        # written so that a NaN fails too
        if not abs(self.estimate) <= 1.0 + 1e-12:
            raise ValueError(f"estimate {self.estimate} outside [-1, 1]")
        if not self.standard_error >= 0.0:
            raise ValueError("standard_error must be non-negative")


class CorrelationInput:
    """Mapping from setting quadruples to correlation estimates.

    Exact and sampled tables are one type: an exact cell is one whose
    standard error is 0.  Lookups raise on missing quadruples and on
    cells flagged as having too few trials; partial inequality values
    are never produced.
    """

    def __init__(self, cells: Mapping[Quad, Correlation]):
        self.cells = dict(cells)

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

    @cached_property
    def _cell_getters(self) -> tuple[itemgetter, ...]:
        """Per term, a getter of its four flags after the ties."""
        return tuple(itemgetter(*(self.ties.get(k, k) for k in flags)) for _, flags in self.terms)

    def cells(self, ids: Mapping[str, Any]) -> tuple[tuple, ...]:
        """The cell of each term, in term order, for flag values ``ids``."""
        return tuple(get(ids) for get in self._cell_getters)

    def signed_sum(self, values: Iterable[Any], singles: Sequence[Any] = ()) -> Any:
        """The row's value from one value per term (floats or arrays, read
        one at a time): the signed terms added in term order, starting
        from the first, then for a probability row the +1 ``singles`` at
        a2 and b2 subtracted.  It is the only code that combines a row's
        terms."""
        values = iter(values)
        (coef, _), *rest = self.terms
        total = coef * next(values)
        for coef, _ in rest:
            # no name holds the term, so numpy may add it in place
            total = total + coef * next(values)
        if self.probability:
            p1, p2 = singles
            total = total - p1 - p2
        return total

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
        cells = []
        for quad in self.cells(ids):
            cell = corr.lookup(quad)
            cells.append(_as_probability(cell, f"p12{quad!r}") if self.probability else cell)
        if self.probability:
            singles = [_as_probability(p, what) for p, what in zip(singles, ("p1", "p2"))]
        inputs = {k: self.flag(ids, k) for k in self.inputs}
        value, se = _combine(self, cells, singles or ())
        return _report(self.name, value, self.lower, self.upper, se, inputs)


def _combine(
    row: Inequality, cells: Sequence[Correlation], singles: Sequence[Correlation] = ()
) -> tuple[float, float]:
    """The row's signed sum of the estimates, and the quadrature sum of
    the scaled errors in the same order."""
    value = row.signed_sum((c.estimate for c in cells), [c.estimate for c in singles])
    scaled = [coef * c.standard_error for (coef, _), c in zip(row.terms, cells)]
    scaled += [c.standard_error for c in singles]
    return value, math.sqrt(sum(s**2 for s in scaled))


#: CLI name -> inequality.  ``analytic``, ``check``, ``verify``, scenario
#: runs and the optimizer all read this table: a new inequality is one row.
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


# Per-name entry points over the table rows (all below but averaged_chsh).
# Nothing in the package calls them, but the benchmark reads their spans by
# name (perfbench/layers.py), so they stay until it traces Inequality.evaluate.


def retarded_chsh(corr: CorrelationInput, a: str, a2: str, b: str, b2: str,
                  ar: str, a2r: str, br: str, b2r: str) -> InequalityReport:
    """The ``retarded_chsh`` row: the four correlations conditioned on
    retarded settings, bounded by [-2, 2] for any local model."""
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


def averaged_chsh(corr: CorrelationInput, weights: Mapping[tuple[str, str], float], a: str,
                  a2: str, b: str, b2: str, weights_independent: bool = True) -> InequalityReport:
    """The ``chsh`` row after averaging out retarded settings.

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

    row = INEQUALITIES["chsh"]
    ids = {"a": a, "a2": a2, "b": b, "b2": b2}
    value, se = _combine(row, [averaged(x, y) for x, y, _, _ in row.cells(ids)])
    inputs = {**ids, "weights_independent": str(weights_independent)}
    return _report("averaged_chsh", value, row.lower, row.upper, se, inputs)


def retarded_ch(p12: Union[Mapping[Quad, Correlation], CorrelationInput], p1: Estimate,
                p2: Estimate, a: str, a2: str, b: str, b2: str, ar: str, a2r: str, br: str,
                b2r: str) -> InequalityReport:
    """The ``retarded_ch`` row: the probability form with range [-1, 0].

    ``p1`` and ``p2`` are the +1 marginals p1(a2 | b_r = b2r) and
    p2(b2 | a_r = a2r) (see the module docstring for why the primed
    singles are the ones subtracted).
    """
    if not isinstance(p12, CorrelationInput):
        p12 = CorrelationInput(p12)
    ids = dict(zip(ANGLE_FLAGS, (a, a2, b, b2, ar, a2r, br, b2r)))
    return INEQUALITIES["retarded_ch"].evaluate(p12, ids, singles=(p1, p2))


# ----------------------------------------------------------------------
# Local bounds: the theorem over deterministic local strategies
# ----------------------------------------------------------------------

#: One station's deterministic answers: (actual flag, far retarded flag)
#: -> answer.
Strategy = dict[tuple[str, str], int]


def local_strategies(row: Inequality) -> Iterable[tuple[float, Strategy, Strategy]]:
    """Each deterministic local strategy of ``row`` with its signed sum,
    as ``(value, A, B)``.

    Station 1 answers A(x, v) and station 2 answers B(y, u), over the
    (actual, far retarded) flag pairs that the row's cells read after
    its ties, so cell (x, y, u, v) is A(x, v) * B(y, u).  Answers are
    +-1, or 0/1 for a probability row, whose singles are A(a2, b2r) and
    B(b2, a2r).  Every local model is a mixture of these strategies, so
    its value lies between their least and greatest sums.
    """
    ids = {flag: flag for flag in ANGLE_FLAGS}
    cells = row.cells(ids)
    ones = {(x, v) for x, _, _, v in cells}
    twos = {(y, u) for _, y, u, _ in cells}
    if row.probability:
        single_1 = (row.flag(ids, "a2"), row.flag(ids, "b2r"))
        single_2 = (row.flag(ids, "b2"), row.flag(ids, "a2r"))
        ones.add(single_1)
        twos.add(single_2)
    answers = (0, 1) if row.probability else (-1, 1)
    ones, twos = sorted(ones), sorted(twos)
    for picks_1 in itertools.product(answers, repeat=len(ones)):
        A = dict(zip(ones, picks_1))
        for picks_2 in itertools.product(answers, repeat=len(twos)):
            B = dict(zip(twos, picks_2))
            singles = (A[single_1], B[single_2]) if row.probability else ()
            value = row.signed_sum((A[x, v] * B[y, u] for x, y, u, v in cells), singles)
            yield value, A, B


def local_bounds(row: Inequality) -> tuple[float, float]:
    """The least and greatest value of ``row`` over local models: the
    bounds the paper's theorem gives it, which ``row.lower`` and
    ``row.upper`` must state exactly."""
    values = [value for value, _, _ in local_strategies(row)]
    return min(values), max(values)


# ----------------------------------------------------------------------
# Algebraic identity checks underlying the bounds
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheckResult:
    """Whether an identity check held over ``checked`` points, and the
    first point that broke it: the signs at (a, a2, b, b2) then the row's
    value for the CHSH check, (x, y, x2, y2) then the value for the CH
    check."""

    passed: bool
    checked: int
    counterexample: Optional[tuple] = None


def chsh_identity_check() -> IdentityCheckResult:
    """Every sign assignment of the outcomes at (a, a2, b, b2) puts the
    ``chsh`` row on one of its bounds: X'Y' + X'Y + XY' - XY = +/-2."""
    row = INEQUALITIES["chsh"]
    for signs in itertools.product((-1, 1), repeat=4):
        value = row.signed_sum(x * y for x, y, _, _ in row.cells(dict(zip(QUARTET, signs))))
        if value not in (row.lower, row.upper):
            return IdentityCheckResult(False, 16, signs + (value,))
    return IdentityCheckResult(True, 16)


def ch_expression(
    x: np.ndarray, y: np.ndarray, x2: np.ndarray, y2: np.ndarray
) -> np.ndarray:
    """The ``retarded_ch`` row with p12 = x*y, for +1 probabilities x, x2
    at a, a2 and y, y2 at b, b2: x'y' + x'y + xy' - xy - x' - y'."""
    row = INEQUALITIES["retarded_ch"]
    ids = dict(zip(ANGLE_FLAGS, (x, x2, y, y2) * 2))
    return row.signed_sum((p * q for p, q, _, _ in row.cells(ids)), (x2, y2))


def ch_identity_check(samples: int, seed: int = 0) -> IdentityCheckResult:
    """Check the probability-form combination stays in the ``retarded_ch``
    row's bounds at random points.

    Draws ``samples`` uniform points from the unit 4-cube, ``BLOCK_SIZE``
    at a time, and stops at the first point out of bounds.  Only those
    random points are checked, not the 16 vertices, although the
    expression is multilinear, so its vertices decide it exactly;
    ``local_bounds`` enumerates them, as the strategies whose answers
    ignore the far retarded setting.
    """
    import numpy as np  # this module is numpy-free at import, for CLI start-up

    from .estimation import BLOCK_SIZE  # estimation imports this module

    row = INEQUALITIES["retarded_ch"]
    rng = np.random.default_rng(seed)
    samples = int(samples)
    for start in range(0, samples, BLOCK_SIZE):
        x, y, x2, y2 = rng.random((4, min(BLOCK_SIZE, samples - start)))
        values = ch_expression(x, y, x2, y2)
        bad = np.flatnonzero((values < row.lower) | (values > row.upper))
        if bad.size:
            i = int(bad[0])
            point = (x[i], y[i], x2[i], y2[i], values[i])
            return IdentityCheckResult(False, start + i + 1, tuple(map(float, point)))
    return IdentityCheckResult(True, max(samples, 0))

"""End-to-end experiment runs: schedules, trials, tables and reports.

A scenario fixes the geometry, one model, per-station setting schedules
and a measurement quartet (a, a2, b, b2).  Trials happen at evenly
spaced simultaneous times; for each trial the actual settings are read
off the schedules, the retarded settings are computed under the
configured definition, outcomes are sampled, and the resulting table is
scored against every inequality whose cells are present.

Runs are bit-reproducible from (config, seed): schedule randomness and
trial randomness use fixed substreams, and trial blocks are reduced in
index order whatever the worker count.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import CellError, ConfigError
from .estimation import (
    TrialLog,
    build_table,
    map_blocks,
    marginal_p1,
    marginal_p2,
    p12_table,
    quadruple_counts,
    substream,
    write_table,
    write_trial_log,
)
from .inequalities import (
    INEQUALITIES,
    QUARTET,
    RETARDED_FLAGS,
    Correlation,
    CorrelationInput,
    InequalityReport,
    averaged_chsh,
)
from .models import Model, get_model, sample_outcomes
from .spacetime import (
    EqualityClass,
    Geometry,
    InterventionStream,
    SettingLabel,
    SettingSchedule,
    SwitchTable,
    load_interventions,
    parse_angle,
)

SCHEDULE_KINDS = ("periodic", "random_switch", "stream")
RETARDED_DEFINITIONS = ("simple", "predictive")


def _require_finite(section: str, **values: Optional[float]) -> None:
    for key, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{section}.{key} must be finite, got {value!r}")


@dataclass(frozen=True)
class StationConfig:
    """Setting palette and switching rule for one station.

    ``period`` is the hold time of each label in the cycle, so a cycle
    of m labels repeats every m * period.
    """

    station: int
    labels: dict[str, float]
    kind: str
    period: Optional[float] = None
    phase: float = 0.0
    cycle: tuple[str, ...] = ()
    rate: Optional[float] = None
    switch_labels: tuple[str, ...] = ()
    stream_path: Optional[str] = None
    base: Optional[str] = None

    def __post_init__(self) -> None:
        _require_finite(
            f"station{self.station}", period=self.period, phase=self.phase, rate=self.rate
        )
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if not self.labels:
            raise ConfigError(f"station {self.station} has no labels")
        if self.kind == "periodic":
            if self.period is None or self.period <= 0:
                raise ConfigError("periodic schedule needs period > 0")
            if not self.cycle:
                raise ConfigError("periodic schedule needs a label cycle")
            for lid in self.cycle:
                if lid not in self.labels:
                    raise ConfigError(f"cycle label {lid!r} not in station labels")
        elif self.kind == "random_switch":
            if self.rate is None or self.rate <= 0:
                raise ConfigError("random_switch schedule needs rate > 0")
            for lid in self.switch_labels or ():
                if lid not in self.labels:
                    raise ConfigError(f"switch label {lid!r} not in station labels")
        elif self.kind == "stream":
            if not self.stream_path:
                raise ConfigError("stream schedule needs a file path")
        if self.base is not None and self.base not in self.labels:
            raise ConfigError(f"base label {self.base!r} not in station labels")

    def palette(self) -> dict[str, SettingLabel]:
        return {lid: SettingLabel(lid, ang) for lid, ang in self.labels.items()}

    def base_label(self) -> str:
        if self.base is not None:
            return self.base
        if self.kind == "periodic":
            return self.cycle[0]
        return next(iter(self.labels))


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one reproducible run."""

    geometry: Geometry
    model: str
    station1: StationConfig
    station2: StationConfig
    quartet: tuple[str, str, str, str]
    n_trials: int
    spacing: float
    start: float = 0.0
    seed: int = 0
    retarded_definition: str = "simple"
    intervention_delay: float = 0.0
    min_count: int = 100

    def __post_init__(self) -> None:
        _require_finite(
            "run", spacing=self.spacing, start=self.start,
            intervention_delay=self.intervention_delay,
        )
        if self.n_trials < 1:
            raise ConfigError("n_trials must be at least 1")
        if self.min_count < 0:
            raise ConfigError("min_count must be non-negative")
        if self.spacing <= 0:
            raise ConfigError("trial spacing must be positive")
        if self.retarded_definition not in RETARDED_DEFINITIONS:
            raise ConfigError(
                f"retarded_definition must be one of {RETARDED_DEFINITIONS}"
            )
        if self.intervention_delay < 0:
            raise ConfigError("intervention_delay must be non-negative")
        qa, qa2, qb, qb2 = self.quartet
        for lid in (qa, qa2):
            if lid not in self.station1.labels:
                raise ConfigError(f"quartet label {lid!r} not on station 1")
        for lid in (qb, qb2):
            if lid not in self.station2.labels:
                raise ConfigError(f"quartet label {lid!r} not on station 2")
        shared = set(self.station1.labels) & set(self.station2.labels)
        for lid in shared:
            if abs(self.station1.labels[lid] - self.station2.labels[lid]) > 1e-12:
                raise ConfigError(
                    f"label {lid!r} has inconsistent angles between stations"
                )


# ----------------------------------------------------------------------
# Config file parsing
# ----------------------------------------------------------------------

_GEOMETRY_KEYS = {"separation", "signal_speed", "t0"}
_MODEL_KEYS = {"name"}
_STATION_KEYS = {
    "labels", "schedule", "period", "phase", "cycle", "rate",
    "switch_labels", "file", "base",
}
_RUN_KEYS = {
    "n_trials", "spacing", "start", "seed", "retarded_definition",
    "intervention_delay", "quartet", "min_count",
}


def _parse_labels(path: Path, key: str, text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"{path}: {key} entry {item!r} must look like id=angle")
        lid, ang = item.split("=", 1)
        try:
            out[lid.strip()] = parse_angle(ang.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}: {key} must be id=angle entries; {exc}") from None
    if not out:
        raise ConfigError(f"{path}: {key} is an empty label list")
    return out


def _parse_id_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _parse_number(path: Path, key: str, text: str, kind: type = float):
    """``text`` as ``kind`` (float or int); a malformed value raises a
    ``ConfigError`` naming the file and the ``section.key``."""
    try:
        return kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{path}: {key} must be {expected}, got {text!r}") from None


def _station_from_section(
    station: int, sec: configparser.SectionProxy, path: Path
) -> StationConfig:
    unknown = set(sec) - _STATION_KEYS
    if unknown:
        raise ConfigError(f"unknown keys in [station{station}]: {sorted(unknown)}")
    if "labels" not in sec or "schedule" not in sec:
        raise ConfigError(f"[station{station}] needs 'labels' and 'schedule'")
    kind = sec["schedule"].strip()
    stream_path = None
    if "file" in sec:
        p = Path(sec["file"].strip())
        stream_path = str(p if p.is_absolute() else path.parent / p)

    def number(key: str, default: Optional[float]) -> Optional[float]:
        return _parse_number(path, f"station{station}.{key}", sec[key]) if key in sec else default

    return StationConfig(
        station=station,
        labels=_parse_labels(path, f"station{station}.labels", sec["labels"]),
        kind=kind,
        period=number("period", None),
        phase=number("phase", 0.0),
        cycle=_parse_id_list(sec["cycle"]) if "cycle" in sec else (),
        rate=number("rate", None),
        switch_labels=_parse_id_list(sec["switch_labels"]) if "switch_labels" in sec else (),
        stream_path=stream_path,
        base=sec["base"].strip() if "base" in sec else None,
    )


def load_config(path: Union[str, Path]) -> ScenarioConfig:
    """Parse a scenario config file (ini-style sections, strict keys)."""
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with path.open() as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    required = {"geometry", "model", "station1", "station2", "run"}
    present = set(parser.sections())
    if present != required:
        missing = required - present
        extra = present - required
        parts = []
        if missing:
            parts.append(f"missing sections {sorted(missing)}")
        if extra:
            parts.append(f"unknown sections {sorted(extra)}")
        raise ConfigError(f"{path}: " + "; ".join(parts))

    geo = parser["geometry"]
    unknown = set(geo) - _GEOMETRY_KEYS
    if unknown:
        raise ConfigError(f"unknown keys in [geometry]: {sorted(unknown)}")
    model_sec = parser["model"]
    unknown = set(model_sec) - _MODEL_KEYS
    if unknown:
        raise ConfigError(f"unknown keys in [model]: {sorted(unknown)}")
    run = parser["run"]
    unknown = set(run) - _RUN_KEYS
    if unknown:
        raise ConfigError(f"unknown keys in [run]: {sorted(unknown)}")

    try:
        separation = _parse_number(path, "geometry.separation", geo["separation"])
        signal_speed = _parse_number(path, "geometry.signal_speed", geo["signal_speed"])
        t0 = _parse_number(path, "geometry.t0", geo["t0"])
        n_trials = _parse_number(path, "run.n_trials", run["n_trials"], int)
        spacing = _parse_number(path, "run.spacing", run["spacing"])
        start = _parse_number(path, "run.start", run.get("start", "0.0"))
        seed = _parse_number(path, "run.seed", run.get("seed", "0"), int)
        if seed < 0:
            raise ConfigError(f"{path}: run.seed must be non-negative, got {seed}")
        geometry = Geometry(
            separation=separation,
            signal_speed=signal_speed,
            t1=start,
            t2=start,
            t0=t0,
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: missing required key {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    quartet = _parse_id_list(run.get("quartet", ""))
    if len(quartet) != 4:
        raise ConfigError("run.quartet must list four labels: a, a2, b, b2")

    return ScenarioConfig(
        geometry=geometry,
        model=model_sec.get("name", "").strip() or "hardy-singlet",
        station1=_station_from_section(1, parser["station1"], path),
        station2=_station_from_section(2, parser["station2"], path),
        quartet=(quartet[0], quartet[1], quartet[2], quartet[3]),
        n_trials=n_trials,
        spacing=spacing,
        start=start,
        seed=seed,
        retarded_definition=run.get("retarded_definition", "simple").strip(),
        intervention_delay=_parse_number(
            path, "run.intervention_delay", run.get("intervention_delay", "0")
        ),
        min_count=_parse_number(path, "run.min_count", run.get("min_count", "100"), int),
    )


# ----------------------------------------------------------------------
# Schedule construction
# ----------------------------------------------------------------------


def make_schedule(
    station: StationConfig,
    window: tuple[float, float],
    seed: int,
    intervention_delay: float = 0.0,
) -> SettingSchedule:
    """Build the station's schedule over the given time window.

    periodic: a deterministic base cycling through the labels, each held
    for ``period``: switch ``k`` falls at ``phase + k * period`` and sets
    label ``k % m`` of the cycle, for every ``k`` after the one in force
    at ``start`` whose time is at most ``end``.  The switches are built
    as one :class:`SwitchTable` of columns.  random_switch: a constant
    base plus interventions at exponentially spaced decision times with
    uniformly chosen labels and the configured delay.  stream: a constant
    base plus interventions loaded from file.
    """
    start, end = window
    palette = station.palette()
    if station.kind == "periodic":
        period = float(station.period)
        phase = float(station.phase)
        cycle = [palette[lid] for lid in station.cycle]
        m = len(cycle)
        k0 = math.floor((start - phase) / period)
        # two spare k past the last in exact arithmetic absorb rounding;
        # the times are the IEEE values of Python's phase + k * period
        k = np.arange(k0 + 1, max(k0 + 1, math.floor((end - phase) / period) + 3))
        times = phase + k.astype(np.float64) * period
        n = int(np.searchsorted(times, end, side="right"))
        return SettingSchedule(
            station=station.station,
            start=start,
            initial=cycle[k0 % m],
            switches=SwitchTable(times[:n], k[:n] % m, cycle),
        )

    base = palette[station.base_label()]
    if station.kind == "random_switch":
        rng = substream(seed, 100 + station.station)
        rate = float(station.rate)
        labels = [palette[lid] for lid in (station.switch_labels or tuple(station.labels))]
        span = end - start
        # draw enough exponential gaps to cover the window, extending if short
        times = []
        t = start
        chunk = max(16, int(rate * span * 1.2) + 16)
        while t <= end:
            gaps = rng.exponential(scale=1.0 / rate, size=chunk)
            cum = t + np.cumsum(gaps)
            inside = cum[cum <= end]
            times.append(inside)
            t = float(cum[-1])
        decisions = np.concatenate(times) if times else np.empty(0)
        picks = rng.integers(0, len(labels), size=decisions.size)
        stream = InterventionStream(
            station=station.station,
            decision_times=decisions,
            delays=float(intervention_delay),
            label_indices=picks,
            labels=labels,
        )
        return SettingSchedule(
            station=station.station, start=start, initial=base, interventions=stream
        )

    return SettingSchedule(
        station=station.station,
        start=start,
        initial=base,
        interventions=load_interventions(station.stream_path, palette, station.station),
    )


def build_schedules(config: ScenarioConfig) -> tuple[SettingSchedule, SettingSchedule]:
    """Both station schedules for a run, derived only from the config."""
    last = config.start + (config.n_trials - 1) * config.spacing
    window = (config.geometry.t0, last)
    s1 = make_schedule(config.station1, window, config.seed, config.intervention_delay)
    s2 = make_schedule(config.station2, window, config.seed, config.intervention_delay)
    return s1, s2


# ----------------------------------------------------------------------
# Scenario result
# ----------------------------------------------------------------------


@dataclass
class IndependenceCheck:
    """Chi-squared independence of the retarded pair from the actual pair.

    ``statistic`` is Pearson's chi-squared over the (actual pair) x
    (retarded pair) table, with Yates' continuity correction when
    ``dof == 1``.  ``critical_999`` is the 0.999 quantile of the
    chi-squared distribution with ``dof`` degrees of freedom, computed
    with ``math`` alone (:func:`chi2_upper_quantile`).
    """

    statistic: float
    dof: int
    critical_999: float

    @property
    def independent(self) -> bool:
        return self.statistic <= self.critical_999


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    log: TrialLog
    table: CorrelationInput
    reports: list[InequalityReport]
    classification: dict[str, float]
    retarded_weights: dict[tuple[str, str], float]
    skipped: list[dict]
    independence: Optional[IndependenceCheck] = None

    def violated(self) -> bool:
        return any(r.verdict == "violated" for r in self.reports)

    def write_outputs(self, outdir: Union[str, Path]) -> dict[str, Path]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        paths = {
            "trials": outdir / "trials.csv",
            "correlations": outdir / "correlations.csv",
            "reports": outdir / "reports.json",
            "classification": outdir / "classification.json",
        }
        write_trial_log(self.log, paths["trials"])
        write_table(self.table, paths["correlations"])
        paths["reports"].write_text(
            json.dumps([r.to_dict() for r in self.reports], indent=2)
        )
        summary = {
            "fractions": dict(self.classification),
            "retarded_weights": {
                f"{u},{v}": w for (u, v), w in sorted(self.retarded_weights.items())
            },
            "skipped": self.skipped,
        }
        if self.independence is not None:
            summary["independence"] = {
                "statistic": self.independence.statistic,
                "dof": self.independence.dof,
                "critical_999": self.independence.critical_999,
                "independent": self.independence.independent,
            }
        paths["classification"].write_text(json.dumps(summary, indent=2))
        return paths


# ----------------------------------------------------------------------
# Trial generation
# ----------------------------------------------------------------------


def _merge_palettes(config: ScenarioConfig) -> tuple[tuple[SettingLabel, ...], dict[str, int]]:
    labels: list[SettingLabel] = []
    index: dict[str, int] = {}
    for st in (config.station1, config.station2):
        for lid, ang in st.labels.items():
            if lid not in index:
                index[lid] = len(labels)
                labels.append(SettingLabel(lid, ang))
    return tuple(labels), index


def _schedule_indices(
    schedule: SettingSchedule, global_index: dict[str, int]
) -> np.ndarray:
    return np.array(
        [global_index[lbl.id] for lbl in schedule.distinct_labels], dtype=np.int64
    )


def _retarded_indices(
    config: ScenarioConfig,
    sched1: SettingSchedule,
    sched2: SettingSchedule,
    index: dict[str, int],
    t1: np.ndarray,
    t2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Retarded label indices (merged palette) of trials measured at t1 on
    station 1 and t2 on station 2.

    simple: each schedule's value L/c before its own time.  predictive:
    station 1's setting in effect at t1 as decided by t2 - L/c, and the
    mirror for station 2.
    """
    tau = config.geometry.retardation
    map1 = _schedule_indices(sched1, index)
    map2 = _schedule_indices(sched2, index)
    if config.retarded_definition == "simple":
        return map1[sched1.value_index_at(t1 - tau)], map2[sched2.value_index_at(t2 - tau)]
    return (
        map1[sched1.predictive_index_at(t1, t2 - tau)],
        map2[sched2.predictive_index_at(t2, t1 - tau)],
    )


def _sample_trials(
    model: Model, angles: tuple[np.ndarray, ...], seed: int, workers: Optional[int]
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Outcome pairs and lambda (None without a hidden variable) for
    per-trial angles (a, b, a_r, b_r), one substream per block."""
    a, b, a_r, b_r = angles

    def block(i: int, offset: int, m: int):
        sl = slice(offset, offset + m)
        return sample_outcomes(
            model, a[sl], b[sl], a_r[sl], b_r[sl], substream(seed, 200, i), m
        )

    outcome_1, outcome_2, lam = zip(*map_blocks(a.size, block, workers))
    return (
        np.concatenate(outcome_1),
        np.concatenate(outcome_2),
        None if lam[0] is None else np.concatenate(lam),
    )


def classify_fractions(log: TrialLog) -> dict[str, float]:
    n = len(log)
    eq1 = log.a == log.a_r
    eq2 = log.b == log.b_r
    both = int((eq1 & eq2).sum())
    only1 = int((eq1 & ~eq2).sum())
    only2 = int((~eq1 & eq2).sum())
    neither = n - both - only1 - only2
    return {
        EqualityClass.BOTH_EQUAL.value: both / n,
        EqualityClass.ONLY_1_EQUAL.value: only1 / n,
        EqualityClass.ONLY_2_EQUAL.value: only2 / n,
        EqualityClass.NEITHER_EQUAL.value: neither / n,
    }


def empirical_weights(log: TrialLog) -> dict[tuple[str, str], float]:
    """Observed frequency of each retarded pair across all trials."""
    ids = log.ids()
    counts = quadruple_counts(log).sum(axis=(0, 1))
    n = len(log)
    return {(ids[u], ids[v]): int(counts[u, v]) / n for u, v in zip(*np.nonzero(counts))}


# B_2k / (2k (2k - 1)) for k = 1..8: the Stirling series of lgamma(s)
# beyond (s - 1/2) log s - s + log(2 pi) / 2, accurate to 1e-17 for s >= 10
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)


def _log_gamma_prefix(s: float, x: float) -> float:
    """log(x**s * exp(-x) / Gamma(s)), with the large terms cancelled
    analytically for s >= 10 so the result keeps full relative precision."""
    if s < 10.0:
        return s * math.log(x) - x - math.lgamma(s)
    tail = 0.0
    for coef in reversed(_STIRLING):
        tail = tail / (s * s) + coef
    u = (x - s) / s
    return s * (math.log1p(u) - u) + 0.5 * math.log(s / (2 * math.pi)) - tail / s


def _upper_gamma_q(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x): the power series for
    x < s + 1, the Lentz continued fraction above it."""
    if x <= 0.0:
        return 1.0
    prefix = math.exp(_log_gamma_prefix(s, x))
    if x < s + 1.0:
        term = total = 1.0 / s
        k = s
        while term > total * 1e-17:
            k += 1.0
            term *= x / k
            total += term
        return 1.0 - prefix * total
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= 2.3e-16:
            break
    return prefix * h


def chi2_upper_quantile(q: float, dof: int) -> float:
    """The x with P(chi2_dof > x) = q, by bisection on Q(dof / 2, x / 2)
    down to adjacent floats."""
    s = dof / 2.0
    lo, hi = 0.0, max(1.0, float(dof))
    while _upper_gamma_q(s, hi / 2.0) > q:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if _upper_gamma_q(s, mid / 2.0) > q:
            lo = mid
        else:
            hi = mid


def independence_check(log: TrialLog) -> Optional[IndependenceCheck]:
    """Pearson chi-squared test of (actual pair) x (retarded pair)
    independence.

    Rows and columns that never occur are dropped; a table left with
    fewer than two rows or columns gives ``None``.  With one degree of
    freedom, Yates' correction moves each observed count towards its
    expected count by min(0.5, |E - O|).  The critical value is the
    ``math``-only quantile :func:`chi2_upper_quantile` at q = 0.001.
    """
    p = len(log.palette)
    table = quadruple_counts(log).reshape(p * p, p * p)
    observed = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0].astype(np.float64)
    r, c = observed.shape
    if r < 2 or c < 2:
        return None
    dof = (r - 1) * (c - 1)
    expected = np.multiply.outer(observed.sum(axis=1), observed.sum(axis=0)) / observed.sum()
    if dof == 1:
        diff = expected - observed
        observed = observed + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    return IndependenceCheck(
        statistic=float(((observed - expected) ** 2 / expected).sum()),
        dof=dof,
        critical_999=chi2_upper_quantile(0.001, dof),
    )


# ----------------------------------------------------------------------
# Inequality evaluation over a finished table
# ----------------------------------------------------------------------


def _observed_retarded_pairs(table: CorrelationInput, x: str, y: str) -> set[tuple[str, str]]:
    """Retarded pairs with a cell recorded for actual pair (x, y)."""
    return {(u, v) for (ax, by, u, v) in table.cells if ax == x and by == y}


def _evaluate_reports(
    config: ScenarioConfig,
    log: TrialLog,
    table: CorrelationInput,
    weights: dict[tuple[str, str], float],
) -> tuple[list[InequalityReport], list[dict]]:
    qa, qa2, qb, qb2 = config.quartet
    quartet = dict(zip(QUARTET, config.quartet))
    reports: list[InequalityReport] = []
    skipped: list[dict] = []

    def try_report(kind: str, fn, detail: dict) -> None:
        try:
            reports.append(fn())
        except CellError as exc:
            skipped.append({"name": kind, **detail, "reason": str(exc)})

    # observed retarded pairs per actual pair of the quartet
    d_22 = _observed_retarded_pairs(table, qa2, qb2)
    d_21 = _observed_retarded_pairs(table, qa2, qb)
    d_12 = _observed_retarded_pairs(table, qa, qb2)
    d_11 = _observed_retarded_pairs(table, qa, qb)

    # flag -> label id of each complete retarded octuple
    octuples = []
    for (a2r, b2r) in sorted(d_22):
        for (ar, br) in sorted(d_11):
            if (ar, b2r) in d_21 and (a2r, br) in d_12:
                octuples.append({**quartet, "ar": ar, "a2r": a2r, "br": br, "b2r": b2r})

    if not octuples:
        skipped.append(
            {
                "name": "retarded_chsh",
                "reason": "no complete retarded octuple was observed",
            }
        )

    for ids in octuples:
        try_report(
            "retarded_chsh",
            lambda ids=ids: INEQUALITIES["retarded_chsh"].evaluate(table, ids),
            {k: ids[k] for k in RETARDED_FLAGS},
        )

    if (qa, qb) in (d_22 & d_21 & d_12 & d_11):
        try_report(
            "same_retarded_chsh",
            lambda: INEQUALITIES["same_retarded_chsh"].evaluate(table, quartet),
            {"ar": qa, "br": qb},
        )
    else:
        skipped.append(
            {
                "name": "same_retarded_chsh",
                "reason": f"retarded pair ({qa}, {qb}) not observed for every "
                "actual pair of the quartet",
            }
        )

    # probability form over the same octuples, whose cells were all observed
    if octuples:
        p12 = p12_table(log, config.min_count)
        singles = (Correlation(*marginal_p1(log, qa2)), Correlation(*marginal_p2(log, qb2)))
    ch = INEQUALITIES["retarded_ch"]
    for ids in octuples:
        try_report(
            "retarded_ch",
            lambda ids=ids: ch.evaluate(p12, ids, singles),
            {k: ids[k] for k in RETARDED_FLAGS},
        )

    both_random = (
        config.station1.kind == "random_switch"
        and config.station2.kind == "random_switch"
    )
    try_report(
        "averaged_chsh",
        lambda: averaged_chsh(
            table, weights, qa, qa2, qb, qb2, weights_independent=both_random
        ),
        {"weights": "empirical"},
    )
    return reports, skipped


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------


def run_scenario(
    config: ScenarioConfig, workers: Optional[int] = None
) -> ScenarioResult:
    """Generate trials, estimate correlations, and evaluate inequalities."""
    tau = config.geometry.retardation
    if config.geometry.t0 >= config.start - tau:
        raise ConfigError("geometry.t0 must precede start - L/c")
    model = get_model(config.model)
    sched1, sched2 = build_schedules(config)
    palette, index = _merge_palettes(config)
    times = config.start + config.spacing * np.arange(config.n_trials)

    a_idx = _schedule_indices(sched1, index)[sched1.value_index_at(times)]
    b_idx = _schedule_indices(sched2, index)[sched2.value_index_at(times)]
    ar_idx, br_idx = _retarded_indices(config, sched1, sched2, index, times, times)

    angles = np.array([lbl.angle for lbl in palette])
    outcome_1, outcome_2, lam = _sample_trials(
        model,
        (angles[a_idx], angles[b_idx], angles[ar_idx], angles[br_idx]),
        config.seed,
        workers,
    )
    log = TrialLog(
        palette=palette,
        t1=times,
        t2=times,
        a=a_idx,
        b=b_idx,
        a_r=ar_idx,
        b_r=br_idx,
        outcome_1=outcome_1,
        outcome_2=outcome_2,
        lam=lam,
    )
    table = build_table(log, min_count=config.min_count)
    weights = empirical_weights(log)
    reports, skipped = _evaluate_reports(config, log, table, weights)
    return ScenarioResult(
        config=config,
        log=log,
        table=table,
        reports=reports,
        classification=classify_fractions(log),
        retarded_weights=weights,
        skipped=skipped,
        independence=independence_check(log),
    )


def replay_retarded(
    config: ScenarioConfig, log: TrialLog
) -> tuple[np.ndarray, np.ndarray]:
    """Recompute the retarded label indices of a log from schedules alone.

    Only the log's times are used.  The returned arrays index the
    config's merged palette (station 1's labels, then station 2's new
    ones, as ``_merge_palettes`` orders them), not ``log.palette``: a
    log read back from disk lists ids in first-seen order, so compare
    ids, not indices.  Used to audit that recorded retarded settings
    are a pure function of (config, times).
    """
    sched1, sched2 = build_schedules(config)
    _, index = _merge_palettes(config)
    return _retarded_indices(config, sched1, sched2, index, log.t1, log.t2)

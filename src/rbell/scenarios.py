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

from .errors import CellError, ConfigError, UnknownModelError
from .estimation import (
    BLOCK_SIZE,
    TrialCounts,
    TrialLog,
    build_table,
    map_blocks,
    marginal_p1,
    marginal_p2,
    p12_table,
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
from .models import DeterministicLHV, Model, StochasticLHV, get_model, sample_outcomes
from .spacetime import (
    ANGLE_TOL,
    EqualityClass,
    Geometry,
    InterventionStream,
    SettingLabel,
    SettingSchedule,
    SwitchTable,
    label_dtype,
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
        if self.geometry.t0 >= self.start - self.geometry.retardation:
            raise ConfigError("geometry.t0 must precede start - L/c")
        if self.n_trials < 1:
            raise ConfigError("n_trials must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"run.seed must be non-negative, got {self.seed}")
        if self.min_count < 0:
            raise ConfigError("min_count must be non-negative")
        if self.spacing <= 0:
            raise ConfigError("trial spacing must be positive")
        try:
            last = self.start + (self.n_trials - 1) * self.spacing
        except OverflowError:  # an int too large for a float
            last = math.inf
        if not math.isfinite(last):
            raise ConfigError("the last trial time, run.start + (run.n_trials - 1) * "
                              "run.spacing, must be finite")
        if self.retarded_definition not in RETARDED_DEFINITIONS:
            raise ConfigError(
                f"retarded_definition must be one of {RETARDED_DEFINITIONS}"
            )
        if self.intervention_delay < 0:
            raise ConfigError("intervention_delay must be non-negative")
        if len(self.quartet) != 4:
            raise ConfigError("run.quartet must list four labels: a, a2, b, b2")
        qa, qa2, qb, qb2 = self.quartet
        for lid in (qa, qa2):
            if lid not in self.station1.labels:
                raise ConfigError(f"quartet label {lid!r} not on station 1")
        for lid in (qb, qb2):
            if lid not in self.station2.labels:
                raise ConfigError(f"quartet label {lid!r} not on station 2")
        shared = set(self.station1.labels) & set(self.station2.labels)
        for lid in shared:
            if abs(self.station1.labels[lid] - self.station2.labels[lid]) > ANGLE_TOL:
                raise ConfigError(
                    f"label {lid!r} has inconsistent angles between stations"
                )


# ----------------------------------------------------------------------
# Config file parsing
# ----------------------------------------------------------------------

#: The model of a config whose [model] name is absent or blank.  The one
#: default not on the config types: ``model`` precedes fields without one.
_DEFAULT_MODEL = "hardy-singlet"


def _number(key: str, text: str, kind: type = float):
    """``text`` as ``kind`` (float or int); a fault names the key."""
    try:
        return kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {expected}, got {text!r}") from None


def _integer(key: str, text: str) -> int:
    return _number(key, text, int)


def _text(key: str, text: str) -> str:
    return text.strip()


def _ids(key: str, text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _labels(key: str, text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"{key} entry {item!r} must look like id=angle")
        lid, ang = (part.strip() for part in item.split("=", 1))
        if not lid:
            raise ConfigError(f"{key} entry {item!r} has an empty label id")
        if lid in out:
            raise ConfigError(f"{key} repeats label id {lid!r}")
        try:
            out[lid] = parse_angle(ang)
        except ValueError as exc:
            raise ConfigError(f"{key} must be id=angle entries; {exc}") from None
    if not out:
        raise ConfigError(f"{key} is an empty label list")
    return out


def _model_name(key: str, text: str) -> str:
    name = text.strip() or _DEFAULT_MODEL
    try:
        get_model(name)
    except UnknownModelError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    return name


_STATION = {
    "labels": ("labels", _labels), "schedule": ("kind", _text), "period": ("period", _number),
    "phase": ("phase", _number), "cycle": ("cycle", _ids), "rate": ("rate", _number),
    "switch_labels": ("switch_labels", _ids), "file": ("stream_path", _text),
    "base": ("base", _text),
}
#: Section -> (ini key -> (config field, parser), required keys).  A key
#: left out takes its field's default on the config types.
_SECTIONS = {
    "geometry": ({key: (key, _number) for key in ("separation", "signal_speed", "t0")},
                 ("separation", "signal_speed", "t0")),
    "model": ({"name": ("model", _model_name)}, ()),
    "station1": (_STATION, ("labels", "schedule")),
    "station2": (_STATION, ("labels", "schedule")),
    "run": ({"n_trials": ("n_trials", _integer), "spacing": ("spacing", _number),
             "start": ("start", _number), "seed": ("seed", _integer),
             "retarded_definition": ("retarded_definition", _text),
             "intervention_delay": ("intervention_delay", _number),
             "quartet": ("quartet", _ids), "min_count": ("min_count", _integer)},
            ("n_trials", "spacing", "quartet")),
}


def _read_section(parser: configparser.ConfigParser, section: str) -> dict[str, object]:
    """Config field -> value of each key present in ``section``, read
    through ``_SECTIONS``.  An unknown key, a missing required key and a
    malformed value each raise a ``ConfigError`` naming it."""
    keys, required = _SECTIONS[section]
    sec = parser[section]
    unknown = set(sec) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
    for key in required:
        if key not in sec:
            raise ConfigError(f"missing required key '{section}.{key}'")
    return {field: parse(f"{section}.{key}", sec[key])
            for key, (field, parse) in keys.items() if key in sec}


def load_config(path: Union[str, Path]) -> ScenarioConfig:
    """Parse a scenario config file (ini-style sections, strict keys).

    Every fault is one :class:`ConfigError` naming the file.
    """
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with path.open() as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return _config_from_parser(parser, path.parent)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _config_from_parser(
    parser: configparser.ConfigParser, config_dir: Path
) -> ScenarioConfig:
    present, known = set(parser.sections()), set(_SECTIONS)
    if present != known:
        raise ConfigError("; ".join(f"{what} sections {sorted(names)}" for what, names in (
            ("missing", known - present), ("unknown", present - known)) if names))
    fields = {section: _read_section(parser, section) for section in _SECTIONS}
    try:
        geometry = Geometry(**fields["geometry"])
    except ValueError as exc:
        # each Geometry fault begins with its field, which is its ini key
        raise ConfigError(f"geometry.{exc}") from None
    stations = {}
    for k in (1, 2):
        station = fields[f"station{k}"]
        if "stream_path" in station:
            # a relative path is read from the config's folder
            station["stream_path"] = str(config_dir / station["stream_path"])
        stations[f"station{k}"] = StationConfig(station=k, **station)
    return ScenarioConfig(geometry=geometry, model=fields["model"].get("model", _DEFAULT_MODEL),
                          **stations, **fields["run"])


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
    label ``k % m`` of the cycle, for every ``k`` whose float time is
    after ``start`` and at most ``end``; the last switch at or before
    ``start``, as rounded, sets the initial label.  The
    switches are built as one :class:`SwitchTable` of columns.  Before
    any is built, a window is refused when it spans more than 2**31 - 1
    periods, or unless ``period > 2 * ulp(reach)``, where ``reach =
    |phase| + K * period`` and K is the largest |k| built.  That
    condition suffices: each computed time lies within ``ulp(reach)`` of
    its exact value, so adjacent times are distinct floats; and it fails
    once K >= 2**53, so every k is exact in int64 and in float64.
    random_switch: a
    constant base plus interventions at exponentially spaced decision
    times with uniformly chosen labels and the configured delay, refused
    before any draw when more than 2**31 - 1 (what a timeline's int32
    decision index holds) are expected.  stream: a constant base plus
    interventions loaded from file.
    """
    start, end = window
    palette = station.palette()
    if station.kind == "periodic":
        period = float(station.period)
        phase = float(station.phase)
        cycle = [palette[lid] for lid in station.cycle]
        m = len(cycle)
        first, last = (start - phase) / period, (end - phase) / period
        if not last - first <= 2**31 - 1:
            raise ConfigError(f"station{station.station}.period {period!r} over a window of "
                              f"{end - start!r} gives more than 2**31 - 1 switches")
        # k0 is the k in force at start, or one past it when floor rounds
        # up; k1 is two past the last k in exact arithmetic, to absorb rounding
        k0, k1 = math.floor(first), math.floor(last) + 2
        reach = abs(phase) + max(abs(k0), abs(k1)) * period
        if not period > 2 * math.ulp(reach):
            raise ConfigError(
                f"station{station.station}.period {period!r} with station{station.station}"
                f".phase {phase!r} over the window [{start!r}, {end!r}] gives switch times "
                "closer than their float rounding")
        # the times are the IEEE values of Python's phase + k * period
        k = np.arange(k0, k1 + 1)
        times = phase + k.astype(np.float64) * period
        # the last switch at or before the start sets the initial label
        n0, n = (int(np.searchsorted(times, t, side="right")) for t in (start, end))
        return SettingSchedule(
            station=station.station,
            start=start,
            initial=cycle[(k0 + n0 - 1) % m],
            switches=SwitchTable(times[n0:n], k[n0:n] % m, cycle),
        )

    base = palette[station.base_label()]
    if station.kind == "random_switch":
        rate = float(station.rate)
        span = end - start
        if rate * span > 2**31 - 1:
            raise ConfigError(f"station{station.station}.rate {rate!r} over a window of "
                              f"{span!r} expects more than 2**31 - 1 interventions")
        rng = substream(seed, 100 + station.station)
        labels = [palette[lid] for lid in (station.switch_labels or tuple(station.labels))]
        # draw enough exponential gaps to cover the window, extending if short;
        # the running sums do not decrease, so those inside are a prefix.
        # Each chunk is shrunk in place to that prefix; one chunk almost
        # always covers the window, and the stream then owns exactly its
        # decisions, with no copy
        times = []
        t = start
        chunk = max(16, int(rate * span * 1.2) + 16)
        while t <= end:
            cum = rng.exponential(scale=1.0 / rate, size=chunk)
            np.cumsum(cum, out=cum)
            cum += t
            t = float(cum[-1])
            inside = int(np.searchsorted(cum, end, side="right"))
            cum.resize(inside, refcheck=False)  # no view of cum exists
            times.append(cum)
        decisions = times[0] if len(times) == 1 else np.concatenate([np.empty(0), *times])
        times = cum = None
        # int64 draws taken a block at a time are the draws of one call;
        # each block is narrowed as it is stored
        picks = np.empty(decisions.size, label_dtype(len(labels)))
        for lo in range(0, decisions.size, BLOCK_SIZE):
            block = picks[lo:lo + BLOCK_SIZE]
            block[...] = rng.integers(0, len(labels), size=block.size)
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


def build_schedules(
    config: ScenarioConfig, stations: tuple[int, ...] = (1, 2)
) -> tuple[SettingSchedule, ...]:
    """The schedules of ``stations`` for a run, in that order, derived
    only from the config.  Each station draws from its own substream, so
    a schedule is the same whichever others are built with it."""
    last = config.start + (config.n_trials - 1) * config.spacing
    window = (config.geometry.t0, last)
    return tuple(
        make_schedule(getattr(config, f"station{k}"), window, config.seed,
                      config.intervention_delay)
        for k in stations
    )


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


def _schedule_indices(schedule: SettingSchedule, global_index: dict[str, int]) -> np.ndarray:
    ids = [global_index[lbl.id] for lbl in schedule.distinct_labels]
    return np.array(ids, dtype=label_dtype(len(global_index)))


def _station_settings(
    config: ScenarioConfig,
    index: dict[str, int],
    t1: np.ndarray,
    t2: np.ndarray,
    actual: bool = True,
) -> list[tuple[Optional[np.ndarray], np.ndarray]]:
    """Per station, the actual (None unless ``actual``) and retarded label
    columns of trials measured at t1 on station 1 and t2 on station 2, as
    merged-palette indices of the smallest unsigned dtype.

    simple: each schedule's value L/c before its own time.  predictive:
    station 1's setting in effect at t1 as decided by t2 - L/c, and the
    mirror for station 2; one rank search gives it and the actual
    setting.  Each lookup reads one station's schedule alone, so one
    schedule is built at a time, looked up ``BLOCK_SIZE`` trials at a
    time into the preallocated columns, and dropped, with its timeline,
    before the next is built.  Within one such block the predictive
    lookup grows its own blocks of targets to the window a late run
    needs, but each block builds its own window, so a late run longer
    than a block's ranks is lifted over again in every block.
    """
    tau = config.geometry.retardation
    times = (t1, t2)
    dtype = label_dtype(len(index))
    columns = []
    for k in range(2):
        (schedule,) = build_schedules(config, stations=(k + 1,))
        to_palette = _schedule_indices(schedule, index)
        own, far = times[k], times[1 - k]
        current = np.empty(own.size, dtype) if actual else None
        retarded = np.empty(own.size, dtype)
        for lo in range(0, own.size, BLOCK_SIZE):
            rows = slice(lo, lo + BLOCK_SIZE)
            if config.retarded_definition == "simple":
                ret = schedule.value_index_at(own[rows] - tau)
                cur = schedule.value_index_at(own[rows]) if actual else None
            else:
                cur, ret = schedule.predictive_index_at(own[rows], far[rows] - tau)
            retarded[rows] = to_palette[ret]
            if actual:
                current[rows] = to_palette[cur]
        columns.append((current, retarded))
        # the next station's build runs before ``schedule`` would be rebound
        del schedule
    return columns


def _sample_trials(
    model: Model, angles: np.ndarray, columns: tuple, seed: int
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Outcome pairs and lambda (None without a hidden variable) for label
    columns (a, b, a_r, b_r) indexing ``angles``, one substream per block.
    Each block gathers its own angles and writes its slice of the output."""
    n = columns[0].size
    outcome_1, outcome_2 = np.empty(n, np.int8), np.empty(n, np.int8)
    lam = np.empty(n) if isinstance(model, (DeterministicLHV, StochasticLHV)) else None

    def block(i: int, offset: int, m: int) -> None:
        sl = slice(offset, offset + m)
        a, b, a_r, b_r = (angles[column[sl]] for column in columns)
        outcome_1[sl], outcome_2[sl], lam_block = sample_outcomes(
            model, a, b, a_r, b_r, substream(seed, 200, i), m
        )
        if lam is not None:
            lam[sl] = lam_block

    map_blocks(n, block)
    return outcome_1, outcome_2, lam


def classify_fractions(counts: TrialCounts) -> dict[str, float]:
    """Fraction of trials in each equality class, from the diagonals of the cells."""
    c = counts.cells
    n = int(c.sum())
    both, eq1, eq2 = (int(np.einsum(f"{d}->", c)) for d in ("ijij", "ijik", "ijkj"))
    classes = (both, eq1 - both, eq2 - both, n - eq1 - eq2 + both)
    return {cls.value: k / n for cls, k in zip(EqualityClass, classes)}


def empirical_weights(counts: TrialCounts) -> dict[tuple[str, str], float]:
    """Observed frequency of each retarded pair across all trials."""
    ids = counts.ids
    pairs = counts.cells.sum(axis=(0, 1))
    n = int(pairs.sum())
    return {(ids[u], ids[v]): int(pairs[u, v]) / n for u, v in zip(*np.nonzero(pairs))}


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


def independence_check(counts: TrialCounts) -> Optional[IndependenceCheck]:
    """Pearson chi-squared test of (actual pair) x (retarded pair)
    independence.

    Rows and columns that never occur are dropped; a table left with
    fewer than two rows or columns gives ``None``.  With one degree of
    freedom, Yates' correction moves each observed count towards its
    expected count by min(0.5, |E - O|).  The critical value is the
    ``math``-only quantile :func:`chi2_upper_quantile` at q = 0.001.
    """
    p = len(counts.ids)
    table = counts.cells.reshape(p * p, p * p)
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


#: The einsum subscript of each retarded flag's axis in the octuple mask.
_OCTUPLE_AXES = {"a2r": "i", "b2r": "j", "ar": "k", "br": "l"}


def _complete_octuples(
    counts: TrialCounts, quartet: dict[str, str]
) -> tuple[list[dict[str, str]], bool]:
    """Flag -> label id of each complete retarded octuple, and whether the
    ``same_retarded_chsh`` row is complete, for the actual ``quartet``.

    A row is complete when every one of its cells has a count above
    zero.  An octuple is a choice of retarded ids that completes the
    ``retarded_chsh`` row: each term's plane of retarded pairs seen with
    its actual pair lies along the axes of its two retarded flags, and
    the product of the planes over (a2r, b2r, ar, br) is their
    conjunction.  The retarded axes run in sorted id order, so the
    octuples come lexicographic by id in that flag order.
    """
    ids = counts.ids
    observed = counts.cells > 0
    at = {flag: ids.index(lid) for flag, lid in quartet.items()}
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    ranked = observed.take(by_id, 2).take(by_id, 3)
    cells = INEQUALITIES["retarded_chsh"].cells({**at, **_OCTUPLE_AXES})
    mask = np.einsum(",".join(u + v for _, _, u, v in cells) + "->ijkl",
                     *(ranked[x, y] for x, y, _, _ in cells))
    names = [ids[k] for k in by_id]
    octuples = [dict(quartet, a2r=names[i], b2r=names[j], ar=names[k], br=names[m])
                for i, j, k, m in np.argwhere(mask).tolist()]
    same = all(observed[cell] for cell in INEQUALITIES["same_retarded_chsh"].cells(at))
    return octuples, same


def _evaluate_reports(
    config: ScenarioConfig,
    counts: TrialCounts,
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

    octuples, same_complete = _complete_octuples(counts, quartet)
    if not octuples:
        skipped.append({"name": "retarded_chsh",
                        "reason": "no complete retarded octuple was observed"})
    chsh, same, ch = (INEQUALITIES[k] for k in ("retarded_chsh", "same_retarded_chsh",
                                                "retarded_ch"))
    for ids in octuples:
        try_report("retarded_chsh", lambda ids=ids: chsh.evaluate(table, ids),
                   {k: ids[k] for k in RETARDED_FLAGS})
    if same_complete:
        try_report("same_retarded_chsh", lambda: same.evaluate(table, quartet),
                   {"ar": qa, "br": qb})
    else:
        skipped.append({"name": "same_retarded_chsh", "reason": f"retarded pair ({qa}, {qb}) "
                        "not observed for every actual pair of the quartet"})

    # probability form over the same octuples, whose cells were all
    # observed; the singles are p1(a2 | b2r) and p2(b2 | a2r)
    if octuples:
        p12 = p12_table(counts, config.min_count)
    for ids in octuples:
        try_report("retarded_ch", lambda ids=ids: ch.evaluate(p12, ids, (
            Correlation(*marginal_p1(counts, qa2, ids["b2r"])),
            Correlation(*marginal_p2(counts, qb2, ids["a2r"])))),
            {k: ids[k] for k in RETARDED_FLAGS})

    both_random = config.station1.kind == config.station2.kind == "random_switch"
    try_report("averaged_chsh", lambda: averaged_chsh(
        table, weights, qa, qa2, qb, qb2, weights_independent=both_random),
        {"weights": "empirical"})
    return reports, skipped


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Generate trials, estimate correlations, and evaluate inequalities."""
    model = get_model(config.model)
    palette, index = _merge_palettes(config)
    times = config.start + config.spacing * np.arange(config.n_trials)
    (a_idx, ar_idx), (b_idx, br_idx) = _station_settings(config, index, times, times)

    angles = np.array([lbl.angle for lbl in palette])
    outcome_1, outcome_2, lam = _sample_trials(
        model, angles, (a_idx, b_idx, ar_idx, br_idx), config.seed
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
    counts = TrialCounts(log)
    table = build_table(counts, min_count=config.min_count)
    weights = empirical_weights(counts)
    reports, skipped = _evaluate_reports(config, counts, table, weights)
    return ScenarioResult(
        config=config,
        log=log,
        table=table,
        reports=reports,
        classification=classify_fractions(counts),
        retarded_weights=weights,
        skipped=skipped,
        independence=independence_check(counts),
    )


def replay_retarded(
    config: ScenarioConfig, log: TrialLog
) -> tuple[np.ndarray, np.ndarray]:
    """Recompute the retarded label indices of a log from schedules alone.

    Only the log's times are used.  The returned arrays index the
    config's merged palette (station 1's labels, then station 2's new
    ones, as ``_merge_palettes`` orders them), not ``log.palette``: a
    log read back from disk lists ids in first-seen order, so compare
    ids, not indices.  The indices take the smallest unsigned dtype.
    Used to audit that recorded retarded settings are a pure function of
    (config, times).
    """
    _, index = _merge_palettes(config)
    columns = _station_settings(config, index, log.t1, log.t2, actual=False)
    (_, ar_idx), (_, br_idx) = columns
    return ar_idx, br_idx

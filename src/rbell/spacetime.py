"""Two-station geometry, setting timelines, and retarded-setting evaluation.

A station's measurement setting is a piecewise-constant function of time:
a deterministic base timeline (initial label plus sorted switch events)
overridden by externally sourced interventions.  Timelines are
right-continuous: at an exact event time the new label is already in
force.  When a base switch and an intervention effect fall on the same
instant, the intervention wins.

Two notions of "retarded" setting are provided: the value the far
schedule had one light-crossing time ago (simple), and the value the far
schedule is predicted to take once interventions decided after the
light-cone cutoff are discarded (predictive).
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import StreamFormatError, UndefinedTimeError

TWO_PI = math.tau

#: Two labels sharing an id must agree in angle to within this.
ANGLE_TOL = 1e-12


def normalize_angle(angle: float) -> float:
    """Reduce an angle to the canonical interval [0, 2*pi)."""
    a = float(angle) % TWO_PI
    if a >= TWO_PI:  # guard against rounding at the seam
        a -= TWO_PI
    return a


_ANGLE_RE = re.compile(
    r"^\s*(?P<sign>[+-]?)\s*(?P<mult>\d+(?:\.\d+)?)?\s*\*?\s*pi\s*"
    r"(?:/\s*(?P<div>\d+(?:\.\d+)?))?\s*$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Parse an angle given as decimal radians or a rational multiple of pi.

    Accepted forms include ``0.7854``, ``pi``, ``-pi/4``, ``3pi/8`` and
    ``2*pi/3``.  Using pi-forms avoids precision loss for the standard
    measurement quartets.
    """
    m = _ANGLE_RE.match(text)
    if m:
        value = math.pi
        if m.group("mult"):
            value *= float(m.group("mult"))
        if m.group("div"):
            div = float(m.group("div"))
            if div == 0.0:
                raise ValueError(f"cannot parse angle {text!r}: zero divisor")
            value /= div
        return -value if m.group("sign") == "-" else value
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"cannot parse angle {text!r}") from None


@dataclass(frozen=True)
class SettingLabel:
    """A named measurement setting with its analyzer angle in radians.

    Identity (for schedules, trial classification and correlation-table
    keys) is the ``id`` string; the angle is normalized to [0, 2*pi) at
    construction.
    """

    id: str
    angle: float

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("setting label id must be non-empty")
        object.__setattr__(self, "angle", normalize_angle(self.angle))


@dataclass(frozen=True)
class Geometry:
    """Lab-frame layout of the experiment.

    ``separation`` is the distance between stations 1 and 2 and
    ``signal_speed`` the fastest signal speed, so ``retardation`` is the
    one-way light-crossing time.  ``t1``/``t2`` are the measurement
    times and ``t0`` the instant at which the shared hidden state is
    fixed; ``t0`` must precede both retarded times.
    """

    separation: float
    signal_speed: float
    t1: float
    t2: float
    t0: float

    def __post_init__(self) -> None:
        for name in ("separation", "signal_speed", "t1", "t2", "t0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.separation <= 0:
            raise ValueError("separation must be positive")
        if self.signal_speed <= 0:
            raise ValueError("signal_speed must be positive")
        tau = self.separation / self.signal_speed
        if not (self.t0 < self.t1 - tau and self.t0 < self.t2 - tau):
            raise ValueError(
                "t0 must precede both retarded times t1 - L/c and t2 - L/c"
            )

    @property
    def retardation(self) -> float:
        """One-way signal crossing time between the stations."""
        return self.separation / self.signal_speed


@dataclass(frozen=True)
class Intervention:
    """An externally sourced setting change.

    The decision happens at ``decision_time``; the schedule actually
    changes at ``effect_time = decision_time + delay``.  The delay is
    the control knob that separates the two retarded-setting notions.
    """

    station: int
    decision_time: float
    delay: float
    new_label: SettingLabel
    source_tag: str = ""

    def __post_init__(self) -> None:
        if self.station not in (1, 2):
            raise ValueError("station must be 1 or 2")
        if not math.isfinite(self.decision_time):
            raise ValueError("decision time must be finite")
        if not math.isfinite(self.delay):
            raise ValueError("delay must be finite")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")

    @property
    def effect_time(self) -> float:
        return self.decision_time + self.delay


class InterventionStream:
    """Columnar store of interventions for one station.

    Equivalent to a list of :class:`Intervention` but holds numpy arrays
    so that schedules with millions of interventions stay cheap.  Rows
    are kept sorted by decision time.
    """

    def __init__(
        self,
        station: int,
        decision_times: np.ndarray,
        delays: Union[float, np.ndarray],
        label_indices: np.ndarray,
        labels: Sequence[SettingLabel],
        source_tags: Union[str, Sequence[str]] = "",
    ):
        self.station = int(station)
        decision_times = np.asarray(decision_times, dtype=np.float64)
        order = np.argsort(decision_times, kind="stable")
        self.decision_times = decision_times[order]
        if np.ndim(delays) == 0:
            self.delays: Union[float, np.ndarray] = float(delays)
        else:
            self.delays = np.asarray(delays, dtype=np.float64)[order]
        if not np.all(np.isfinite(self.decision_times)):
            raise ValueError("decision time must be finite")
        if not np.all(np.isfinite(self.delays)):
            raise ValueError("delay must be finite")
        if np.any(np.less(self.delays, 0)):
            raise ValueError("delay must be non-negative")
        self.effect_times = self.decision_times + self.delays
        self.label_indices = np.asarray(label_indices, dtype=np.int64)[order]
        self.labels = tuple(labels)
        if isinstance(source_tags, str):
            self.source_tags: Union[str, tuple[str, ...]] = source_tags
        else:
            self.source_tags = tuple(np.asarray(source_tags, dtype=object)[order])
        self.effects_monotone = bool(
            self.effect_times.size == 0 or np.all(np.diff(self.effect_times) >= 0)
        )

    def __len__(self) -> int:
        return int(self.decision_times.size)

    def delay_at(self, i: int) -> float:
        if np.ndim(self.delays) == 0:
            return float(self.delays)
        return float(self.delays[i])

    def tag_at(self, i: int) -> str:
        if isinstance(self.source_tags, str):
            return self.source_tags
        return self.source_tags[i]

    def to_interventions(self) -> tuple[Intervention, ...]:
        return tuple(
            Intervention(
                station=self.station,
                decision_time=float(self.decision_times[i]),
                delay=self.delay_at(i),
                new_label=self.labels[int(self.label_indices[i])],
                source_tag=self.tag_at(i),
            )
            for i in range(len(self))
        )

    @classmethod
    def from_interventions(
        cls, station: int, interventions: Sequence[Intervention]
    ) -> "InterventionStream":
        labels: list[SettingLabel] = []
        index_of: dict[str, int] = {}
        idxs = []
        for iv in interventions:
            if iv.station != station:
                raise ValueError(
                    f"intervention for station {iv.station} attached to station {station}"
                )
            if iv.new_label.id not in index_of:
                index_of[iv.new_label.id] = len(labels)
                labels.append(iv.new_label)
            idxs.append(index_of[iv.new_label.id])
        return cls(
            station=station,
            decision_times=np.array([iv.decision_time for iv in interventions]),
            delays=np.array([iv.delay for iv in interventions]),
            label_indices=np.array(idxs, dtype=np.int64),
            labels=labels,
            source_tags=[iv.source_tag for iv in interventions],
        )


class EqualityClass(Enum):
    """Per-trial classification of retarded-vs-actual setting equality."""

    BOTH_EQUAL = "both-equal"
    ONLY_1_EQUAL = "only-1-equal"
    ONLY_2_EQUAL = "only-2-equal"
    NEITHER_EQUAL = "neither-equal"


@dataclass(frozen=True)
class SettingSchedule:
    """Effective setting timeline for one station.

    ``initial`` holds from ``start``; ``switches`` is the deterministic
    base (strictly increasing times, each after ``start``); interventions
    override the base from their effect time until the next base switch
    or intervention effect.
    """

    station: int
    start: float
    initial: SettingLabel
    switches: tuple[tuple[float, SettingLabel], ...] = ()
    interventions: InterventionStream = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.station not in (1, 2):
            raise ValueError("station must be 1 or 2")
        switches = tuple((float(t), lbl) for t, lbl in self.switches)
        object.__setattr__(self, "switches", switches)
        prev = self.start
        for t, _ in switches:
            if t <= prev:
                raise ValueError("switch times must be strictly increasing after start")
            prev = t
        iv = self.interventions
        if iv is None:
            iv = InterventionStream.from_interventions(self.station, ())
        elif not isinstance(iv, InterventionStream):
            iv = InterventionStream.from_interventions(self.station, tuple(iv))
        elif iv.station != self.station:
            raise ValueError("intervention stream station does not match schedule")
        object.__setattr__(self, "interventions", iv)

    # ------------------------------------------------------------------
    # Compiled representations (built once, reused by vector lookups)
    # ------------------------------------------------------------------

    @cached_property
    def distinct_labels(self) -> tuple[SettingLabel, ...]:
        """All labels this schedule can produce, initial first."""
        labels = [self.initial]
        seen = {self.initial.id}
        for _, lbl in self.switches:
            if lbl.id not in seen:
                seen.add(lbl.id)
                labels.append(lbl)
        for lbl in self.interventions.labels:
            if lbl.id not in seen:
                seen.add(lbl.id)
                labels.append(lbl)
        return tuple(labels)

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {lbl.id: i for i, lbl in enumerate(self.distinct_labels)}

    @cached_property
    def _base(self) -> tuple[np.ndarray, np.ndarray]:
        """Base-only event times and the label index after each event."""
        times = np.array([t for t, _ in self.switches], dtype=np.float64)
        idx = np.array(
            [0] + [self._label_index[lbl.id] for _, lbl in self.switches],
            dtype=np.int64,
        )
        return times, idx

    @cached_property
    def _intervention_labels(self) -> np.ndarray:
        """Label index of each intervention, in decision order.  It lives as
        long as the schedule, so it takes the smallest unsigned dtype."""
        iv = self.interventions
        dtype = np.min_scalar_type(len(self.distinct_labels))
        labels = np.array([self._label_index[lbl.id] for lbl in iv.labels], dtype=dtype)
        return labels[iv.label_indices]

    @cached_property
    def _merged(self) -> tuple[np.ndarray, np.ndarray]:
        """Full effective timeline: event times and label-after indices.

        Ties sort base events before intervention effects so that a
        right-closed lookup lets the intervention win.
        """
        bt, bidx = self._base
        iv = self.interventions
        eff = iv.effect_times
        if len(iv) == 0:
            return bt, bidx
        ilab = self._intervention_labels
        if bt.size == 0:
            order = np.argsort(eff, kind="stable")
            return eff[order], np.concatenate(([0], ilab[order]))
        times = np.concatenate([bt, eff])
        labels = np.concatenate([bidx[1:], ilab])
        prio = np.concatenate([np.zeros(bt.size), np.ones(eff.size)])
        seq = np.arange(times.size)
        order = np.lexsort((seq, prio, times))
        return times[order], np.concatenate(([0], labels[order]))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def value_index_at(self, times: np.ndarray) -> np.ndarray:
        """Vector lookup; returns indices into :attr:`distinct_labels`."""
        times = np.asarray(times, dtype=np.float64)
        if times.size and float(times.min()) < self.start:
            raise UndefinedTimeError(
                f"time {times.min()} precedes the timeline start {self.start}"
            )
        ts, labels = self._merged
        return labels[np.searchsorted(ts, times, side="right")]

    def value_at(self, t: float) -> SettingLabel:
        """Effective label at time ``t`` (right-continuous)."""
        if t < self.start:
            raise UndefinedTimeError(
                f"time {t} precedes the timeline start {self.start} (station {self.station})"
            )
        ts, labels = self._merged
        k = int(np.searchsorted(ts, t, side="right"))
        return self.distinct_labels[int(labels[k])]

    def predictive_value_at(self, t_target: float, cutoff: float) -> SettingLabel:
        """Label at ``t_target`` of the timeline with late interventions dropped.

        Interventions whose decision time is after ``cutoff`` are removed;
        the base plus the surviving interventions is evaluated at
        ``t_target``.
        """
        k = self.predictive_index_at(np.array([t_target]), np.array([cutoff]))
        return self.distinct_labels[int(k[0])]

    def predictive_index_at(
        self, t_targets: np.ndarray, cutoffs: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`predictive_value_at`; returns label indices.

        Interventions are ranked by (effect time, decision order).  For a
        trial, the first ``pos`` ranks have taken effect by the target and
        the first ``jd`` decisions were made by the cutoff; the winner is
        the largest rank below ``pos`` whose decision index is below
        ``jd``, unless a later base switch is in force.  Binary lifting
        over a sparse table of range minima of the decision index finds
        it in O(log M) steps per trial, O((N + M) log M) in all.
        """
        t_targets = np.asarray(t_targets, dtype=np.float64)
        cutoffs = np.asarray(cutoffs, dtype=np.float64)
        if cutoffs.size and float(cutoffs.min()) < self.start:
            raise UndefinedTimeError(
                f"cutoff {cutoffs.min()} precedes the timeline start {self.start}"
            )
        if np.any(t_targets < cutoffs):
            raise ValueError("prediction target must not precede the cutoff")
        bt, bidx = self._base
        kb = np.searchsorted(bt, t_targets, side="right")
        base_label = bidx[kb]
        iv = self.interventions
        if len(iv) == 0:
            return base_label
        # stable sort: equal effect times keep decision order, so the
        # later decision ranks higher
        order = np.argsort(iv.effect_times, kind="stable").astype(np.int32)
        pos = np.searchsorted(iv.effect_times[order], t_targets, side="right")
        jd = np.searchsorted(iv.decision_times, cutoffs, side="right")
        # only trials whose latest effect was decided after the cutoff
        # search further back
        todo = np.flatnonzero((pos > 0) & (order[np.maximum(pos - 1, 0)] >= jd))
        p, j = pos[todo], jd[todo]
        # levels[k][r] = min(order[r : r + 2**k]); a jump never exceeds p,
        # so no longer level is needed.  Jump back over blocks decided
        # after the cutoff, longest first.
        levels = [order]
        while (1 << len(levels)) <= p.max(initial=0):
            prev, half = levels[-1], 1 << (len(levels) - 1)
            levels.append(np.minimum(prev[:-half], prev[half:]))
        for k in range(len(levels) - 1, -1, -1):
            start = p - (1 << k)
            jump = (start >= 0) & (levels[k][np.maximum(start, 0)] >= j)
            p = np.where(jump, start, p)
        pos[todo] = p
        winner = order[np.maximum(pos - 1, 0)]
        base_time = np.append(-np.inf, bt)[kb]
        # tie at the same instant -> intervention overrides the base switch
        use_iv = (pos > 0) & (iv.effect_times[winner] >= base_time)
        return np.where(use_iv, self._intervention_labels[winner], base_label)


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------


def value_at(schedule: SettingSchedule, t: float) -> SettingLabel:
    """Label of the effective timeline at ``t``."""
    return schedule.value_at(t)


def simple_retarded(
    schedule: SettingSchedule, t_meas: float, geometry: Geometry
) -> SettingLabel:
    """Far-station setting one light-crossing time before ``t_meas``."""
    return schedule.value_at(t_meas - geometry.retardation)


def predictive_retarded(
    schedule: SettingSchedule,
    t_target: float,
    t_observer_meas: float,
    geometry: Geometry,
) -> SettingLabel:
    """Far-station setting predicted for ``t_target`` from the observer's past cone.

    Only interventions decided no later than ``t_observer_meas - L/c``
    can have reached the observer, so later ones are discarded before
    the timeline is extrapolated to ``t_target``.
    """
    cutoff = t_observer_meas - geometry.retardation
    return schedule.predictive_value_at(t_target, cutoff)


def classify_trial(
    a: SettingLabel, a_r: SettingLabel, b: SettingLabel, b_r: SettingLabel
) -> EqualityClass:
    """Compare each station's actual setting with its retarded value (by id)."""
    eq1 = a.id == a_r.id
    eq2 = b.id == b_r.id
    if eq1 and eq2:
        return EqualityClass.BOTH_EQUAL
    if eq1:
        return EqualityClass.ONLY_1_EQUAL
    if eq2:
        return EqualityClass.ONLY_2_EQUAL
    return EqualityClass.NEITHER_EQUAL


# ----------------------------------------------------------------------
# Intervention stream files
# ----------------------------------------------------------------------

_STREAM_HEADER = ["station", "decision_time", "delay", "label", "source_tag"]


def load_interventions(
    path: Union[str, Path],
    palette: Mapping[str, SettingLabel],
    station: int | None = None,
) -> tuple[Intervention, ...]:
    """Read interventions from a CSV file.

    Expected header: ``station,decision_time,delay,label,source_tag``.
    Labels must resolve in ``palette``.  If ``station`` is given, rows
    for other stations are skipped.
    """
    path = Path(path)
    out: list[Intervention] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _STREAM_HEADER:
            raise StreamFormatError(
                f"{path}: expected header {','.join(_STREAM_HEADER)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 5:
                raise StreamFormatError(f"{path}:{lineno}: expected 5 columns")
            try:
                st = int(row[0])
                decision = float(row[1])
                delay = float(row[2])
            except ValueError as exc:
                raise StreamFormatError(f"{path}:{lineno}: {exc}") from None
            if st not in (1, 2):
                raise StreamFormatError(f"{path}:{lineno}: station must be 1 or 2")
            # the palette is this station's, so filter before the lookup
            if station is not None and st != station:
                continue
            label_id = row[3].strip()
            if label_id not in palette:
                raise StreamFormatError(
                    f"{path}:{lineno}: unknown label {label_id!r}"
                )
            try:
                out.append(
                    Intervention(
                        station=st,
                        decision_time=decision,
                        delay=delay,
                        new_label=palette[label_id],
                        source_tag=row[4].strip(),
                    )
                )
            except ValueError as exc:
                raise StreamFormatError(f"{path}:{lineno}: {exc}") from None
    return tuple(out)

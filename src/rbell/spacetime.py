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
from typing import Iterator, Mapping, Optional, Sequence, Union

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
    measurement quartets.  A NaN or infinite angle is rejected.
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
        value = -value if m.group("sign") == "-" else value
    else:
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"angle {text!r} is not finite")
    return value


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


def label_dtype(count: int) -> np.dtype:
    """The smallest unsigned dtype that indexes ``count`` labels: uint8 up
    to 255 labels.  Label columns and tables share it."""
    return np.min_scalar_type(count)


def _nondecreasing(values: np.ndarray) -> bool:
    """Whether ``values`` is already sorted; a stable sort of it is the identity."""
    return bool(np.all(values[1:] >= values[:-1]))


def _timing_fault(decision_time: float, delay: float) -> Optional[str]:
    """What is wrong with one intervention's timing, or None if nothing is."""
    if not math.isfinite(decision_time):
        return "decision time must be finite"
    if not math.isfinite(delay):
        return "delay must be finite"
    if delay < 0:
        return "delay must be non-negative"
    return None


class InterventionStream:
    """Columnar store of one station's externally sourced setting changes.

    Row ``i`` is decided at ``decision_times[i]`` and changes the
    schedule to ``labels[label_indices[i]]`` at ``effect_times[i]``, its
    decision time plus its delay.  The delay is the control knob that
    separates the two retarded-setting notions; ``delays`` is one value
    for every row (a 0-d array) or one per row.  Rows are kept sorted by
    decision time, and rows with equal decision times keep their given
    order; label indices take the smallest unsigned dtype.  The effect
    times are not stored: :attr:`effect_times` adds them up on first
    read, and a schedule's timeline adds them into its own array.
    """

    def __init__(
        self,
        station: int,
        decision_times: np.ndarray,
        delays: Union[float, np.ndarray],
        label_indices: np.ndarray,
        labels: Sequence[SettingLabel],
    ):
        self.station = int(station)
        decision_times = np.asarray(decision_times, dtype=np.float64)
        delays = np.asarray(delays, dtype=np.float64)
        label_indices = np.asarray(label_indices, dtype=np.int64)
        self.labels = tuple(labels)
        if not (
            decision_times.ndim == 1
            and label_indices.shape == decision_times.shape
            and delays.shape in ((), decision_times.shape)
        ):
            raise ValueError(
                "decision times, delays and label indices must be 1-d of one length"
            )
        if label_indices.size and not (
            0 <= label_indices.min() and label_indices.max() < len(self.labels)
        ):
            raise ValueError("intervention label index out of range")
        valid = np.isfinite(decision_times) & (delays >= 0) & (delays < np.inf)
        if not valid.all():
            i = int(np.argmin(valid))
            delay = delays[i] if delays.ndim else delays
            raise ValueError(_timing_fault(decision_times[i], delay))
        if not _nondecreasing(decision_times):
            order = np.argsort(decision_times, kind="stable")
            decision_times, label_indices = decision_times[order], label_indices[order]
            delays = delays[order] if delays.ndim else delays
        self.decision_times = decision_times
        self.delays = delays
        self.label_indices = label_indices.astype(label_dtype(len(self.labels)))

    def __len__(self) -> int:
        return int(self.decision_times.size)

    @cached_property
    def effect_times(self) -> np.ndarray:
        """Each row's decision time plus its delay, in row order."""
        return self.decision_times + self.delays


class SwitchTable:
    """Columnar store of a schedule's base switches.

    Equivalent to a sequence of ``(time, label)`` pairs, which is what
    ``len()`` and iteration give, but holds numpy arrays so that a
    periodic base with hundreds of thousands of switches stays cheap.
    Switch ``i`` sets ``labels[label_indices[i]]`` at ``times[i]``;
    ``labels`` may repeat a label.
    """

    def __init__(
        self,
        times: np.ndarray,
        label_indices: np.ndarray,
        labels: Sequence[SettingLabel],
    ):
        self.times = np.asarray(times, dtype=np.float64)
        self.label_indices = np.asarray(label_indices, dtype=np.int64)
        self.labels = tuple(labels)
        if self.times.ndim != 1 or self.label_indices.shape != self.times.shape:
            raise ValueError("switch times and label indices must be 1-d of one length")
        if self.label_indices.size and not (
            0 <= self.label_indices.min() and self.label_indices.max() < len(self.labels)
        ):
            raise ValueError("switch label index out of range")

    def __len__(self) -> int:
        return int(self.times.size)

    def __iter__(self) -> Iterator[tuple[float, SettingLabel]]:
        for t, i in zip(self.times.tolist(), self.label_indices.tolist()):
            yield t, self.labels[i]

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, SettingLabel]]) -> "SwitchTable":
        pairs = tuple(pairs)
        labels = tuple(lbl for _, lbl in pairs)
        return cls(
            times=np.array([t for t, _ in pairs], dtype=np.float64),
            label_indices=np.arange(len(pairs)),
            labels=labels,
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
    base, a :class:`SwitchTable` with finite, strictly increasing times,
    each after ``start`` (a sequence of ``(time, label)`` pairs is
    converted); ``interventions``, an :class:`InterventionStream` of the
    same station or None for none, override the base from their effect
    time until the next base switch or intervention effect.
    """

    station: int
    start: float
    initial: SettingLabel
    switches: SwitchTable = ()  # type: ignore[assignment]
    interventions: InterventionStream = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.station not in (1, 2):
            raise ValueError("station must be 1 or 2")
        sw = self.switches
        if not isinstance(sw, SwitchTable):
            sw = SwitchTable.from_pairs(sw)
            object.__setattr__(self, "switches", sw)
        if not np.all(np.isfinite(sw.times)):
            raise ValueError("switch times must be finite")
        if len(sw) and not (sw.times[0] > self.start and np.all(np.diff(sw.times) > 0)):
            raise ValueError("switch times must be strictly increasing after start")
        iv = self.interventions
        if iv is None:
            iv = InterventionStream(self.station, (), 0.0, (), ())
            object.__setattr__(self, "interventions", iv)
        elif not isinstance(iv, InterventionStream):
            raise TypeError("interventions must be an InterventionStream or None")
        elif iv.station != self.station:
            raise ValueError("intervention stream station does not match schedule")

    # ------------------------------------------------------------------
    # Compiled representations (built once, reused by vector lookups)
    # ------------------------------------------------------------------

    @cached_property
    def distinct_labels(self) -> tuple[SettingLabel, ...]:
        """All labels this schedule can produce, initial first."""
        labels = [self.initial]
        seen = {self.initial.id}
        sw = self.switches
        _, first = np.unique(sw.label_indices, return_index=True)
        for i in sw.label_indices[np.sort(first)].tolist():
            lbl = sw.labels[i]
            if lbl.id not in seen:
                seen.add(lbl.id)
                labels.append(lbl)
        for lbl in self.interventions.labels:
            if lbl.id not in seen:
                seen.add(lbl.id)
                labels.append(lbl)
        return tuple(labels)

    def _event_times(self) -> np.ndarray:
        """Every event's time before ranking: the initial label at -inf, the
        base switches, then the intervention effects, their delays added in
        place."""
        sw, iv = self.switches, self.interventions
        times = np.concatenate(([-np.inf], sw.times, iv.decision_times))
        times[1 + len(sw):] += iv.delays
        return times

    @cached_property
    def _events(self) -> tuple[np.ndarray, np.ndarray]:
        """Every event in rank order: its time and the label index it sets.

        Event 0 is the initial label at -inf; the base switches and then the
        intervention effects follow.  One stable sort ranks them, and it is
        the whole tie policy: at equal times base switches rank before
        interventions and interventions keep decision order, so the
        later-ranked event is in force; events already in time order skip
        the sort.  The arrays live as long as the schedule, so labels take
        the smallest unsigned dtype.
        """
        sw, iv = self.switches, self.interventions
        dtype = label_dtype(len(self.distinct_labels))
        index = {lbl.id: i for i, lbl in enumerate(self.distinct_labels)}
        # a label no switch sets is not distinct; its entry is never read
        sw_labels = np.array([index.get(lbl.id, 0) for lbl in sw.labels], dtype=dtype)
        iv_labels = np.array([index[lbl.id] for lbl in iv.labels], dtype=dtype)
        times = self._event_times()
        labels = np.concatenate(
            (np.zeros(1, dtype), sw_labels[sw.label_indices], iv_labels[iv.label_indices])
        )
        if _nondecreasing(times):
            return times, labels
        order = np.argsort(times, kind="stable")
        return times[order], labels[order]

    @cached_property
    def _decisions(self) -> np.ndarray:
        """Each ranked event's decision index (int32): -1 for the initial
        label and the base switches, the row for an intervention.  Only the
        predictive lookup reads it, so it is built, and the events ranked
        again, on its first call."""
        sw, iv = self.switches, self.interventions
        decisions = np.concatenate(
            (np.full(1 + len(sw), -1, np.int32), np.arange(len(iv), dtype=np.int32))
        )
        times = self._event_times()
        if _nondecreasing(times):
            return decisions
        return decisions[np.argsort(times, kind="stable")]

    @property
    def _timeline(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ranked events' times, decision indices and labels."""
        times, labels = self._events
        return times, self._decisions, labels

    def _require_defined(self, name: str, values: np.ndarray) -> None:
        """Raise :class:`UndefinedTimeError` unless every value is at or
        after the start; NaN propagates through ``min``, so the one pass
        also refuses NaN."""
        low = values.min(initial=np.inf)
        if not low >= self.start:
            if np.isnan(low):
                raise UndefinedTimeError(f"{name} {low} is not a number")
            raise UndefinedTimeError(f"{name} {low} precedes the timeline start {self.start}")

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def value_index_at(self, times: np.ndarray) -> np.ndarray:
        """Vector lookup; returns indices into :attr:`distinct_labels`."""
        times = np.asarray(times, dtype=np.float64)
        self._require_defined("time", times)
        ts, labels = self._events
        return labels[np.searchsorted(ts, times, side="right") - 1]

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

        For a trial, the first ``pos`` ranks of the timeline have taken
        effect by the target and the first ``jd`` decisions were made by
        the cutoff; the winner is the largest rank below ``pos`` whose
        decision index is below ``jd``.  Base events (index -1) always
        qualify, so the initial label at rank 0 ends every search.  Binary
        lifting over a sparse table of range minima of the decision index
        finds the winner in O(log E) steps per trial for E base switches
        and interventions, O((N + E) log E) in all.
        """
        t_targets = np.asarray(t_targets, dtype=np.float64)
        cutoffs = np.asarray(cutoffs, dtype=np.float64)
        self._require_defined("cutoff", cutoffs)
        if np.any(t_targets < cutoffs):
            raise ValueError("prediction target must not precede the cutoff")
        # a target at or after its cutoff is defined; this refuses NaN
        self._require_defined("target", t_targets)
        ts, decisions, labels = self._timeline
        pos = np.searchsorted(ts, t_targets, side="right")
        jd = np.searchsorted(self.interventions.decision_times, cutoffs, side="right")
        # only trials whose latest event was decided after the cutoff
        # search further back
        todo = np.flatnonzero(decisions[pos - 1] >= jd)
        p, j = pos[todo], jd[todo]
        # levels[k][r] = min(decisions[r : r + 2**k]); a jump never
        # exceeds p, so no longer level is needed.  Jump back over blocks
        # decided after the cutoff, longest first.
        levels = [decisions]
        while (1 << len(levels)) <= p.max(initial=0):
            prev, half = levels[-1], 1 << (len(levels) - 1)
            levels.append(np.minimum(prev[:-half], prev[half:]))
        for k in range(len(levels) - 1, -1, -1):
            start = p - (1 << k)
            # a block clipped to rank 0 holds the initial label's -1 and
            # never jumps
            jump = levels[k][np.maximum(start, 0)] >= j
            p = np.where(jump, start, p)
        pos[todo] = p
        return labels[pos - 1]


# ----------------------------------------------------------------------
# Stream files
# ----------------------------------------------------------------------

_STREAM_HEADER = ["station", "decision_time", "delay", "label", "source_tag"]


def load_interventions(
    path: Union[str, Path], palette: Mapping[str, SettingLabel], station: int
) -> InterventionStream:
    """Read one station's interventions from a CSV file in one pass.

    Expected header: ``station,decision_time,delay,label,source_tag``.
    Every row is checked for its column count, station, and decision
    time and delay; only the rows of ``station`` are kept, and only
    their labels are looked up, in ``palette``.  The source tag is read
    and ignored.  A fault is one :class:`StreamFormatError` naming the
    file and line.
    """
    path = Path(path)
    decisions: list[float] = []
    delays: list[float] = []
    picks: list[int] = []
    labels: list[SettingLabel] = []
    index_of: dict[str, int] = {}

    def fault(lineno: int, message: object) -> StreamFormatError:
        return StreamFormatError(f"{path}:{lineno}: {message}")

    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _STREAM_HEADER:
            raise StreamFormatError(
                f"{path}: expected header {','.join(_STREAM_HEADER)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            # a blank row has the wrong column count or no station, so it
            # is looked for only then
            if len(row) != 5:
                if not "".join(row).strip():
                    continue
                raise fault(lineno, "expected 5 columns")
            try:
                st = int(row[0])
                decision = float(row[1])
                delay = float(row[2])
            except ValueError as exc:
                if not "".join(row).strip():
                    continue
                raise fault(lineno, exc) from None
            if st not in (1, 2):
                raise fault(lineno, "station must be 1 or 2")
            if st == station:
                label_id = row[3].strip()
                k = index_of.get(label_id)
                if k is None:
                    if label_id not in palette:
                        raise fault(lineno, f"unknown label {label_id!r}")
                    k = index_of[label_id] = len(labels)
                    labels.append(palette[label_id])
            problem = _timing_fault(decision, delay)
            if problem:
                raise fault(lineno, problem)
            if st == station:
                decisions.append(decision)
                delays.append(delay)
                picks.append(k)
    return InterventionStream(station, decisions, delays, picks, labels)

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
    one-way light-crossing time.  ``t0`` is the instant at which the
    shared hidden state is fixed.  The measurement times belong to the
    run (``ScenarioConfig.start`` and ``spacing``), which checks that
    ``t0`` precedes the first of them less L/c.
    """

    separation: float
    signal_speed: float
    t0: float

    def __post_init__(self) -> None:
        for name in ("separation", "signal_speed", "t0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.separation <= 0:
            raise ValueError("separation must be positive")
        if self.signal_speed <= 0:
            raise ValueError("signal_speed must be positive")

    @property
    def retardation(self) -> float:
        """One-way signal crossing time between the stations."""
        return self.separation / self.signal_speed


def label_dtype(count: int) -> np.dtype:
    """The smallest unsigned dtype that indexes ``count`` labels: uint8 up
    to 255 labels.  Label columns and tables share it."""
    return np.min_scalar_type(count)


def as_label_indices(values, size: int, what: str) -> np.ndarray:
    """``values`` as indices into ``size`` labels, in :func:`label_dtype`.
    An index outside ``[0, size)`` raises a ``ValueError`` that begins
    with ``what`` before any cast; every label column goes through here."""
    values = np.asarray(values)
    if values.size and not (0 <= values.min() and values.max() < size):
        raise ValueError(f"{what} index out of range for a palette of {size}")
    return values.astype(label_dtype(size), copy=False)


#: Base switches read per step of the scan for a schedule's labels.
_SCAN_CHUNK = 8192

#: Targets per block of the predictive lookup, unless the window of the
#: block before reached further below it.  A block's float64 lifting
#: levels span its ranks (two a target on a random-switching schedule)
#: and those back to the rank in force at its smallest late cutoff, so
#: with short late runs it works in about 170 bytes a target, 0.35 MiB.
#: Predictive settings at 2e4 trials then peak at 1.62 MiB against
#: 1.43 MiB for the simple ones; with 4096 targets a block they peaked
#: at 1.6x the simple peak, and with ``BLOCK_SIZE`` at 3x, as high as a
#: table over every rank.
_LOOKUP_BLOCK = 2048


#: Targets per merge of the rank search (:func:`_ranks`).  A merge works
#: in about 24 bytes for each target and each event of its window.  A
#: 2e4-trial random-switching run peaked at 83.1 traced bytes a trial
#: with this, against 82.5 with a binary search per target and 99.4 with
#: 8192 targets a merge, which ranked 2e6 targets only 4-5% faster.
_MERGE_CHUNK = 4096


def _nondecreasing(values: np.ndarray) -> bool:
    """Whether ``values`` is already sorted; a stable sort of it is the identity."""
    return bool(np.all(values[1:] >= values[:-1]))


def _ranks(times: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """How many of the sorted ``times`` are at or before each target, as
    ``np.searchsorted(times, targets, side="right")`` counts them.

    The targets are taken in time order, ``_MERGE_CHUNK`` at a time; two
    scalar searches slice the window of times that a chunk spans, and one
    stable argsort merges the two sorted runs in linear time.  The window
    goes first, so a time equal to a target is counted before it, and a
    target's rank is its merged position, less its place in the chunk,
    plus the window start.  So N targets over E times cost O(N + E), not
    a binary search per target.  Targets out of time order are sorted by
    one stable argsort, and their ranks scattered back.
    """
    order = None if _nondecreasing(targets) else np.argsort(targets, kind="stable")
    if order is not None:
        targets = targets[order]
    n = targets.size
    ranks = np.empty(n, np.intp)
    places = np.arange(min(n, _MERGE_CHUNK))
    for lo in range(0, n, _MERGE_CHUNK):
        chunk = targets[lo:lo + _MERGE_CHUNK]
        first, last = np.searchsorted(times, chunk[[0, -1]], side="right").tolist()
        merged = np.argsort(np.concatenate((times[first:last], chunk)), kind="stable")
        out = ranks[lo:lo + chunk.size]
        np.subtract(np.flatnonzero(merged >= last - first), places[:chunk.size], out=out)
        out += first
    if order is None:
        return ranks
    scattered = np.empty_like(ranks)
    scattered[order] = ranks
    return scattered


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
        self.labels = tuple(labels)
        if not (
            decision_times.ndim == 1
            and np.shape(label_indices) == decision_times.shape
            and delays.shape in ((), decision_times.shape)
        ):
            raise ValueError(
                "decision times, delays and label indices must be 1-d of one length"
            )
        label_indices = as_label_indices(label_indices, len(self.labels), "intervention label")
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
        self.label_indices = label_indices

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
    ``labels`` may repeat a label, and label indices take the smallest
    unsigned dtype.
    """

    def __init__(
        self,
        times: np.ndarray,
        label_indices: np.ndarray,
        labels: Sequence[SettingLabel],
    ):
        self.times = np.asarray(times, dtype=np.float64)
        self.labels = tuple(labels)
        if self.times.ndim != 1 or np.shape(label_indices) != self.times.shape:
            raise ValueError("switch times and label indices must be 1-d of one length")
        self.label_indices = as_label_indices(label_indices, len(self.labels), "switch label")

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
        """All labels this schedule can produce, initial first, then the
        switches' in the order they are first set and the interventions'.
        The switches are scanned ``_SCAN_CHUNK`` at a time, and the scan
        stops once every id of the switch labels has been seen."""
        labels = {self.initial.id: self.initial}
        sw = self.switches
        ids = {self.initial.id} | {lbl.id for lbl in sw.labels}
        for lo in range(0, len(sw), _SCAN_CHUNK):
            if len(labels) == len(ids):
                break
            values, first = np.unique(sw.label_indices[lo:lo + _SCAN_CHUNK], return_index=True)
            for i in values[np.argsort(first)].tolist():
                labels.setdefault(sw.labels[i].id, sw.labels[i])
        for lbl in self.interventions.labels:
            labels.setdefault(lbl.id, lbl)
        return tuple(labels.values())

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
        again, on its first call.  Switches are increasing and one common
        delay keeps the effects in decision order, so then the events are
        in time order unless the seam between the two is not."""
        sw, iv = self.switches, self.interventions
        decisions = np.arange(-1 - len(sw), len(iv), dtype=np.int32)
        np.maximum(decisions, -1, out=decisions)
        if not iv.delays.ndim and not (
            len(sw) and len(iv) and sw.times[-1] > iv.decision_times[0] + iv.delays
        ):
            return decisions
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
        pos = _ranks(ts, times)
        pos -= 1
        return labels[pos]

    def predictive_value_at(self, t_target: float, cutoff: float) -> SettingLabel:
        """Label at ``t_target`` of the timeline with late interventions dropped.

        Interventions whose decision time is after ``cutoff`` are removed;
        the base plus the surviving interventions is evaluated at
        ``t_target``.
        """
        _, k = self.predictive_index_at(np.array([t_target]), np.array([cutoff]))
        return self.distinct_labels[int(k[0])]

    def predictive_index_at(
        self, t_targets: np.ndarray, cutoffs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized lookup of both columns a predictive run reads: returns
        ``(actual, predictive)`` label indices, the label in force at each
        target and :meth:`predictive_value_at`'s label.  Targets and
        cutoffs are 1-d of one length.

        One rank search serves both: :func:`_ranks` merges the targets, in
        time order, with the ranked events, so the first ``pos`` ranks of
        the timeline have taken effect by a target and rank ``pos - 1``
        holds its actual label.  That event is late when its decision index
        ``d`` is at least 0 and ``decision_times[d]`` is after the cutoff,
        which one gather tests; every other trial's predictive label is its
        actual one.  A late trial's winner is the largest rank below
        ``pos`` whose event was not decided after the cutoff.  The ranked
        targets are taken ``_LOOKUP_BLOCK`` at a time, and galloping binary
        lifting (:func:`_gallop`) finds the winners of a block's late
        trials.  Delays are never negative, so an event that took effect by
        a cutoff was decided by it: the event in force at the block's
        smallest late cutoff qualifies for every late trial, and the window
        of ranks it lifts over starts there.  A block whose window reached
        further below it than it holds targets makes the next block at
        least that long.  For N targets, E base switches and interventions
        and jumps of at most J ranks, the rank search takes O(N + E) time
        and the lifting O((N + E) log J) time and O(window log J) memory
        for the window of one block.
        """
        t_targets = np.asarray(t_targets, dtype=np.float64)
        cutoffs = np.asarray(cutoffs, dtype=np.float64)
        if t_targets.ndim != 1 or cutoffs.shape != t_targets.shape:
            raise ValueError("targets and cutoffs must be 1-d of one length")
        self._require_defined("cutoff", cutoffs)
        if np.any(t_targets < cutoffs):
            raise ValueError("prediction target must not precede the cutoff")
        # a target at or after its cutoff is defined; this refuses NaN
        self._require_defined("target", t_targets)
        n = t_targets.size
        order = None if _nondecreasing(t_targets) else np.argsort(t_targets, kind="stable")
        ts, labels = self._events
        # each target's event in force, the targets in time order
        pos = _ranks(ts, t_targets if order is None else t_targets[order])
        pos -= 1
        actual, predictive = np.empty(n, labels.dtype), np.empty(n, labels.dtype)
        start, size = 0, _LOOKUP_BLOCK
        while start < n:
            block = slice(start, start + size)
            rows = block if order is None else order[block]
            actual[rows], predictive[rows], reach = self._predictive_block(
                pos[block], cutoffs[rows]
            )
            start += size
            size = max(size, reach)
        return actual, predictive

    def _predictive_block(
        self, pos: np.ndarray, cutoffs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """:meth:`predictive_index_at` for targets in time order, given the
        rank ``pos`` of each one's event in force, and how many ranks below
        the block's lowest its lifting window reached (0 without one)."""
        ts, decisions, labels = self._timeline
        decision_times = self.interventions.decision_times
        actual = labels[pos]
        if not decision_times.size:
            return actual, actual, 0
        d = decisions[pos]
        # d = -1 reads the last decision time; the second test drops it
        late = decision_times[d] > cutoffs
        late &= d >= 0
        late = np.flatnonzero(late)
        if not late.size:
            return actual, actual, 0
        ranks, cutoffs = pos[late], cutoffs[late]
        # the event in force at the smallest cutoff took effect, and so was
        # decided, by every cutoff: the window's first rank qualifies for all
        lo = int(np.searchsorted(ts, cutoffs.min(), side="right")) - 1
        window = decisions[lo:int(ranks[-1]) + 1]
        times = decision_times[window]
        times[window < 0] = -np.inf
        winners = _gallop(times, ranks + (1 - lo), cutoffs)
        winners += lo - 1
        predictive = actual.copy()
        predictive[late] = labels[winners]
        return actual, predictive, int(pos[0]) - lo


def _gallop(times: np.ndarray, q: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
    """The predictive winners of late trials over one window of ranks.

    ``times`` is each ranked event's decision time, -inf for a base event,
    and its first entry is at or before every cutoff.  ``q`` counts
    each trial's ranks up to its late event in force, nondecreasing; it is
    turned in place into the winner's rank plus one, the winner being the
    largest rank below whose event was not decided after the cutoff.

    ``levels[k][r]`` is ``min(times[r : r + 2**k])``.  Level k is kept
    only if some trial's whole block of 2**k ranks before it was decided
    late (level 0, one rank, is late for every trial), so the top level K
    has 2**K <= J < 2**(K + 1) for the longest jump J.  The descent then
    jumps back over late blocks, longest first.  A block clipped to the
    window's first rank holds that entry and never jumps.
    """
    levels = [times]
    hit = np.ones(q.size, dtype=bool)
    while True:
        size = 2 << (len(levels) - 1)
        if size > q[-1]:
            break  # every block of this size reaches the window's first rank
        prev, half = levels[-1], size >> 1
        level = np.minimum(prev[:-half], prev[half:])
        start = q - size
        np.maximum(start, 0, out=start)
        longer = level[start] > cutoffs
        if not longer.any():
            break
        levels.append(level)
        hit = longer
    # the top level's jumps are known; descend through the rest.  A jump
    # is subtracted as a shifted 0/1, which beats a masked copy of
    # unpredictable masks
    top = len(levels) - 1
    q -= hit.astype(q.dtype) << top
    for k in range(top - 1, -1, -1):
        start = q - (1 << k)
        np.maximum(start, 0, out=start)
        q -= (levels[k][start] > cutoffs).astype(q.dtype) << k
    return q


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

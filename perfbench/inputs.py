"""Seeded input generator: every config and stream file a workload reads.

All randomness comes from ``--seed``: the generator derives one config
seed per leg and draws the intervention streams, so the same seed gives
byte-identical files.  The program only ever sees the files written
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Trials of the ``rbell run`` in run-audit.
AUDIT_TRIALS = 200_000
#: Trials of each array-backed leg (1 to 3) of scenario-sweep.
LEG_TRIALS = 250_000
#: Trials of the stream leg, and interventions per station.  Kept small
#: because the predictive lookup on non-monotone effect times loops over
#: every trial and every intervention.
STREAM_TRIALS = 1_500
STREAM_INTERVENTIONS = 1_500
#: Delays of the stream leg, as multiples of L/c; mixing them makes the
#: effect times non-monotone in decision order.
STREAM_DELAYS = (0.0, 0.5, 1.5, 3.0)
#: Decision times sit on this grid so that equal decision and effect
#: times (the tie rules) occur.
STREAM_GRID = 0.25
#: Monte Carlo trials per cell of the ``analytic --n`` call.
MC_TRIALS = 2_000_000

STATION1 = "a=pi/2, a2=0"
STATION2 = "b=-pi/4, b2=pi/4"
LABELS1 = ("a", "a2")
LABELS2 = ("b", "b2")

# Parameters follow configs/fast_random_switching.ini,
# configs/periodic_aspect_style.ini and configs/delay_control.ini.
RANDOM_SWITCHING = """\
[geometry]
separation = 4.0
signal_speed = 1.0
t0 = -6.0

[model]
name = hardy-singlet

[station1]
labels = {station1}
schedule = random_switch
rate = 2.0

[station2]
labels = {station2}
schedule = random_switch
rate = 2.0

[run]
n_trials = {n}
spacing = 1.0
start = 0.0
seed = {seed}
retarded_definition = simple
quartet = a, a2, b, b2
min_count = 100
"""

PERIODIC = """\
[geometry]
separation = 1.0
signal_speed = 1.0
t0 = -3.0

[model]
name = {model}

[station1]
labels = {station1}
schedule = periodic
period = 0.5
phase = 0.0
cycle = a, a2

[station2]
labels = {station2}
schedule = periodic
period = 0.5
phase = 0.25
cycle = b, b2

[run]
n_trials = {n}
spacing = 0.35
start = 0.0
seed = {seed}
retarded_definition = simple
quartet = a, a2, b, b2
min_count = 100
"""

DELAY_CONTROL = """\
[geometry]
separation = 1.0
signal_speed = 1.0
t0 = -3.0

[model]
name = hardy-singlet

[station1]
labels = {station1}
schedule = random_switch
rate = 3.0

[station2]
labels = {station2}
schedule = random_switch
rate = 3.0

[run]
n_trials = {n}
spacing = 0.35
start = 0.0
seed = {seed}
retarded_definition = predictive
intervention_delay = 1.5
quartet = a, a2, b, b2
min_count = 100
"""

STREAM = """\
[geometry]
separation = 1.0
signal_speed = 1.0
t0 = -4.0

[model]
name = hardy-singlet

[station1]
labels = {station1}
schedule = stream
file = stream1.csv
base = a

[station2]
labels = {station2}
schedule = stream
file = stream2.csv
base = b

[run]
n_trials = {n}
spacing = 1.0
start = 0.0
seed = {seed}
retarded_definition = predictive
quartet = a, a2, b, b2
min_count = 10
"""

#: Light-crossing time, start and base labels of the stream leg (from STREAM).
STREAM_TAU = 1.0
STREAM_T0 = -4.0
STREAM_BASES = {1: "a", 2: "b"}


@dataclass(frozen=True)
class StreamRow:
    """One generated intervention, in file order."""

    decision: float
    delay: float
    label: str


@dataclass
class Inputs:
    """Paths and parameters of one seed's generated inputs."""

    seed: int
    root: Path
    audit_config: Path = None
    legs: list[tuple[str, Path, int]] = field(default_factory=list)
    streams: dict[int, list[StreamRow]] = field(default_factory=dict)
    seeds: dict[str, int] = field(default_factory=dict)

    def describe(self) -> dict:
        """Resolved sizes and derived seeds, for the report."""
        return {
            "audit_trials": AUDIT_TRIALS,
            "leg_trials": {name: n for name, _, n in self.legs},
            "stream_interventions_per_station": STREAM_INTERVENTIONS,
            "stream_delays_Lc": list(STREAM_DELAYS),
            "mc_trials_per_cell": MC_TRIALS,
            "seeds": dict(self.seeds),
        }


def _stream_rows(rng: np.random.Generator, labels: tuple[str, ...],
                 last: float) -> list[StreamRow]:
    steps = int((last - STREAM_T0) / STREAM_GRID)
    decisions = STREAM_T0 + STREAM_GRID * rng.integers(0, steps + 1, STREAM_INTERVENTIONS)
    delays = STREAM_TAU * np.asarray(STREAM_DELAYS)[
        rng.integers(0, len(STREAM_DELAYS), STREAM_INTERVENTIONS)
    ]
    picks = rng.integers(0, len(labels), STREAM_INTERVENTIONS)
    return [StreamRow(float(d), float(w), labels[int(k)])
            for d, w, k in zip(decisions, delays, picks)]


def write_stream(path: Path, station: int, rows: list[StreamRow]) -> None:
    lines = ["station,decision_time,delay,label,source_tag"]
    lines += [f"{station},{r.decision!r},{r.delay!r},{r.label},bench" for r in rows]
    path.write_text("\n".join(lines) + "\n")


def generate(seed: int, outdir: Path) -> Inputs:
    """Write every input of every workload for ``seed`` under ``outdir``."""
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5EED]))
    names = ("audit", "random_switching", "periodic_quantum", "delay_control",
             "mixed_delay_stream", "analytic", "verify", "oracle")
    seeds = dict(zip(names, (int(s) for s in rng.integers(0, 2**31 - 1, size=len(names)))))
    inputs = Inputs(seed=seed, root=outdir, seeds=seeds)
    fmt = {"station1": STATION1, "station2": STATION2}

    inputs.audit_config = outdir / "audit.ini"
    inputs.audit_config.write_text(
        RANDOM_SWITCHING.format(n=AUDIT_TRIALS, seed=seeds["audit"], **fmt))

    legs = [
        ("random_switching", RANDOM_SWITCHING, {}, LEG_TRIALS),
        ("periodic_quantum", PERIODIC, {"model": "quantum-singlet"}, LEG_TRIALS),
        ("delay_control", DELAY_CONTROL, {}, LEG_TRIALS),
        ("mixed_delay_stream", STREAM, {}, STREAM_TRIALS),
    ]
    for name, template, extra, n in legs:
        path = outdir / f"leg_{name}.ini"
        path.write_text(template.format(n=n, seed=seeds[name], **fmt, **extra))
        inputs.legs.append((name, path, n))

    stream_rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x57E4]))
    last = (STREAM_TRIALS - 1) * 1.0
    for station, labels in ((1, LABELS1), (2, LABELS2)):
        rows = _stream_rows(stream_rng, labels, last)
        effects = [r.decision + r.delay for r in sorted(rows, key=lambda r: r.decision)]
        if all(x <= y for x, y in zip(effects, effects[1:])):
            raise RuntimeError("generated stream has monotone effect times")
        # One file per station: load_interventions checks the label
        # against the station's palette before it filters rows by
        # station, so a shared two-station file is rejected.
        write_stream(outdir / f"stream{station}.csv", station, rows)
        inputs.streams[station] = rows
    return inputs

"""The benchmark's predictive oracle against rbell's scalar lookup."""

import numpy as np
import pytest

from perfbench.oracle import predictive_label
from rbell.spacetime import InterventionStream, SettingLabel, SettingSchedule

LABELS = [SettingLabel("x", 0.0), SettingLabel("y", 1.0), SettingLabel("z", 2.0)]
START = -2.0
GRID = 0.5  # coarse times make equal decision, effect and switch times common


def random_schedule(rng):
    n_switch = int(rng.integers(0, 4))
    switch_times = np.unique(START + GRID * rng.integers(1, 16, n_switch))
    switches = tuple((float(t), LABELS[int(rng.integers(0, 3))]) for t in switch_times)
    m = int(rng.integers(0, 12))
    decisions = START + GRID * rng.integers(0, 14, m)
    delays = GRID * rng.integers(0, 3, m)  # includes zero delays
    picks = rng.integers(0, 3, m)
    stream = InterventionStream(1, decisions, delays, picks, LABELS)
    schedule = SettingSchedule(1, START, LABELS[0], switches, stream)
    return schedule, switches, decisions, delays, [LABELS[int(k)].id for k in picks]


@pytest.mark.parametrize("seed", range(40))
def test_oracle_matches_predictive_value_at(seed):
    rng = np.random.default_rng(seed)
    schedule, switches, decisions, delays, labels = random_schedule(rng)
    base = [(t, lbl.id) for t, lbl in switches]
    for _ in range(30):
        cutoff = START + GRID * int(rng.integers(0, 14))
        target = cutoff + GRID * int(rng.integers(0, 6))
        want = schedule.predictive_value_at(target, cutoff).id
        got = predictive_label("x", base, decisions, delays, labels, target, cutoff)
        assert got == want, (target, cutoff)


def test_equal_effect_later_decision_then_later_row_wins():
    decisions = np.array([1.0, 0.0, 1.0])
    delays = np.array([0.0, 1.0, 0.0])
    # all three take effect at 1.0; rows 0 and 2 share the latest decision
    assert predictive_label("x", (), decisions, delays, ["y", "z", "w"], 1.0, 1.0) == "w"
    # a cutoff before 1.0 leaves only the row decided at 0.0
    assert predictive_label("x", (), decisions, delays, ["y", "z", "w"], 1.0, 0.5) == "z"
    # an intervention beats a base switch at the same instant
    assert predictive_label("x", [(1.0, "s")], decisions, delays, ["y", "z", "w"], 1.0, 0.5) == "z"
    assert predictive_label("x", [(1.5, "s")], decisions, delays, ["y", "z", "w"], 2.0, 1.0) == "s"

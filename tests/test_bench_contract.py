"""The names the benchmark's traced runs read must exist in rbell.

``perfbench/layers.py`` reads spans of rbell callables by name (its
metric table) and counts work at some of them (its hook table).  A name
that disappears from rbell makes a metric read as absent without
failing any run, so its deletion is caught here.  Nothing under
``perfbench`` is changed.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.layers import SPAN_METRICS, new_tracer  # noqa: E402
from perfbench.spans import PACKAGE  # noqa: E402

READS = sorted({name for metric in SPAN_METRICS for name in metric.reads})
HOOKS = sorted(new_tracer().hooks)

#: Argument names the hooks bind, by traced name.
HOOK_ARGUMENTS = {
    "spacetime.SettingSchedule.value_index_at": "times",
    "spacetime.SettingSchedule.predictive_index_at": "t_targets",
    "estimation.write_trial_log": "path",
    "estimation.map_blocks": "fn",
    "estimation.mc_E": "n",
    "models.hardy_outcome_A": "lam",
    "models.quantum_sample_pairs": "n",
}


def resolve(name: str):
    """The rbell object a traced name stands for: ``layer.function`` or
    ``layer.Class.method``, defined (not imported) in that layer."""
    layer, *path = name.split(".")
    module = importlib.import_module(f"{PACKAGE}.{layer}")
    obj = getattr(module, path[0])
    assert obj.__module__ == module.__name__, f"{name} is imported, not defined, in {layer}"
    for attr in path[1:]:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("name", sorted(set(READS) | set(HOOKS)))
def test_traced_name_is_a_public_rbell_callable(name):
    assert not any(part.startswith("_") for part in name.split("."))
    assert callable(resolve(name))


@pytest.mark.parametrize("name,argument", sorted(HOOK_ARGUMENTS.items()))
def test_hooked_callable_keeps_the_argument_its_hook_binds(name, argument):
    assert name in HOOKS
    assert argument in inspect.signature(resolve(name)).parameters


def test_table_cells_carry_what_the_table_hook_counts():
    from rbell.estimation import TrialLog, build_table
    from rbell.spacetime import SettingLabel

    log = TrialLog([SettingLabel("a", 0.0)], [0.0], [0.0], [0], [0], [0], [0], [1], [-1])
    cells = list(build_table(log, min_count=1).cells.values())
    assert len(cells) == 1 and cells[0].sufficient is True

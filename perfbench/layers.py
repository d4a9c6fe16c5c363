"""Per-layer metrics of a traced run, read from the spans of one pass.

Each metric names the wrapped callables it reads.  When one of them no
longer exists in the package, or a ratio has nothing to divide by, the
metric is listed as absent with its reason; the result line still has
to give it as a number and gives 0.  Times are seconds per pass; counts
are per pass.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .spans import Hook, SpanTree, Tracer

SCHEDULE = "spacetime.SettingSchedule"
EVALUATORS = tuple(f"inequalities.{n}" for n in (
    "retarded_chsh", "same_retarded_chsh", "both_equal_reduction",
    "one_end_equal_chsh", "averaged_chsh", "retarded_ch"))
CLOSED_FORMS = (
    "models.hardy_closed_form_E", "models.hardy_closed_form_p12", "models.quantum_E",
    "models.QuantumSinglet.closed_form_E", "models.QuantumSinglet.closed_form_p12",
    "models.QuantumSinglet.closed_form_p1", "models.QuantumSinglet.closed_form_p2")
SAMPLERS = ("models.hardy_outcome_A", "models.hardy_outcome_B",
            "models.quantum_sample_pairs")
OBJECTIVE = "optimizer.objective"


# ----------------------------------------------------------------------
# Counts taken where the work happens
# ----------------------------------------------------------------------


def _add(counts: dict, **values) -> None:
    for key, value in values.items():
        counts[key] = counts.get(key, 0) + value


def _schedules(args, result, counts):
    for schedule in result:
        effects = schedule.interventions.effect_times
        _add(counts, interventions=len(schedule.interventions),
             switches=len(schedule.switches),
             nonmonotone=int(bool(np.any(np.diff(effects) < 0))))


def _blocks(args, counts):
    fn = args["fn"]

    def counted(*a, **k):
        _add(counts, blocks=1)
        return fn(*a, **k)

    return (), {**args, "fn": counted}


def _table(args, result, counts):
    cells = result.cells.values()
    _add(counts, cells=len(cells), sufficient=sum(1 for c in cells if c.sufficient))


def new_tracer() -> Tracer:
    """A tracer with the counting hooks the metrics below read."""
    tracer = Tracer()
    tracer.hooks.update(_hooks(tracer))
    return tracer


def _hooks(tracer: Tracer) -> dict[str, Hook]:
    return {
        f"{SCHEDULE}.value_index_at": Hook(
            after=lambda a, r, c: _add(c, lookups=int(np.size(a["times"])))),
        f"{SCHEDULE}.predictive_index_at": Hook(
            after=lambda a, r, c: _add(c, lookups=int(np.size(a["t_targets"])))),
        "scenarios.build_schedules": Hook(after=_schedules),
        "scenarios.run_scenario": Hook(after=lambda a, r, c: _add(c, skipped=len(r.skipped))),
        "estimation.write_trial_log": Hook(
            after=lambda a, r, c: _add(c, bytes=os.path.getsize(a["path"]))),
        "estimation.build_table": Hook(after=_table),
        "estimation.map_blocks": Hook(before=_blocks),
        "estimation.mc_E": Hook(after=lambda a, r, c: _add(c, mc_samples=int(a["n"]))),
        "models.hardy_outcome_A": Hook(
            after=lambda a, r, c: _add(c, samples=int(np.size(a["lam"])))),
        "models.quantum_sample_pairs": Hook(
            after=lambda a, r, c: _add(c, samples=int(a["n"]))),
        "optimizer.optimize": Hook(
            after=lambda a, r, c: _add(c, evaluations=int(r.evaluations))),
        "optimizer.build_objective": Hook(
            after=lambda a, r, c: tracer.traced(OBJECTIVE, r)),
    }


# ----------------------------------------------------------------------
# The metric table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    reads: tuple[str, ...]
    value: Callable[[SpanTree], Optional[float]]


def _ratio(num: float, den: float) -> Optional[float]:
    """``num / den``, or None when nothing was counted."""
    return num / den if den else None


def _metrics() -> list[LayerMetric]:
    def covered(name, *reads):
        return LayerMetric(name, "s", reads, lambda t: t.covered(reads))

    def self_time(name, *reads):
        return LayerMetric(name, "s", reads, lambda t: t.total_self(reads))

    def count(name, key, *reads, unit="count"):
        return LayerMetric(name, unit, reads, lambda t: t.count(reads, key))

    sched = (f"{SCHEDULE}.value_index_at", f"{SCHEDULE}.predictive_index_at")
    build = ("scenarios.build_schedules",)
    return [
        self_time("cli.self_s", "cli.main", "cli.build_parser"),
        covered("scenarios.load_config_s", "scenarios.load_config"),
        covered("scenarios.build_schedules_s", *build),
        self_time("scenarios.run_scenario_self_s", "scenarios.run_scenario"),
        covered("scenarios.independence_check_s", "scenarios.independence_check"),
        self_time("scenarios.write_outputs_self_s", "scenarios.ScenarioResult.write_outputs"),
        covered("scenarios.replay_retarded_s", "scenarios.replay_retarded"),
        covered("spacetime.value_index_at_s", sched[0]),
        covered("spacetime.predictive_index_at_s", sched[1]),
        count("spacetime.lookups", "lookups", *sched),
        count("spacetime.interventions", "interventions", *build),
        count("spacetime.switches", "switches", *build),
        count("spacetime.nonmonotone_schedules", "nonmonotone", *build),
        covered("models.sample_s", *SAMPLERS),
        count("models.samples", "samples", "models.hardy_outcome_A",
              "models.quantum_sample_pairs"),
        covered("models.closed_form_s", *CLOSED_FORMS),
        covered("estimation.write_trial_log_s", "estimation.write_trial_log"),
        covered("estimation.read_trial_log_s", "estimation.read_trial_log"),
        covered("estimation.write_table_s", "estimation.write_table"),
        covered("estimation.read_table_s", "estimation.read_table"),
        count("estimation.trial_log_bytes", "bytes", "estimation.write_trial_log",
              unit="bytes"),
        covered("estimation.build_table_s", "estimation.build_table"),
        count("estimation.cells", "cells", "estimation.build_table"),
        LayerMetric("estimation.sufficient_ratio", "ratio", ("estimation.build_table",),
                    lambda t: _ratio(t.count(["estimation.build_table"], "sufficient"),
                                     t.count(["estimation.build_table"], "cells"))),
        covered("estimation.map_blocks_s", "estimation.map_blocks"),
        count("estimation.blocks", "blocks", "estimation.map_blocks"),
        covered("estimation.mc_correlations_s", "estimation.mc_correlations"),
        count("estimation.mc_samples", "mc_samples", "estimation.mc_E"),
        covered("estimation.quadrature_s", "estimation.quadrature_E",
                "estimation.quadrature_ch_probs"),
        covered("inequalities.evaluate_s", *EVALUATORS),
        covered("inequalities.identity_check_s", "inequalities.chsh_identity_check",
                "inequalities.ch_identity_check"),
        LayerMetric("inequalities.reports", "count", EVALUATORS,
                    lambda t: t.count(EVALUATORS, ok_only=True)),
        LayerMetric("inequalities.useful_ratio", "ratio",
                    EVALUATORS + ("scenarios.run_scenario",), _useful_ratio),
        LayerMetric("optimizer.objective_s", "s", ("optimizer.build_objective",),
                    lambda t: t.covered([OBJECTIVE])),
        self_time("optimizer.self_s", "optimizer.optimize"),
        count("optimizer.evaluations", "evaluations", "optimizer.optimize"),
        LayerMetric("optimizer.points_per_call", "count",
                    ("optimizer.optimize", "optimizer.build_objective"),
                    lambda t: _ratio(t.count(["optimizer.optimize"], "evaluations"),
                                     t.count([OBJECTIVE]))),
    ]


def _useful_ratio(tree: SpanTree) -> float:
    reports = tree.count(EVALUATORS, ok_only=True)
    skipped = tree.count(["scenarios.run_scenario"], "skipped")
    return _ratio(reports, reports + skipped)


SPAN_METRICS = _metrics()

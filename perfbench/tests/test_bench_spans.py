"""Span arithmetic on synthetic trees, and wrapping rbell's callables."""

from dataclasses import replace
from pathlib import Path

import pytest

from perfbench.layers import SPAN_METRICS, new_tracer
from perfbench.spans import Hook, Span, SpanTree, Tracer

CONFIGS = Path(__file__).resolve().parents[2] / "configs"


def tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "child", 1.0, 3.0, 0, 1),
        Span(2, "child", 2.0, 4.0, 0, 1),  # overlaps the first child
        Span(3, "leaf", 2.5, 3.5, 2, 1),  # grandchild: not subtracted from root
        Span(4, "late", 8.0, 12.0, 0, 1, {"n": 3}),  # runs past the root's end
        Span(5, "root", 20.0, 21.0, None, 2, {"n": 4}),
    ]
    return SpanTree(spans)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_span():
    t = tree()
    root = t.by_id[0]
    # children cover [1, 4] and [8, 10]: 3 + 2 seconds
    assert t.self_time(root) == pytest.approx(5.0)
    assert t.self_time(t.by_id[2]) == pytest.approx(1.0)
    assert t.self_time(t.by_id[3]) == pytest.approx(1.0)
    assert t.total_self(["root"]) == pytest.approx(5.0 + 1.0)


def test_covered_counts_nested_spans_of_one_group_once():
    t = tree()
    assert t.covered(["child", "leaf"]) == pytest.approx(4.0)
    assert t.covered(["leaf"]) == pytest.approx(1.0)
    assert t.covered(["root", "child"]) == pytest.approx(11.0)


def test_counts_sum_over_outermost_spans():
    t = tree()
    assert t.count(["child"]) == 2
    assert t.count(["late", "root"], "n") == 4  # "late" sits inside a root
    assert t.count(["late"], "n") == 3


def test_tracer_wraps_every_name_the_metrics_read_and_restores_them():
    import rbell.cli
    import rbell.scenarios
    import rbell.spacetime

    original = rbell.scenarios.run_scenario
    method = rbell.spacetime.SettingSchedule.value_index_at
    tracer = new_tracer()
    with tracer:
        # an imported alias is wrapped in the importing module too
        assert rbell.cli.run_scenario is rbell.scenarios.run_scenario
        assert rbell.scenarios.run_scenario is not original
        config = rbell.scenarios.load_config(CONFIGS / "delay_control.ini")
        rbell.scenarios.run_scenario(replace(config, n_trials=2000))
    assert rbell.scenarios.run_scenario is original
    assert rbell.cli.run_scenario is original
    assert rbell.spacetime.SettingSchedule.value_index_at is method

    reads = {r for m in SPAN_METRICS for r in m.reads}
    assert reads <= tracer.wrapped
    assert not tracer.hook_errors
    spans = SpanTree(tracer.spans)
    run = spans.by_name["scenarios.run_scenario"][0]
    child_names = {c.name for c in spans.children[run.id]}
    assert {"scenarios.build_schedules", "estimation.build_table"} <= child_names
    assert spans.count(["spacetime.SettingSchedule.predictive_index_at"], "lookups") == 4000
    assert spans.count(["estimation.map_blocks"], "blocks") == 1


def test_a_missing_layer_is_skipped_and_its_names_stay_unwrapped(monkeypatch):
    monkeypatch.setattr("perfbench.spans.LAYERS", ("no_such_layer", "models"))
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.wrapped and all(n.startswith("models.") for n in tracer.wrapped)
    finally:
        tracer.uninstall()


def test_a_failing_hook_marks_its_name_without_failing_the_call():
    tracer = Tracer({"x": Hook(after=lambda a, r, c: 1 / 0)})
    wrapped = tracer.traced("x", lambda v: v + 1)
    assert wrapped(1) == 2
    assert "x" in tracer.hook_errors

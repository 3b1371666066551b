"""Small-size checks of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SECONDS = "0.4"


def _result(capsys, *argv: str) -> dict:
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_named_with_units(capsys, workload):
    out = _result(capsys, "--workload", workload, "--seed", "3",
                  "--seconds", SECONDS, "--trace", "0")
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1
    assert 0 <= out["failed"] <= out["attempted"]
    assert {name: m["unit"] for name, m in out["metrics"].items()} == \
        dict(run.END_TO_END)
    for name, metric in out["metrics"].items():
        assert isinstance(metric["value"], float), name
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_per_layer_metrics_named_with_units(capsys, workload):
    out = _result(capsys, "--workload", workload, "--seed", "3",
                  "--seconds", SECONDS, "--trace", "1")
    assert {name: m["unit"] for name, m in out["metrics"].items()} == \
        dict(layers.METRICS)
    metrics = {name: m["value"] for name, m in out["metrics"].items()}
    assert metrics["mediator.self_ms"] > 0
    assert metrics["ssdl.compile_ms"] > 0
    if workload == "cold_plan":
        assert metrics["planners.plan_ms"] > 0
        assert metrics["ssdl.check_calls"] > 0
    if workload == "served_drift":
        assert metrics["source.simulated_wait_ms"] > 0


def _drive(workload_name: str, corrupt: bool) -> workloads.RunResult:
    workload = workloads.WORKLOADS[workload_name]
    inputs = workload.inputs(5)
    inputs.stream = inputs.stream[:6]
    refs = workloads.References(inputs.worlds)
    _, program = workloads.setup(workload, inputs, 5, 1)
    if corrupt:
        ask = program.mediator.ask

        def corrupted(query, *args, **kwargs):
            answer = ask(query, *args, **kwargs)
            rows = answer.report.result.rows
            answer.report.result = type(answer.report.result)(
                answer.report.result.schema, rows[1:] or [
                    {name: -1 for name in answer.report.result.schema
                     .attribute_names}])
            return answer

        program.mediator.ask = corrupted
    try:
        return workloads.drive(workload, program, inputs, refs, 5.0)
    finally:
        program.mediator.close()


@pytest.mark.parametrize("workload", ["cold_plan", "served_drift"])
def test_oracle_rejects_a_corrupted_answer(workload):
    assert _drive(workload, corrupt=False).wrong == []
    result = _drive(workload, corrupt=True)
    assert result.wrong
    assert any("wrong answers" in problem for problem in run.errors(result))


def test_capability_writes_wait_for_asks_in_flight():
    workload = dataclasses.replace(workloads.WORKLOADS["served_drift"],
                                   write_every=3)
    inputs = workload.inputs(5)
    inputs.stream = inputs.stream[:48]
    refs = workloads.References(inputs.worlds).precompute(inputs.pool)
    _, program = workloads.setup(workload, inputs, 5, 1)
    try:
        session = workloads.Session(workload, program, inputs, refs)
        session.run(30.0)
    finally:
        program.mediator.close()
    result = session.result()
    assert len(result.asks) == 48
    assert result.writes >= 8
    assert result.failures == {}
    assert result.wrong == []


def test_segments_continue_one_stream():
    workload = workloads.WORKLOADS["warm_zipf"]
    inputs = workload.inputs(5)
    inputs.stream = inputs.stream[:30]
    refs = workloads.References(inputs.worlds).precompute(inputs.pool)
    _, program = workloads.setup(workload, inputs, 5, 1)
    session = workloads.Session(workload, program, inputs, refs)
    session.run(0.05)
    first = len(session.asks)
    session.run(30.0)
    program.mediator.close()
    assert 0 < first < 30
    assert len(session.result().asks) == 30


def test_inputs_are_a_function_of_the_seed():
    assert gen.make_worlds(50, (0.8, 0.6), 9) == \
        gen.make_worlds(50, (0.8, 0.6), 9)
    assert gen.make_worlds(50, (0.8,), 9) != gen.make_worlds(50, (0.8,), 10)
    sources = ["world0", "world1"]
    one = gen.make_queries(20, 4, 8, 9, "cold", sources)
    assert one == gen.make_queries(20, 4, 8, 9, "cold", sources)
    assert len(set(one)) == 20
    pools = [one[:10], one[10:]]
    stream = gen.rotating_zipf(pools, 100, 1.2, 9, 20)
    assert stream == gen.rotating_zipf(pools, 100, 1.2, 9, 20)
    assert set(stream[:20]) <= set(pools[0])
    assert set(stream[20:40]) <= set(pools[1])


def test_recorder_restores_entry_points_and_nests_spans():
    from repro.ssdl.description import SourceDescription

    original = vars(SourceDescription)["check"]
    recorder = spans.Recorder()
    with recorder:
        assert vars(SourceDescription)["check"] is not original
        recorder.root(1, lambda: recorder._call("ssdl.check", sum,
                                                ((1, 2),), {}))
    assert vars(SourceDescription)["check"] is original
    child, root = recorder.spans
    assert (root.name, child.name) == ("mediator.ask", "ssdl.check")
    assert child.parent == root.span_id and child.ask == root.ask == 1
    self_times = recorder.self_times()
    assert self_times[root.span_id] == pytest.approx(
        root.duration - child.duration)


def test_plan_cache_key_outside_planning_counts_as_telemetry():
    ask = spans.Span(1, None, 1, "mediator.ask", 0.0, 10.0)
    plan = spans.Span(2, 1, 1, "mediator.plan", 1.0, 5.0)
    keyed = spans.Span(3, 2, 1, "conditions.canonical_key", 1.0, 2.0)
    logged = spans.Span(4, 1, 1, "conditions.canonical_key", 6.0, 7.0)
    names = {s.span_id: s.name for s in (ask, plan, keyed, logged)}
    assert layers._layer_name(keyed, names) == "conditions.canonical_key"
    assert layers._layer_name(logged, names) == "observability.fingerprint"


def test_span_cost_is_calibrated():
    assert 0 < spans.Recorder.span_cost(2000) < 1e-3


def test_self_time_counts_overlapping_children_once():
    recorder = spans.Recorder()
    recorder.spans = [
        spans.Span(1, None, 1, "plans.execute", 0.0, 10.0),
        spans.Span(2, 1, 1, "source.execute", 1.0, 5.0),
        spans.Span(3, 1, 1, "source.execute", 3.0, 7.0),
    ]
    assert recorder.self_times()[1] == pytest.approx(4.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_plan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

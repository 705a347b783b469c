"""Tests of the benchmark itself: failure accounting, the resume and target
checks, span self times, and agreement between BENCHMARK.json and the code.

    python3 -m pytest perfbench
"""

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import harness
import run
import tracer
from workloads import PROBLEM_SEEDS, WORKLOADS, ProblemSpec, SolverRun, Workload

ROOT = Path(__file__).resolve().parent.parent
fi = harness.load_finito(ROOT)


def _pass(workload, tmp_path, seed=0):
    session = harness.Session(fi, workload, seed, tmp_path, {})
    patches = tracer.Patches()
    patches.function(fi.solvers.run_with_state, session.probe)
    try:
        result = harness.run_pass(session)
    finally:
        patches.undo()
    return result, session


def test_divergence_is_counted_not_raised(tmp_path):
    # squared loss at this size has the first-pass rule blow up at step n
    workload = Workload(
        name="divergent", why="", target=1e-8,
        problems=(ProblemSpec("sq", n=2000, d=20, loss="squared"),),
        runs=(SolverRun("finito", "sq", "finito", "permuted", 2, 1),
              SolverRun("prox-finito", "sq", "prox-finito", "permuted", 2, 1)))
    result, session = _pass(workload, tmp_path)
    ledger = session.ledger
    for label in ("finito", "prox-finito"):
        assert any(f.startswith(f"run {label}: DivergenceError") and "step 2000" in f
                   for f in ledger.failures), ledger.failures
    assert result.traces == {} and result.steps_per_s == 0.0


def test_verify_exit_code_is_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(fi.cli, "main", lambda argv: 3)
    workload = replace(WORKLOADS["verify-lab"], problems=())
    _, session = _pass(workload, tmp_path)
    assert session.ledger.failures == ["verify exit code: exit code 3"]


SMALL = Workload(
    name="small", why="", target=1e-6,
    problems=(ProblemSpec("p", n=200, d=5),),
    runs=(SolverRun("finito", "p", "finito", "permuted", 10, 4),
          SolverRun("sag", "p", "sag", "uniform", 4, 2)))


def test_resume_check_is_bit_exact(tmp_path):
    result, session = _pass(SMALL, tmp_path)
    ledger = session.ledger
    # no f_star is recorded for this recipe, and sag does not reach the target
    assert sorted(ledger.failures) == [
        "f_star p: no value recorded for problem seed 0",
        "target sag: suboptimality never reached 1e-06"]
    assert result.steps == 14 * 200 and list(result.run_ttt) == ["finito"]
    harness.check_resume(session, result)
    assert len(ledger.failures) == 2
    rec = result.traces["finito"][-1]
    rec.objective = np.nextafter(rec.objective, np.inf)
    harness.check_resume(session, result)
    assert ledger.failures[-1] == (
        "resume finito: resumed trace differs from the uninterrupted one")


def test_time_to_target_interpolates_across_segments():
    def rec(wall_ms, sub):
        return fi.TraceRecord(0.0, 0.0, sub, 0.0, wall_ms, "finito", "uniform", 0)
    head = harness.Segment([rec(0.0, 1.0), rec(1000.0, 1e-2)], 10, 1.5)
    tail = harness.Segment([rec(1000.0, 1e-6)], 10, 1.0)
    # 1e-4 lies halfway, in log scale, between the record at 1 s and the one
    # at 1.5 + 1 s, the tail starting where the head ended
    assert harness.time_to_target([head, tail], 1e-4) == pytest.approx(1.75)
    assert harness.time_to_target([head], 1e-4) is None
    assert harness.time_to_target([head], 1.0) == 0.0


def test_pace_readings_stay_out_of_intervals():
    pace = harness.Pace()
    readings = len(pace.readings)
    with pace.interval() as outer:
        with pace.interval() as inner:
            end = time.perf_counter() + 4 * harness.SAMPLE_S
            while time.perf_counter() < end:
                pass
        timer_readings = len(pace.readings) - readings - 1
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert timer_readings >= 2
    assert len(pace.readings) == readings + timer_readings + 2
    # readings taken inside an interval count against neither interval
    assert 0 < inner.wall < inner.gross
    assert outer.gross - outer.wall > inner.gross - inner.wall
    assert outer.pace == pytest.approx(
        statistics.fmean(pace.readings[readings - 1:]))


def test_self_time_subtracts_direct_children():
    spans = tracer.Tracer()

    def leaf():
        time.sleep(0.01)

    def outer():
        leaf()
        leaf()
        time.sleep(0.02)

    leaf = spans.wrapper("leaf")(leaf)
    outer = spans.wrapper("outer")(outer)
    outer()
    table = spans.table()
    assert list(table.parent) == [-1, 0, 0]
    summary = table.summary()
    assert summary["leaf"]["calls"] == 2
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["total_s"] - summary["leaf"]["total_s"])
    assert summary["outer"]["self_s"] >= 0.02


def test_traced_pass_counts_layers(tmp_path):
    spans = tracer.Tracer()
    patches = tracer.Patches()
    missing = spans.install(patches)
    try:
        result, _ = _pass(SMALL, tmp_path)
    finally:
        patches.undo()
    assert missing == []
    assert not hasattr(fi.FiniteSumProblem.__dict__["full_gradient"], "__wrapped__")
    assert "full_objective" not in fi.FiniteSumProblem.__dict__
    m = tracer.layer_metrics(spans.table(), result.checkpoint_bytes, 0, 0, 0.0)
    assert set(m) == set(tracer.PER_LAYER)
    # 200 first-pass steps per run, the rest drawn from the sampler
    assert m["samplers.draws"] == 14 * 200 - 2 * 200
    assert m["problems.component_gradient_calls"] == 14 * 200
    assert m["solvers.records"] == 10 + 1 + 4 + 1
    assert m["solvers.reference_oracle_calls"] > 0
    assert m["data_io.checkpoint_bytes"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in tracer.PER_LAYER.items()}


def test_every_problem_has_recorded_references():
    fstar = harness.load_fstar()
    for workload in WORKLOADS.values():
        for spec in workload.problems:
            assert len(fstar[spec.signature]) == PROBLEM_SEEDS


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inner-loop",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

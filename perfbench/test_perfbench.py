"""Smoke tests of the benchmark runner at a tiny size, and of its oracles.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import itertools  # noqa: E402

import moits.tabu  # noqa: E402
from moits import benchmarks  # noqa: E402
from moits.problems import brute_force_pareto, evaluate, feasible_lattice  # noqa: E402
from perfbench import speed, trace, wide  # noqa: E402
from perfbench.workloads import Oracle, hypervolume  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, traced):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(traced), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


def test_traced_run_reports_every_layer_metric_through_the_pool():
    result = _run("experiment", 1)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    # the experiment's solves run in pool workers; their counts come back
    assert metrics["tabu.tabu_move.calls"]["value"] > 0
    assert metrics["problems.evaluate.calls_tabu"]["value"] > 0
    assert 0 < metrics["harness.parallel_efficiency"]["value"] <= 1


def test_tracer_tolerates_a_removed_function(monkeypatch):
    search, key = moits.tabu.tabu_search, moits.tabu.CachedEvaluator.key
    monkeypatch.delattr(moits.tabu, "tabu_move")
    tracer = trace.Tracer().install()
    try:
        assert tracer.absent == ["moits.tabu.tabu_move"]
        assert moits.tabu.tabu_search is not search
    finally:
        tracer.uninstall()
    assert moits.tabu.tabu_search is search
    assert moits.tabu.CachedEvaluator.key is key

    metrics, absent = trace.layer_metrics(tracer, {}, 0.0, 1.0)
    assert {"tabu.tabu_move.calls", "tabu.tabu_move.us"} <= set(absent)
    assert metrics["tabu.tabu_move.calls"] == (0, "count")


def test_hypervolume_of_boxes():
    assert hypervolume([(1.0, 1.0)], (2.0, 3.0)) == 2.0
    assert hypervolume([(0.0, 1.0), (1.0, 0.0), (2.0, 2.0)], (2.0, 2.0)) == 3.0
    assert hypervolume([(0.0, 0.0, 0.0)], (1.0, 2.0, 3.0)) == 6.0
    # boxes of volume 2 and 4 that share one unit cube
    assert hypervolume([(0.0, 1.0, 1.0), (1.0, 0.0, 0.0)], (2.0, 2.0, 2.0)) == 5.0


def test_oracle_check_flags_each_kind_of_fault():
    oracle = Oracle.enumerated(benchmarks.benchmark("p1"))
    problem = oracle.problem
    box = itertools.product(*map(range, problem.lower_bounds,
                                 [u + 1 for u in problem.upper_bounds]))
    infeasible = next(x for x in box if evaluate(problem, x).violation > 0)
    dominated = next(x for x, _ in feasible_lattice(problem) if x not in oracle.front)
    on_front = sorted(oracle.front)
    assert oracle.check(on_front, require_front=True) == {}
    assert oracle.check(on_front, require_front=False) == {}
    faults = oracle.check(on_front + [infeasible, dominated], require_front=True)
    assert set(faults) == {infeasible, dominated}
    faults = oracle.check(on_front + [dominated], require_front=False)
    assert set(faults) == {dominated}


def test_wide_oracle_matches_the_exhaustive_oracle():
    problem = wide.make_problem(upper=4)
    assert wide.exact_front(problem) == {x for x, _ in brute_force_pareto(problem)}


def test_speedometer_samples_every_cpu_and_stops():
    with speed.Speedometer(speed.cpus()) as meter:
        start = time.perf_counter()
        time.sleep(0.2)
        end = time.perf_counter()
    assert not any(thread.is_alive() for thread in meter._threads)
    assert all(len(samples) >= 2 for samples in meter.samples.values())
    assert 0 < meter.seconds(start, end) < 10 * (end - start)

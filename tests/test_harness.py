import argparse
import csv
import io
import json
from dataclasses import asdict, replace

import pytest

from moits import harness, problems
from moits.benchmarks import benchmark
from moits.cli import _emit
from moits.de import DEConfig
from moits.harness import (
    ExperimentReport,
    derive_seed,
    format_solution,
    report_csv,
    run_experiment,
    verify_known,
)
from moits.pipeline import HybridConfig
from moits.problems import evaluate

SMALL = HybridConfig(
    de=DEConfig(population_size=20, max_iterations=30),
    ts_iterations=100,
    alternations=2,
    runs=3,
    oracle_anchors=True,
)


class TestDeriveSeed:
    def test_known_vector(self):
        # splitmix64 of state 0: first output of the reference sequence
        assert derive_seed(0, 0) == 0xE220A8397B1DCDAF

    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_distinct_across_runs(self):
        seeds = {derive_seed(1, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_distinct_across_masters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_64_bit_range(self):
        for i in range(50):
            assert 0 <= derive_seed(123, i) < 2**64


@pytest.fixture(scope="module")
def p3_report():
    return run_experiment(benchmark("p3"), "rand1", SMALL, master_seed=9, workers=1)


class TestRunExperiment:
    def test_report_shape(self, p3_report):
        assert p3_report.problem == "p3"
        assert p3_report.variant == "rand1"
        assert p3_report.runs == 3
        assert len(p3_report.seeds) == 3
        assert len(p3_report.wall_clock) == 3
        assert all(t > 0 for t in p3_report.wall_clock)

    def test_seeds_derived_from_master(self, p3_report):
        assert p3_report.seeds == tuple(derive_seed(9, i) for i in range(3))

    def test_counts_bounded_by_runs(self, p3_report):
        for _, count in p3_report.counts:
            assert 1 <= count <= 3

    def test_counts_sorted_desc_then_lexicographic(self, p3_report):
        keys = [(-count, sol) for sol, count in p3_report.counts]
        assert keys == sorted(keys)

    def test_all_counted_solutions_feasible(self, p3_report):
        problem = benchmark("p3").problem
        for sol, _ in p3_report.counts:
            assert evaluate(problem, sol).violation == 0.0

    def test_variant_echoed_in_config(self, p3_report):
        assert p3_report.config["de"]["variant"] == "rand1"

    def test_deterministic_per_master_seed(self, p3_report):
        again = run_experiment(benchmark("p3"), "rand1", SMALL, master_seed=9, workers=1)
        assert again.counts == p3_report.counts

    def test_count_of_and_rate(self, p3_report):
        sol, count = p3_report.counts[0]
        assert dict(p3_report.counts).get(sol, 0) == count
        rates = {row["solution"]: float(row["rate_percent"])
                 for row in csv.DictReader(io.StringIO(report_csv(p3_report)))}
        assert rates[format_solution(sol)] == 100.0 * count / 3
        assert dict(p3_report.counts).get((99, 99), 0) == 0

    def test_counts_run_membership(self, monkeypatch):
        runs = iter([((9, 5), (10, 4)), ((9, 5),), ((9, 5),)])
        monkeypatch.setattr(harness, "_solve_run", lambda spec, config, seed: (next(runs), 0.5))
        report = run_experiment(benchmark("p3"), "rand1", SMALL, master_seed=9, workers=1)
        assert report.counts == (((9, 5), 3), ((10, 4), 1))

    def test_counted_solutions_rechecked_for_feasibility(self, monkeypatch):
        # infeasible in p3
        monkeypatch.setattr(harness, "_solve_run", lambda spec, config, seed: (((5, 7),), 0.5))
        with pytest.raises(AssertionError, match=r"\(5, 7\) is infeasible"):
            run_experiment(benchmark("p3"), "rand1", SMALL, master_seed=9, workers=1)


class TestProcessPool:
    def test_two_workers_match_one(self, p3_report):
        # a real pool: points come back pickled and are counted in run order
        pooled = run_experiment(benchmark("p3"), "rand1", SMALL, master_seed=9, workers=2)
        assert report_csv(pooled) == report_csv(p3_report)
        assert pooled.counts == p3_report.counts
        assert pooled.seeds == p3_report.seeds


class TestUnpicklableProblem:
    def test_process_pool_refused_with_a_clear_error(self):
        spec = benchmark("p3")
        lambdas = replace(
            spec,
            problem=replace(
                spec.problem,
                objectives=((lambda x: x[0], "max"), (lambda x: x[1], "max")),
                name="lambdas",
            ),
        )
        with pytest.raises(ValueError, match="'lambdas'.*workers=1"):
            run_experiment(lambdas, "rand1", SMALL, master_seed=1, workers=2)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool with one that records its size and maps the
    jobs inline, so no process is started."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    return sizes


class TestWorkerPool:
    def test_pool_capped_at_runs(self, pool_sizes, p3_report):
        report = run_experiment(benchmark("p3"), "rand1", SMALL, master_seed=9, workers=64)
        assert pool_sizes == [SMALL.runs]
        assert report.counts == p3_report.counts

    def test_default_pool_capped_at_runs(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(64)),
                            raising=False)
        run_experiment(benchmark("p3"), "rand1", replace(SMALL, runs=2), master_seed=9)
        assert pool_sizes == [2]

    def test_default_pool_sized_by_affinity(self, pool_sizes, monkeypatch):
        # under `taskset -c 0` on a 64-CPU host the runs go one after another
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        run_experiment(benchmark("p3"), "rand1", replace(SMALL, runs=2), master_seed=9)
        assert pool_sizes == []

    def test_default_pool_without_affinity_uses_cpu_count(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        run_experiment(benchmark("p3"), "rand1", replace(SMALL, runs=2), master_seed=9)
        assert pool_sizes == [2]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_workers_rejected(self, pool_sizes, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_experiment(benchmark("p3"), "rand1", SMALL, master_seed=9, workers=workers)
        assert pool_sizes == []


def json_text(report, capsys) -> str:
    """The text that ``--format json`` prints for ``report``."""
    _emit(argparse.Namespace(format="json", out=None), asdict(report), "")
    return capsys.readouterr().out


# what `moits verify --problem p3 --format json` printed, parsed, when a
# hand-written mapper made the JSON; the move to `asdict` sorted its keys only
P3_VERIFICATION = {
    "schema_version": 1,
    "problem": "p3",
    "pareto_size": 4,
    "checks": [
        {"solution": [9, 5], "feasible": True, "pareto": True, "dominated_by": []},
        {"solution": [10, 4], "feasible": True, "pareto": True, "dominated_by": []},
        {"solution": [11, 1], "feasible": True, "pareto": True, "dominated_by": []},
        {"solution": [7, 6], "feasible": True, "pareto": True, "dominated_by": []},
        {"solution": [5, 7], "feasible": False, "pareto": False, "dominated_by": []},
    ],
}


def checks_of(report):
    return {check.solution: check for check in report.checks}


class TestVerifyKnown:
    def test_p1_known_solutions_all_pareto(self):
        checks = checks_of(verify_known(benchmark("p1")))
        for sol in [(4, 4), (2, 5), (6, 2), (5, 3)]:
            check = checks[sol]
            assert check.feasible and check.pareto
            assert check.dominated_by == ()

    def test_p2_reported_non_pareto_points_flagged(self):
        checks = checks_of(verify_known(benchmark("p2")))
        for bad, dominator in [((10, 1), (8, 3)), ((9, 2), (8, 3))]:
            check = checks[bad]
            assert check.feasible and not check.pareto
            assert dominator in check.dominated_by

    def test_p3_infeasible_reported_point(self):
        check = checks_of(verify_known(benchmark("p3")))[(5, 7)]
        assert not check.feasible
        assert not check.pareto

    def test_p3_main_solution(self):
        report = verify_known(benchmark("p3"))
        check = checks_of(report)[(9, 5)]
        assert check.feasible and check.pareto and check.dominated_by == ()
        assert report.pareto_size == 4

    def test_unknown_solution_raises(self):
        # only the published targets are checked, each once
        spec = benchmark("p3")
        report = verify_known(spec)
        checks = checks_of(report)
        assert len(checks) == len(report.checks)
        assert set(checks) == set(spec.known_solutions + spec.reported_solutions)
        with pytest.raises(KeyError):
            checks[(0, 0)]

    def test_lattice_enumerated_once(self, monkeypatch):
        calls = []
        real = problems.feasible_lattice

        def spy(problem):
            calls.append(problem.name)
            return real(problem)

        monkeypatch.setattr(problems, "feasible_lattice", spy)
        monkeypatch.setattr(harness, "feasible_lattice", spy)
        verify_known(benchmark("p2"))
        assert calls == ["p2"]

    def test_serializable(self, capsys):
        assert json.loads(json_text(verify_known(benchmark("p3")), capsys)) == P3_VERIFICATION


def tiny_report():
    return ExperimentReport(
        problem="p3",
        variant="degl",
        runs=4,
        counts=(((9, 5), 4), ((10, 4), 1)),
        seeds=(11, 22, 33, 44),
        wall_clock=(0.5, 0.5, 0.5, 0.5),
        config={"runs": 4},
    )


# the `--format json` text of tiny_report() when a hand-written mapper made it;
# `asdict` gives the same bytes
TINY_REPORT_JSON = """\
{
  "config": {
    "runs": 4
  },
  "counts": [
    [
      [
        9,
        5
      ],
      4
    ],
    [
      [
        10,
        4
      ],
      1
    ]
  ],
  "problem": "p3",
  "runs": 4,
  "schema_version": 1,
  "seeds": [
    11,
    22,
    33,
    44
  ],
  "variant": "degl",
  "wall_clock": [
    0.5,
    0.5,
    0.5,
    0.5
  ]
}
"""


class TestEmit:
    def test_csv_layout(self):
        lines = report_csv(tiny_report()).splitlines()
        assert lines[0] == "solution,count,rate_percent,variant,problem"
        assert lines[1] == '"(9,5)",4,100.0,degl,p3'
        assert lines[2] == '"(10,4)",1,25.0,degl,p3'

    def test_json_text_is_pinned(self, capsys):
        assert json_text(tiny_report(), capsys) == TINY_REPORT_JSON

    def test_report_csv_identical_across_identical_experiments(self):
        a = run_experiment(benchmark("p3"), "degl", SMALL, master_seed=4, workers=1)
        b = run_experiment(benchmark("p3"), "degl", SMALL, master_seed=4, workers=1)
        csv_a, csv_b = report_csv(a), report_csv(b)
        assert csv_a.encode() == csv_b.encode()

    def test_format_solution(self):
        assert format_solution((4, 4)) == "(4,4)"
        assert format_solution([10, 1]) == "(10,1)"

"""Experiment harness: repeated seeded runs, success-rate aggregation, I/O.

An experiment solves one benchmark R times with per-run seeds derived from a
master seed and counts for every archived integer solution the number of runs
that found it. A separate verifier cross-checks the published target
solutions against the exhaustive lattice oracle.

A report's JSON is its dataclass's fields, by `dataclasses.asdict`, with
sorted keys; it is output only, and nothing reads it back. `csv_text` is the
one CSV writer of the package; it quotes a cell holding a comma, such as the
solution `(7,6)` of `format_solution`.
"""

from __future__ import annotations

import csv
import io
import os
import pickle
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import pipeline
from .benchmarks import BenchmarkSpec
from .problems import dominates, evaluate, feasible_lattice, pareto_filter

__all__ = [
    "ExperimentReport",
    "SolutionCheck",
    "VerificationReport",
    "derive_seed",
    "run_experiment",
    "verify_known",
    "format_solution",
    "csv_text",
    "report_csv",
]

SCHEMA_VERSION = 1

_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, run_index: int) -> int:
    """Per-run seed: splitmix64 finalizer of master_seed advanced run_index+1
    golden-ratio steps. Stable across platforms and Python versions."""
    z = (master_seed + 0x9E3779B97F4A7C15 * (run_index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class ExperimentReport:
    problem: str
    variant: str
    runs: int
    counts: tuple[tuple[tuple[int, ...], int], ...]
    seeds: tuple[int, ...]
    wall_clock: tuple[float, ...]
    config: dict
    schema_version: int = SCHEMA_VERSION


def _solve_run(args):
    spec, config, seed = args
    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    archive = pipeline.solve(spec.problem, config, rng)
    return archive, time.perf_counter() - started


def _usable_cpus() -> int:
    """How many CPUs this process may run on: the size of its affinity set
    where the platform has one (``taskset`` or a cpuset can make it smaller
    than ``os.cpu_count()``), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(
    spec: BenchmarkSpec,
    variant: str,
    hybrid_config: pipeline.HybridConfig,
    master_seed: int,
    workers: int | None = None,
) -> ExperimentReport:
    """Execute ``hybrid_config.runs`` independent seeded runs of one variant.

    Runs execute in parallel when the process may run on more than one CPU,
    on at most ``runs`` worker processes. Each archived solution is counted
    once per run that found it, and every counted solution is re-checked for
    feasibility; the counts are sorted by descending count, then solution, so
    the report is deterministic per master seed.
    """
    config = replace(hybrid_config, de=replace(hybrid_config.de, variant=variant))
    seeds = tuple(derive_seed(master_seed, i) for i in range(config.runs))
    jobs = [(spec, config, seed) for seed in seeds]
    if workers is None:
        workers = _usable_cpus()
    elif workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, config.runs)
    if workers > 1:
        try:
            pickle.dumps(spec)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ValueError(
                f"problem {spec.problem.name!r} cannot be sent to worker processes "
                f"({exc}); run it with workers=1"
            ) from exc
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_solve_run, jobs))
    else:
        results = [_solve_run(job) for job in jobs]

    counts = Counter(key for archive, _ in results for key in archive.entries)
    for solution in counts:
        if evaluate(spec.problem, solution).violation != 0.0:
            raise AssertionError(f"counted solution {solution} is infeasible")
    return ExperimentReport(
        problem=spec.problem.name,
        variant=variant,
        runs=config.runs,
        counts=tuple(sorted(counts.items(), key=lambda item: (-item[1], item[0]))),
        seeds=seeds,
        wall_clock=tuple(elapsed for _, elapsed in results),
        config=asdict(config),
    )


@dataclass(frozen=True)
class SolutionCheck:
    solution: tuple[int, ...]
    feasible: bool
    pareto: bool
    dominated_by: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class VerificationReport:
    problem: str
    pareto_size: int
    checks: tuple[SolutionCheck, ...]
    schema_version: int = SCHEMA_VERSION


def verify_known(spec: BenchmarkSpec) -> VerificationReport:
    """Cross-check every published target against the exhaustive lattice oracle:
    feasibility, Pareto membership, and any lattice points dominating it."""
    lattice = feasible_lattice(spec.problem)
    front = {key for key, _ in pareto_filter(lattice)}
    targets = list(dict.fromkeys(spec.known_solutions + spec.reported_solutions))
    checks = []
    for solution in targets:
        ev = evaluate(spec.problem, solution)
        feasible = ev.violation == 0.0
        dominators = tuple(
            point for point, other in lattice if feasible and dominates(other, ev)
        )
        checks.append(
            SolutionCheck(
                solution=tuple(solution),
                feasible=feasible,
                pareto=tuple(solution) in front,
                dominated_by=dominators,
            )
        )
    return VerificationReport(spec.problem.name, len(front), tuple(checks))


def format_solution(solution) -> str:
    return "(" + ",".join(str(int(v)) for v in solution) + ")"


def csv_text(header, rows) -> str:
    """A header and its rows as CSV text, each line ending in a newline."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def report_csv(report: ExperimentReport) -> str:
    """The success-rate table, sorted by descending count, then solution."""
    cells = [[format_solution(solution), count, 100.0 * count / report.runs,
              report.variant, report.problem]
             for solution, count in report.counts]
    return csv_text(["solution", "count", "rate_percent", "variant", "problem"], cells)

"""Experiment harness: repeated seeded runs, success-rate aggregation, I/O.

An experiment solves one benchmark R times with per-run seeds derived from a
master seed, counts for every archived integer solution the number of runs
that found it, and emits the aggregate as CSV (one row per solution) or as a
lossless JSON report. A separate verifier cross-checks the published target
solutions against the exhaustive lattice oracle.
"""

from __future__ import annotations

import csv
import io
import json
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
    "emit",
    "report_to_dict",
    "report_from_dict",
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


def run_experiment(
    spec: BenchmarkSpec,
    variant: str,
    hybrid_config: pipeline.HybridConfig,
    master_seed: int,
    workers: int | None = None,
) -> ExperimentReport:
    """Execute ``hybrid_config.runs`` independent seeded runs of one variant.

    Runs execute in parallel when more than one CPU is available, on at most
    ``runs`` worker processes. Each archived solution is counted once per run
    that found it, and every counted solution is re-checked for feasibility;
    the counts are sorted by descending count, then solution, so the report is
    deterministic per master seed.
    """
    config = replace(hybrid_config, de=replace(hybrid_config.de, variant=variant))
    seeds = tuple(derive_seed(master_seed, i) for i in range(config.runs))
    jobs = [(spec, config, seed) for seed in seeds]
    if workers is None:
        workers = os.cpu_count() or 1
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


def _format_solution(solution) -> str:
    return "(" + ",".join(str(int(v)) for v in solution) + ")"


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "schema_version": report.schema_version,
        "problem": report.problem,
        "variant": report.variant,
        "runs": report.runs,
        "counts": [[list(sol), count] for sol, count in report.counts],
        "seeds": list(report.seeds),
        "wall_clock": list(report.wall_clock),
        "config": report.config,
    }


def report_from_dict(data: dict) -> ExperimentReport:
    return ExperimentReport(
        problem=data["problem"],
        variant=data["variant"],
        runs=data["runs"],
        counts=tuple((tuple(sol), count) for sol, count in data["counts"]),
        seeds=tuple(data["seeds"]),
        wall_clock=tuple(data["wall_clock"]),
        config=data["config"],
        schema_version=data["schema_version"],
    )


def verification_to_dict(report: VerificationReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "problem": report.problem,
        "pareto_size": report.pareto_size,
        "checks": [
            {
                "solution": list(check.solution),
                "feasible": check.feasible,
                "pareto": check.pareto,
                "dominated_by": [list(p) for p in check.dominated_by],
            }
            for check in report.checks
        ],
    }


def emit(report: ExperimentReport, format: str, destination) -> None:
    """Write a report as CSV (success-rate table layout) or lossless JSON.

    ``destination`` is a path or a writable text stream. CSV rows are sorted
    by descending count, then lexicographic solution.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r}")
    if hasattr(destination, "write"):
        _emit_stream(report, format, destination)
        return
    with open(destination, "w", encoding="utf-8", newline="") as stream:
        _emit_stream(report, format, stream)


def _emit_stream(report, format, stream):
    if format == "json":
        json.dump(report_to_dict(report), stream, indent=2, sort_keys=True)
        stream.write("\n")
        return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["solution", "count", "rate_percent", "variant", "problem"])
    for solution, count in report.counts:
        writer.writerow(
            [
                _format_solution(solution),
                count,
                100.0 * count / report.runs,
                report.variant,
                report.problem,
            ]
        )


def report_csv(report: ExperimentReport) -> str:
    buffer = io.StringIO()
    _emit_stream(report, "csv", buffer)
    return buffer.getvalue()

"""The benchmark's workloads: inputs from the seed, one unit of work, the
correctness checks and the quality of the results.

Every workload is a closed loop: one solve after another, each started when
the previous one has returned. A unit is the workload's fixed batch of work;
the runner repeats units until its time is up, and every unit of a run gets
the same inputs, so a unit's fingerprint must repeat exactly.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from moits import benchmarks, harness, pipeline, problems
from moits.de import DEConfig
from moits.pipeline import HybridConfig

from . import wide
from .speed import cpus

# the checks use the original function even while a tracer replaces bindings
_evaluate = problems.evaluate
_dominates = problems.dominates


def _config(variant: str, tiny: bool, **stage3) -> HybridConfig:
    """Default solver settings; ``tiny`` shrinks every loop for the smoke test."""
    if tiny:
        de_config = DEConfig(variant=variant, population_size=8, max_iterations=5)
        return HybridConfig(de=de_config, ts_iterations=1000, alternations=1, runs=4)
    return HybridConfig(de=DEConfig(variant=variant), **stage3)


@dataclass
class Unit:
    """Outcome of one unit: timing, failures, fingerprint and quality.

    ``start`` and ``end`` bound the unit on the ``time.perf_counter`` clock;
    ``spans`` holds the same bounds per solve where the solves run here (the
    experiment's run in pool workers and report only their wall seconds).
    """

    start: float
    end: float
    solve_seconds: list[float]
    attempted: int
    spans: list[tuple[float, float]] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    fingerprint: str = ""
    quality: dict = field(default_factory=dict)
    harness: dict = field(default_factory=dict)


def _attempt(unit_errors, fn, *args):
    """Run one solve; an exception is recorded with its traceback, not raised."""
    try:
        return fn(*args)
    except Exception:
        text = traceback.format_exc()
        print(text, file=sys.stderr)
        unit_errors.append(text.strip().splitlines()[-1])
        return None


def _digest(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _archive_rows(archive):
    return [[list(key), list(archive.entries[key].evaluation.objectives_min)]
            for key in archive.solutions()]


def hypervolume(points, reference) -> float:
    """Volume dominated by ``points`` (minimization, two or more objectives)
    and bounded by ``reference``, by slicing along the last objective."""
    points = sorted({tuple(p) for p in points if all(a < r for a, r in zip(p, reference))},
                    key=lambda p: p[-1])
    if len(reference) == 2:
        area, floor = 0.0, reference[1]
        for x, y in sorted(points):
            if y < floor:
                area += (reference[0] - x) * (floor - y)
                floor = y
        return area
    volume = 0.0
    for i, p in enumerate(points):
        top = points[i + 1][-1] if i + 1 < len(points) else reference[-1]
        if top > p[-1]:
            volume += hypervolume([q[:-1] for q in points[: i + 1]], reference[:-1]) * (top - p[-1])
    return volume


class Oracle:
    """What is known exactly about one problem: its Pareto set, its known
    solutions and the hypervolume of the exact front."""

    def __init__(self, problem, front, known, reference):
        self.problem = problem
        self.front = front
        self.known = tuple(known)
        self.reference = tuple(reference)
        self.front_hv = hypervolume(
            [_evaluate(problem, x).objectives_min for x in front], self.reference
        )

    @classmethod
    def enumerated(cls, spec):
        """From the exhaustive lattice oracle; the reference point lies one
        past the worst feasible value of each objective."""
        lattice = problems.feasible_lattice(spec.problem)
        worst = np.max([ev.objectives_min for _, ev in lattice], axis=0) + 1.0
        front = {x for x, _ in problems.brute_force_pareto(spec.problem)}
        return cls(spec.problem, front, spec.known_solutions, worst.tolist())

    def check(self, solutions, require_front: bool) -> dict:
        """Faults by solution: each must be feasible when evaluated again, and
        either on the exact front or not dominated by another solution."""
        faults = {}
        evaluations = {x: _evaluate(self.problem, x) for x in solutions}
        for x, ev in evaluations.items():
            if ev.violation != 0.0:
                faults[x] = f"{self.problem.name}: {x} is infeasible (G = {ev.violation})"
            elif require_front and x not in self.front:
                faults[x] = f"{self.problem.name}: {x} is not Pareto-optimal"
            elif not require_front:
                for y, other in evaluations.items():
                    if _dominates(other, ev):
                        faults[x] = f"{self.problem.name}: {x} is dominated by {y}"
                        break
        return faults

    def hv_share(self, solutions) -> float:
        points = [_evaluate(self.problem, x).objectives_min for x in solutions]
        return hypervolume(points, self.reference) / self.front_hv


class Solves:
    """Default solves, one after another, each archive checked against the
    oracle of its problem."""

    workers = 1

    def __init__(self, seed: int, cases, require_front: bool):
        self.seed = seed
        self.cases = cases
        self.require_front = require_front

    def run(self) -> Unit:
        errors, spans, archives = [], [], []
        for i, (oracle, config) in enumerate(self.cases):
            rng = np.random.default_rng([self.seed, i])
            start = time.perf_counter()
            archives.append(_attempt(errors, pipeline.solve, oracle.problem, config, rng))
            spans.append((start, time.perf_counter()))
        unit = Unit(spans[0][0], spans[-1][1], [e - s for s, e in spans], len(spans),
                    spans=spans, errors=errors)
        found = front = known = known_found = 0
        rows, hv = [], []
        for (oracle, _), archive in zip(self.cases, archives):
            if archive is None:
                unit.failed += 1
                rows.append(None)
                continue
            solutions = set(archive.entries)
            faults = oracle.check(solutions, self.require_front)
            unit.errors += faults.values()
            unit.failed += bool(faults)
            front += len(oracle.front)
            found += len(solutions & oracle.front)
            known += len(oracle.known)
            known_found += sum(x in solutions for x in oracle.known)
            hv.append(oracle.hv_share(solutions))
            rows.append(_archive_rows(archive))
        unit.fingerprint = _digest(rows)
        if hv:
            unit.quality = {"pareto_recall": found / front, "success_rate": known_found / known,
                            "hypervolume": float(np.mean(hv))}
        return unit


def paper(seed: int, tiny: bool) -> Solves:
    """One default solve of each published benchmark, each with another variant."""
    cases = [(Oracle.enumerated(benchmarks.benchmark(name)), _config(variant, tiny))
             for name, variant in (("p1", "degl"), ("p2", "rand1"), ("p3", "best"))]
    return Solves(seed, cases, require_front=True)


def wide_solves(seed: int, tiny: bool) -> Solves:
    """One default ``degl`` solve of the 6-variable problem of ``wide.py``.

    Its lattice is beyond ``brute_force_pareto``, so the archive is checked
    for mutual non-domination and the exact front comes from ``wide.py``'s
    own enumeration. A generated problem has no published targets: its known
    solutions are its exact front.
    """
    problem = wide.make_problem(upper=4 if tiny else wide.UPPER)
    front = wide.exact_front(problem)
    origin = _evaluate(problem, (0,) * problem.dimension).objectives_min
    oracle = Oracle(problem, front, sorted(front), origin)
    return Solves(seed, [(oracle, _config("degl", tiny))], require_front=False)


class Experiment:
    """The 20-run success-rate experiment on ``p2``/``best`` over a process
    pool, with a light stage 3 so the fixed per-run costs dominate."""

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.spec = benchmarks.benchmark("p2")
        self.oracle = Oracle.enumerated(self.spec)
        self.config = _config("best", tiny, ts_iterations=100, alternations=2)
        self.workers = len(cpus())

    def run(self) -> Unit:
        errors = []
        start = time.perf_counter()
        report = _attempt(errors, harness.run_experiment, self.spec, "best", self.config,
                          self.seed, self.workers)
        end = time.perf_counter()
        runs = self.config.runs
        if report is None:
            return Unit(start, end, [], runs, failed=runs, errors=errors)
        unit = Unit(start, end, list(report.wall_clock), runs, errors=errors)
        solutions = {x for x, _ in report.counts}
        faults = self.oracle.check(solutions, require_front=True)
        if faults:
            # a run fails when it found a faulty solution
            unit.errors += faults.values()
            unit.failed = min(runs, sum(c for x, c in report.counts if x in faults))
        unit.fingerprint = _digest(harness.report_csv(report))
        rate = {x: c / runs for x, c in report.counts}
        unit.quality = {
            "pareto_recall": sum(rate.get(x, 0.0) for x in self.oracle.front) / len(self.oracle.front),
            "success_rate": float(np.mean([rate.get(x, 0.0) for x in self.oracle.known])),
            "hypervolume": self.oracle.hv_share(solutions),
        }
        busy = sum(report.wall_clock)
        unit.harness = {"parallel_efficiency": busy / (self.workers * (end - start)),
                        "pool_overhead_s": end - start - busy / self.workers}
        return unit


WORKLOADS = {"paper": paper, "wide": wide_solves, "experiment": Experiment}

"""The three integer multi-objective benchmark problems and their targets.

Each benchmark carries the solutions published for it: ``known_solutions``
are the ones established in the literature, ``reported_solutions`` the wider
set listed in published success-rate tables. All functions are module-level
so that specs pickle cleanly across worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .problems import Problem

__all__ = ["BenchmarkSpec", "benchmark", "BENCHMARK_NAMES"]

BENCHMARK_NAMES = ("p1", "p2", "p3")


# -- problem 1: three maximization objectives, two non-linear constraints ----

def p1_f1(x):
    return 2 * x[0] + 5 * x[1]


def p1_f2(x):
    return 3 * x[0] * x[1] - x[0] + 6 * x[1]


def p1_f3(x):
    return 2 * x[0] * x[0] + x[0] * x[1] - x[1]


def p1_g1(x):
    return x[0] + 2 * x[1] + 2.9 * math.sqrt(
        0.09 * x[0] * x[0] + 0.05 * x[1] * x[1] + 1.0
    ) - 18.0


def p1_g2(x):
    return 3 * x[0] + 2 * x[1] - 22.0


# -- problem 2: three quadratic minimization objectives, one constraint -----

def p2_f1(x):
    return x[0] * x[0] + 3 * x[1] * x[1]


def p2_f2(x):
    return 5 * x[0] * x[0] + x[1] * x[1]


def p2_f3(x):
    return 2 * x[0] * x[0] - x[1]


def p2_g1(x):
    return -x[0] - x[1] + 11.0


# -- problem 3: maximize both coordinates under five linear constraints -----

def p3_f1(x):
    return x[0]


def p3_f2(x):
    return x[1]


def p3_g1(x):
    return 2 * x[0] - x[1] - 21.0


def p3_g2(x):
    return 5 * x[0] + 1.5 * x[1] - 57.5


def p3_g3(x):
    return 4 * x[0] + 5 * x[1] - 61.1


def p3_g4(x):
    return 6 * x[0] + 15 * x[1] - 135.0


def p3_g5(x):
    return x[1] - 6.5


@dataclass(frozen=True)
class BenchmarkSpec:
    problem: Problem
    known_solutions: tuple[tuple[int, ...], ...]
    reported_solutions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for sol in self.known_solutions + self.reported_solutions:
            if not self.problem.in_bounds(sol):
                raise ValueError(f"target solution {sol} is outside the search box")


def benchmark(name: str) -> BenchmarkSpec:
    """Return one of the registered benchmarks (``p1``, ``p2``, ``p3``)."""
    if name == "p1":
        problem = Problem(
            dimension=2,
            objectives=((p1_f1, "max"), (p1_f2, "max"), (p1_f3, "max")),
            constraints=(p1_g1, p1_g2),
            lower_bounds=(1, 1),
            upper_bounds=(7, 5),
            name="p1",
        )
        known = ((4, 4), (2, 5), (6, 2), (5, 3))
        return BenchmarkSpec(problem, known, known)
    if name == "p2":
        problem = Problem(
            dimension=2,
            objectives=((p2_f1, "min"), (p2_f2, "min"), (p2_f3, "min")),
            constraints=(p2_g1,),
            lower_bounds=(0, 0),
            upper_bounds=(16, 16),
            name="p2",
        )
        # (10,1) and (9,2) from the literature list are dominated by other
        # lattice points
        known = (
            (1, 10), (2, 9), (3, 8), (4, 7), (5, 6),
            (6, 5), (7, 4), (8, 3), (9, 2), (10, 1),
        )
        reported = (
            (6, 5), (2, 9), (4, 7), (5, 6), (3, 8), (7, 4), (8, 3),
            (0, 11), (0, 14), (1, 10), (0, 15), (0, 12), (0, 16), (0, 13),
        )
        return BenchmarkSpec(problem, known, reported)
    if name == "p3":
        # no explicit box is published; [0,12]x[0,7] provably contains the
        # feasible region (5*x1 <= 57.5 and x2 <= 6.5)
        problem = Problem(
            dimension=2,
            objectives=((p3_f1, "max"), (p3_f2, "max")),
            constraints=(p3_g1, p3_g2, p3_g3, p3_g4, p3_g5),
            lower_bounds=(0, 0),
            upper_bounds=(12, 7),
            name="p3",
        )
        # (5,7) appears in published results but violates x2 <= 6.5
        reported = ((9, 5), (10, 4), (11, 1), (7, 6), (5, 7))
        return BenchmarkSpec(problem, ((9, 5),), reported)
    raise KeyError(f"unknown benchmark {name!r}; valid names: {', '.join(BENCHMARK_NAMES)}")

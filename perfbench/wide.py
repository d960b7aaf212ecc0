"""The ``wide`` workload's problem: a 6-variable integer program whose
lattice is far beyond the exhaustive oracle of ``moits.problems``.

Three convex quadratic minimization objectives and two linear knapsack
constraints at 12% of the box capacity, over the box [0, 20]^6 (21^6 = 8.6e7
lattice points; about 2.4e4 are feasible). The problem is fixed and the
benchmark's seed drives only the solver's random streams. Problems of this
shape drawn from the seed (random centers, weights and knapsack rows) have
exact fronts of 38 to 365 points, and one solve of each took 23 to 37
reference seconds over six seeds, a spread of 35%; the fixed problem's solve
time spreads by 5% over seeds. x = 0 is feasible by construction and serves
as the hypervolume reference point.

The callables are module-level classes so that problems pickle.
"""

from __future__ import annotations

import numpy as np

from moits import Problem

DIMENSION = 6
UPPER = 20
CAPACITY_SHARE = 0.12

KNAPSACKS = ((3.0, 3.0, 4.0, 5.0, 1.0, 1.0), (5.0, 5.0, 2.0, 2.0, 5.0, 3.0))
CENTERS = ((5, 17, 5, 8, 13, 11), (2, 9, 20, 2, 8, 8), (15, 20, 1, 15, 6, 11))
WEIGHTS = ((2.0, 1.9, 2.1, 2.0, 1.8, 2.2), (2.1, 2.0, 1.9, 2.2, 2.0, 1.8),
           (1.9, 2.2, 2.0, 1.8, 2.1, 2.0))


class Quadratic:
    """f(x) = sum_i w_i (x_i - c_i)^2."""

    def __init__(self, center, weights):
        self.center = tuple(center)
        self.weights = tuple(weights)

    def __call__(self, x):
        return sum(w * (v - c) ** 2 for v, c, w in zip(x, self.center, self.weights))


class Knapsack:
    """g(x) = a . x - capacity, feasible when <= 0."""

    def __init__(self, weights, capacity):
        self.weights = tuple(weights)
        self.capacity = capacity

    def __call__(self, x):
        return sum(a * v for a, v in zip(self.weights, x)) - self.capacity


def make_problem(upper: int = UPPER) -> Problem:
    """The problem over the box [0, upper]^6; the objectives' centers scale
    with ``upper`` and the capacities stay at the same share of the box."""
    constraints = tuple(
        Knapsack(a, round(CAPACITY_SHARE * sum(a) * upper, 6)) for a in KNAPSACKS
    )
    objectives = tuple(
        (Quadratic([c * upper // UPPER for c in center], weights), "min")
        for center, weights in zip(CENTERS, WEIGHTS)
    )
    return Problem(
        dimension=DIMENSION,
        objectives=objectives,
        constraints=constraints,
        lower_bounds=(0,) * DIMENSION,
        upper_bounds=(upper,) * DIMENSION,
        name="wide",
    )


def feasible_points(problem: Problem) -> np.ndarray:
    """Every feasible lattice point, enumerated coordinate by coordinate.

    The knapsack weights are positive and the box starts at 0, so a prefix
    whose partial weight already exceeds a capacity has no feasible
    completion and is pruned; the work is proportional to the feasible set
    (~2.4e4 points), not to the box.
    """
    weights = np.array([g.weights for g in problem.constraints])
    capacity = np.array([g.capacity for g in problem.constraints])
    points = np.zeros((1, 0), dtype=np.int64)
    for j, (lo, up) in enumerate(zip(problem.lower_bounds, problem.upper_bounds)):
        values = np.arange(lo, up + 1)
        points = np.hstack(
            (np.repeat(points, len(values), axis=0), np.tile(values, len(points))[:, None])
        )
        points = points[(points @ weights[:, : j + 1].T <= capacity).all(axis=1)]
    return points


def exact_front(problem: Problem) -> set[tuple[int, ...]]:
    """The exact Pareto set of the lattice: the oracle ``brute_force_pareto``
    refuses a box this large, so the feasible set is enumerated by pruning
    and filtered by a lexicographic sweep."""
    points = feasible_points(problem)
    values = np.column_stack(
        [[fn(tuple(p)) for p in points.tolist()] for fn, _ in problem.objectives]
    )
    order = np.lexsort(values.T[::-1])
    front_values = np.empty((0, values.shape[1]))
    front = set()
    for i in order:
        # in lexicographic order no later point dominates an earlier one,
        # so each point only needs testing against the front kept so far
        v = values[i]
        if ((front_values <= v).all(axis=1) & (front_values < v).any(axis=1)).any():
            continue
        front_values = np.vstack((front_values, v))
        front.add(tuple(int(c) for c in points[i]))
    return front

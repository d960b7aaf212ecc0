"""Integerizing a continuous solution with stochastic rounding + tabu search.

A real-valued point is rounded component-wise (up with probability equal to
the fractional part), then refined by +/-1 lattice moves. Recently-changed
variables are tabu for a random tenure unless the move beats the best point
found so far (aspiration); when the whole memory is stale, one coordinate is
re-sampled anywhere in its range (diversification).

Passing a `visited` set harvests every lattice point the walk lands on --
the hybrid pipeline archives all feasible ones, not just the single best.
"""

import numpy as np

from moits import benchmark
from moits.de import single_objective
from moits.tabu import stochastic_round, tabu_search

problem = benchmark("p1").problem
objective = single_objective(0, problem.n_objectives)
draw = np.random.default_rng(4).random  # one uniform in [0, 1) per call

continuous = (2.9495, 5.0)  # where the evolution stage converges (demo 03)
rounded = stochastic_round(continuous, draw)
print(f"continuous solution {continuous} rounds to {rounded}")

visited: set = set()
best = tabu_search(rounded, 200, objective, draw, problem=problem, visited=visited)
print(f"tabu search refines it to {best}")

feasible = sorted(p for p in visited if problem.in_bounds(p))
print(f"the walk visited {len(visited)} lattice points, e.g. {feasible[:6]} ...")

"""Integerizing a continuous solution with stochastic rounding + tabu search.

A real-valued point is rounded component-wise (up with probability equal to
the fractional part), then refined by +/-1 lattice moves. Recently-changed
variables are tabu for a random tenure unless the move beats the best point
found so far (aspiration); when the whole memory is stale, one coordinate is
re-sampled anywhere in its range (diversification).

A `CachedEvaluator` binds the problem and the objective and memoizes the
comparison key of every point the walk looks at in `evaluator.keys`. An
infeasible point is keyed by its constraint violation alone, so only the
feasible points are evaluated in full, into `evaluator.evals` -- the hybrid
pipeline archives all of them, not just the single best. The search returns
the flat lattice index of its best point, which `evaluator.point` decodes.
"""

import numpy as np

from moits import benchmark
from moits.de import single_objective
from moits.tabu import CachedEvaluator, stochastic_round, tabu_search

problem = benchmark("p1").problem
objective = single_objective(0, problem.n_objectives)
evaluator = CachedEvaluator(problem, objective)
draw = np.random.default_rng(4).random  # one uniform in [0, 1) per call

continuous = (2.9495, 5.0)  # where the evolution stage converges (demo 03)
rounded = stochastic_round(continuous, draw)
print(f"continuous solution {continuous} rounds to {rounded}")

best = tabu_search(rounded, 200, evaluator, draw)  # a flat lattice index
print(f"tabu search refines it to {evaluator.point(best)}")

feasible = sorted(evaluator.point(i) for i in evaluator.evals)
print(f"the walk looked at {len(evaluator.keys)} lattice points and evaluated the "
      f"{len(feasible)} feasible ones in full, e.g. {feasible[:6]} ...")

"""Integerizing a continuous solution with stochastic rounding + tabu search.

A real-valued point is rounded component-wise (up with probability equal to
the fractional part), then refined by +/-1 lattice moves. Recently-changed
variables are tabu for a random tenure unless the move beats the best point
found so far (aspiration); when the whole memory is stale, one coordinate is
re-sampled anywhere in its range (diversification).

A `CachedEvaluator` binds the problem and the objective and memoizes every
evaluation. The search returns the flat lattice index of its best point,
which `evaluator.point` decodes, and `evaluator.evals` holds every point the
walk evaluated -- the hybrid pipeline archives all feasible ones, not just the
single best.
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

feasible = sorted(evaluator.point(i) for i, ev in evaluator.evals.items() if ev.violation == 0.0)
print(f"the walk evaluated {len(evaluator.evals)} lattice points, {len(feasible)} of them "
      f"feasible, e.g. {feasible[:6]} ...")

"""Differential evolution with feasibility rules and TOPSIS-ranked bests.

The engine minimizes one scalar fitness at a time over a continuous box.
Selection uses the feasibility rules (feasible beats infeasible, fitness
among feasibles, violation among infeasibles); the variants that need a
"best" individual elect it by ranking (fitness, violation) pairs with
all-cost TOPSIS.

Three mutation variants are available: rand1, best, and degl, which blends
a ring-neighborhood local donor with a global one using a weight that grows
linearly over the run.
"""

import numpy as np

from moits import benchmark
from moits.de import DEConfig, choose_best, run, single_objective

problem = benchmark("p1").problem
# minimize the first objective (published as a maximization, so the engine
# sees its negation; smaller fitness = larger original value)
objective = single_objective(0, problem.n_objectives)

for variant in ("rand1", "best", "degl"):
    config = DEConfig(variant=variant)
    pop = run(problem, config, objective, np.random.default_rng(7).random)
    best = pop[choose_best(pop, range(len(pop)), objective)]
    print(
        f"{variant:>6}: x = ({best.x[0]:.4f}, {best.x[1]:.4f})  "
        f"original objective = {-best.eval.objectives_min[0]:.4f}  "
        f"violation = {best.eval.violation:.2e}"
    )

print("\nall variants converge to the continuous constrained optimum;")
print("integerization is the tabu-search stage's job (see demo 04).")

"""Properties of ``de.run`` and ``solve`` on random small problems.

The benchmarks p1, p2 and p3 pin these behaviours for three fixed problems;
here hypothesis draws integer programs of 2 or 3 variables over boxes of at
most a few hundred lattice points, with 2 or 3 quadratic or linear objectives
of either sense and up to two linear constraints that some lattice point of
the box meets, and runs reduced configs so that each example takes tens of
milliseconds.
"""

from unittest import mock

import numpy as np
from hypothesis import event, example, given, settings, strategies as st

from moits import tabu
from moits.de import VARIANTS, DEConfig, init_population, run, single_objective
from moits.pipeline import HybridConfig, solve
from moits.problems import Problem, brute_force_pareto, deb_key, dominates, evaluate


class Quadratic:
    def __init__(self, center, weights):
        self.center, self.weights = center, weights

    def __call__(self, x):
        return sum(w * (v - c) ** 2 for v, c, w in zip(x, self.center, self.weights))

    def __repr__(self):
        return f"Quadratic({self.center}, {self.weights})"


class Linear:
    """a . x - b; as a constraint, feasible when <= 0."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __call__(self, x):
        return sum(a * v for a, v in zip(self.a, x)) - self.b

    def __repr__(self):
        return f"Linear({self.a}, {self.b})"


@st.composite
def small_problems(draw):
    n = draw(st.integers(2, 3))
    lower = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    widths = draw(st.lists(st.integers(0, 12 if n == 2 else 6), min_size=n, max_size=n))
    upper = [lo + w for lo, w in zip(lower, widths)]
    coefficients = st.lists(st.integers(-3, 3), min_size=n, max_size=n)

    def objective():
        if draw(st.booleans()):
            center = [draw(st.integers(lo - 2, up + 2)) for lo, up in zip(lower, upper)]
            fn = Quadratic(center, draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        else:
            fn = Linear(draw(coefficients), 0)
        return fn, draw(st.sampled_from(["min", "max"]))

    objectives = tuple(objective() for _ in range(draw(st.integers(2, 3))))
    inside = [draw(st.integers(lo, up)) for lo, up in zip(lower, upper)]

    def constraint():
        a = draw(coefficients)
        return Linear(a, sum(c * v for c, v in zip(a, inside)) + draw(st.integers(0, 8)))

    constraints = tuple(constraint() for _ in range(draw(st.integers(0, 2))))
    return Problem(
        dimension=n,
        objectives=objectives,
        constraints=constraints,
        lower_bounds=tuple(lower),
        upper_bounds=tuple(upper),
    )


class TestRunProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        problem=small_problems(),
        variant=st.sampled_from(VARIANTS),
        objective_index=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_members_stay_in_box_and_no_slot_worsens(self, problem, variant, objective_index,
                                                      seed):
        objective = single_objective(objective_index % problem.n_objectives,
                                     problem.n_objectives)
        config = DEConfig(population_size=8, max_iterations=6, variant=variant)
        draw = np.random.default_rng(seed).random
        start = init_population(problem, config, draw)
        pop = run(problem, config, objective, draw, initial=start)
        assert len(pop) == len(start)
        for before, after in zip(start, pop):
            assert problem.in_bounds(after.x)
            assert (deb_key(objective(after.eval.objectives_min), after.eval.violation)
                    <= deb_key(objective(before.eval.objectives_min), before.eval.violation))


# a constrained problem whose 42-point box stage 3 keys whole under the
# property test's config
FULLY_KEYED = Problem(
    dimension=2,
    objectives=((Quadratic([1, 4], [1, 2]), "min"), (Linear([2, -1], 0), "max")),
    constraints=(Linear([1, 1], 6),),
    lower_bounds=(-2, 0),
    upper_bounds=(4, 5),
)


class TestSolveProperties:
    @settings(max_examples=100, deadline=None)
    @example(problem=FULLY_KEYED, variant="degl", oracle_anchors=False, seed=0)
    @given(
        problem=small_problems(),
        variant=st.sampled_from(VARIANTS),
        oracle_anchors=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_archive_is_feasible_non_dominated_and_true_to_the_problem(
        self, problem, variant, oracle_anchors, seed
    ):
        config = HybridConfig(
            de=DEConfig(population_size=8, max_iterations=8, variant=variant),
            ts_iterations=1000,
            alternations=2,
            runs=1,
            oracle_anchors=oracle_anchors,
        )
        evaluators = []
        real = tabu.CachedEvaluator

        def spied(*args):
            evaluators.append(real(*args))
            return evaluators[-1]

        with mock.patch.object(tabu, "CachedEvaluator", spied):
            archive = solve(problem, config, np.random.default_rng(seed))
        [evaluator] = evaluators  # stage 3's
        entries = archive.entries
        for x, entry in entries.items():
            again = evaluate(problem, x)
            assert again.violation == 0.0
            assert entry.evaluation.objectives_min == again.objectives_min
        for x, entry in entries.items():
            assert not any(dominates(other.evaluation, entry.evaluation)
                           for y, other in entries.items() if y != x)
        # stage 3 archives every feasible point its walks evaluated: once they have
        # keyed the whole box, that is every feasible point, and the archive is the
        # exact front; otherwise only front points survive among those it saw
        front = {x for x, _ in brute_force_pareto(problem)}
        if len(evaluator.keys) == problem.lattice_size():
            event("stage 3 keyed the whole lattice: the archive is the front")
            assert set(entries) == front
        else:
            event("stage 3 left lattice points unkeyed: the archive is within the front")
            assert set(entries) <= front

    def test_front_point_seen_only_as_a_neighbour(self):
        # shrunk by hypothesis from the exact-front assertion above: every point of this
        # lattice is evaluated, but (-1, 5, 1) only as a scan neighbour, never landed on;
        # an archive of the landings alone would keep (-1, 4, 2) and (-1, 6, 0), which it
        # dominates
        problem = Problem(
            dimension=3,
            objectives=((Quadratic([-3, 2, -2], [1, 1, 1]), "min"), (Linear([1, 2, 2], 0), "max")),
            constraints=(),
            lower_bounds=(-3, 4, -2),
            upper_bounds=(-1, 7, 3),
        )
        config = HybridConfig(de=DEConfig(population_size=8, max_iterations=8, variant="degl"),
                              ts_iterations=1000, alternations=2, runs=1)
        archive = solve(problem, config, np.random.default_rng(0))
        front = {x for x, _ in brute_force_pareto(problem)}
        assert set(archive.solutions()) <= front

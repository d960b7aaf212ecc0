import collections

import numpy as np
import pytest

import moits.de as de
from moits.benchmarks import benchmark
from moits.de import (
    DEConfig,
    Individual,
    choose_best,
    clamp,
    crossover,
    init_population,
    local_global_donors,
    mutate_best,
    mutate_degl,
    mutate_rand1,
    run,
    single_objective,
    weight_r,
)
from moits.problems import Evaluation, Problem, deb_key, evaluate, feasible_lattice


def box_problem(lower, upper):
    return Problem(
        dimension=len(lower),
        objectives=((lambda x: sum(v * v for v in x), "min"),),
        constraints=(),
        lower_bounds=lower,
        upper_bounds=upper,
    )


def make_pop(xs, problem=None):
    problem = problem or box_problem((-100,) * len(xs[0]), (100,) * len(xs[0]))
    return [Individual(np.array(x, dtype=float), evaluate(problem, x)) for x in xs]


OBJ1 = single_objective(0, 1)


def ring(pop, i, k, objective=OBJ1):
    """The ring neighborhood of member ``i`` and its elected best, as DEGL
    keyword arguments."""
    neigh = de._neighborhood(i, k, len(pop))
    return dict(neigh=neigh, local_best=choose_best(pop, neigh, objective))


def box(problem):
    return (
        np.asarray(problem.lower_bounds, dtype=float),
        np.asarray(problem.upper_bounds, dtype=float),
    )


class TestConfig:
    def test_defaults_match_parameter_table(self):
        cfg = DEConfig()
        assert (cfg.population_size, cfg.max_iterations) == (40, 100)
        assert (cfg.crossover_rate, cfg.scale_factor) == (0.9, 0.8)
        assert (cfg.alpha, cfg.beta, cfg.neighborhood_k) == (0.8, 0.8, 2)

    def test_population_floor(self):
        with pytest.raises(ValueError):
            DEConfig(population_size=3)

    def test_neighborhood_fits_population(self):
        with pytest.raises(ValueError):
            DEConfig(population_size=4, neighborhood_k=2)

    def test_scale_factor_warning(self):
        with pytest.warns(UserWarning):
            DEConfig(scale_factor=0.1)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            DEConfig(variant="jde")


class TestInit:
    def test_degenerate_box(self):
        problem = box_problem((3, 3), (3, 3))
        pop = init_population(problem, DEConfig(population_size=5), np.random.default_rng(0))
        for ind in pop:
            assert ind.x.tolist() == [3.0, 3.0]

    def test_formula_with_constant_draws(self):
        class HalfRng:
            def random(self, size=None):
                return np.full(size, 0.5)

        problem = box_problem((0, 0), (1, 1))
        pop = init_population(problem, DEConfig(population_size=4, neighborhood_k=1), HalfRng())
        for ind in pop:
            assert ind.x.tolist() == [0.5, 0.5]

    def test_all_individuals_inside_p1_box(self):
        problem = benchmark("p1").problem
        for seed in range(30):
            pop = init_population(problem, DEConfig(), np.random.default_rng(seed))
            for ind in pop:
                assert problem.in_bounds(ind.x)


class TestMutation:
    def test_rand1_arithmetic(self, monkeypatch):
        pop = make_pop([(1, 1), (3, 3), (1, 1), (9, 9)])
        monkeypatch.setattr(de, "_draw_distinct", lambda rng, pool, excl, n: [0, 1, 2])
        donor = mutate_rand1(pop, 3, 0.8, None)
        np.testing.assert_allclose(donor, [2.6, 2.6])

    def test_rand1_zero_difference(self, monkeypatch):
        pop = make_pop([(1, 2), (5, 5), (5, 5), (0, 0)])
        monkeypatch.setattr(de, "_draw_distinct", lambda rng, pool, excl, n: [0, 1, 2])
        np.testing.assert_allclose(mutate_rand1(pop, 3, 0.8, None), [1.0, 2.0])

    def test_rand1_f_zero_returns_population_member(self):
        pop = make_pop([(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)])
        rng = np.random.default_rng(0)
        donor = mutate_rand1(pop, 0, 0.0, rng)
        assert any(np.array_equal(donor, ind.x) for ind in pop[1:])

    def test_best_places_best_in_difference_term(self, monkeypatch):
        pop = make_pop([(0, 0), (1, 1), (7, 7), (2, 2)])
        monkeypatch.setattr(de, "_draw_distinct", lambda rng, pool, excl, n: [0, 1])
        donor = mutate_best(pop, 3, 0.8, gbest_index=1, rng=None)
        np.testing.assert_allclose(donor, [0.0, 0.0])

    def test_best_canonical_form(self, monkeypatch):
        pop = make_pop([(0, 0), (4, 4), (7, 7), (2, 2)])
        monkeypatch.setattr(de, "_draw_distinct", lambda rng, pool, excl, n: [0, 1])
        donor = mutate_best(pop, 3, 0.5, gbest_index=2, rng=None, canonical=True)
        np.testing.assert_allclose(donor, [5.0, 5.0])

    def test_degl_endpoints_exact(self):
        pop = make_pop([(i, 2 * i) for i in range(6)])
        kwargs = dict(alpha=0.8, beta=0.8, gbest_index=0, **ring(pop, 2, 2))
        local, glob = local_global_donors(pop, 2, rng=np.random.default_rng(7), **kwargs)
        v0 = mutate_degl(pop, 2, r=0.0, rng=np.random.default_rng(7), **kwargs)
        v1 = mutate_degl(pop, 2, r=1.0, rng=np.random.default_rng(7), **kwargs)
        assert np.array_equal(v0, local)
        assert np.array_equal(v1, glob)

    def test_degl_identical_population_is_fixed_point(self):
        pop = make_pop([(3, 4)] * 6)
        for r in (0.0, 0.3, 1.0):
            donor = mutate_degl(
                pop, 1, alpha=0.8, beta=0.8, r=r, **ring(pop, 1, 2),
                rng=np.random.default_rng(0), gbest_index=0,
            )
            np.testing.assert_allclose(donor, [3.0, 4.0])

    def test_distinct_indices_exclude_target(self):
        pop = make_pop([(i,) for i in range(5)])
        rng = np.random.default_rng(1)
        for _ in range(50):
            picks = de._draw_distinct(rng, range(5), (2,), 3)
            assert 2 not in picks and len(set(picks)) == 3


class TestWeight:
    @pytest.mark.parametrize(
        "iteration,maximum,expected", [(100, 100, 1.0), (1, 100, 0.01), (50, 100, 0.5)]
    )
    def test_linear_schedule(self, iteration, maximum, expected):
        assert weight_r(iteration, maximum) == expected


class TestCrossover:
    def test_cr_one_copies_donor(self):
        rng = np.random.default_rng(0)
        target, donor = np.zeros(6), np.arange(6.0)
        np.testing.assert_array_equal(crossover(target, donor, 1.0, rng), donor)

    def test_cr_zero_forces_single_component(self):
        rng = np.random.default_rng(0)
        target, donor = np.zeros(6), np.ones(6)
        for _ in range(20):
            trial = crossover(target, donor, 0.0, rng)
            changed = np.flatnonzero(trial != target)
            assert len(changed) == 1 and trial[changed[0]] == 1.0

    def test_equal_vectors_unchanged(self):
        rng = np.random.default_rng(0)
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(crossover(x, x.copy(), 0.5, rng), x)


class TestClamp:
    def test_clips_to_box(self):
        problem = benchmark("p1").problem
        np.testing.assert_array_equal(clamp(np.array([9.0, 3.0]), *box(problem)), [7.0, 3.0])

    def test_inside_unchanged(self):
        problem = benchmark("p1").problem
        np.testing.assert_array_equal(clamp(np.array([2.0, 2.0]), *box(problem)), [2.0, 2.0])

    def test_both_sides(self):
        problem = box_problem((0, 0), (5, 5))
        np.testing.assert_array_equal(clamp(np.array([-2.0, 8.0]), *box(problem)), [0.0, 5.0])


def individual(fitness, violation=0.0):
    return Individual(np.zeros(1), Evaluation((float(fitness),), violation))


def replaces(target, trial, objective=OBJ1):
    """The survivor rule of ``run``: the trial replaces the target iff its
    ``deb_key`` is strictly smaller."""
    key = lambda ind: deb_key(objective.fitness(ind.eval), ind.eval.violation)
    return key(trial) < key(target)


class TestSelect:
    def test_feasible_trial_beats_infeasible_target(self):
        assert replaces(individual(1, violation=2.0), individual(5))

    def test_tie_keeps_target(self):
        assert not replaces(individual(2), individual(2))

    def test_lower_violation_wins_among_infeasible(self):
        assert replaces(individual(0, violation=2.0), individual(0, violation=1.0))

    def test_better_fitness_wins_among_feasible(self):
        assert replaces(individual(5), individual(1))


class TestChooseBest:
    def test_single_candidate(self):
        pop = make_pop([(3,)])
        assert choose_best(pop, [0], OBJ1) == 0

    def test_dominant_candidate_wins(self):
        pop = [individual(5, 1.0), individual(1, 0.5), individual(4, 2.0)]
        assert choose_best(pop, range(3), OBJ1) == 1

    def test_zero_violation_column_reduces_to_fitness(self):
        pop = [individual(5), individual(1)]
        assert choose_best(pop, range(2), OBJ1) == 1

    def test_result_member_of_index_set(self):
        pop = make_pop([(i,) for i in range(10)])
        subset = [7, 8, 9, 0, 1]
        assert choose_best(pop, subset, OBJ1) in subset

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            choose_best([], [], OBJ1)


class TestRun:
    CFG = dict(population_size=8, max_iterations=20, neighborhood_k=2)

    @pytest.mark.parametrize("variant", ["rand1", "best", "degl"])
    def test_determinism(self, variant):
        problem = benchmark("p1").problem
        obj = single_objective(0, 3)
        cfg = DEConfig(variant=variant, **self.CFG)
        pops = [
            run(problem, cfg, obj, np.random.default_rng(123)) for _ in range(2)
        ]
        for a, b in zip(*pops):
            assert np.array_equal(a.x, b.x)
            assert a.eval == b.eval

    @pytest.mark.parametrize("variant", ["rand1", "best", "degl"])
    def test_box_containment(self, variant):
        problem = benchmark("p3").problem
        cfg = DEConfig(variant=variant, **self.CFG)
        pop = run(problem, cfg, single_objective(1, 2), np.random.default_rng(5))
        for ind in pop:
            assert problem.in_bounds(ind.x)

    def test_zero_width_box_keeps_population(self):
        problem = box_problem((2, 2), (2, 2))
        cfg = DEConfig(population_size=6, max_iterations=5, neighborhood_k=1)
        pop = run(problem, cfg, OBJ1, np.random.default_rng(0))
        for ind in pop:
            assert ind.x.tolist() == [2.0, 2.0]

    def test_rand1_never_consults_best_index(self, monkeypatch):
        problem = benchmark("p1").problem

        def boom(*args, **kwargs):
            raise AssertionError("best-index lookup in rand1")

        monkeypatch.setattr(de, "_elect", boom)
        cfg = DEConfig(variant="rand1", population_size=8, max_iterations=3)
        run(problem, cfg, single_objective(0, 3), np.random.default_rng(0))

    @pytest.mark.parametrize("variant", ["rand1", "best", "degl"])
    def test_run_composes_its_primitives(self, variant, monkeypatch):
        calls = collections.Counter()

        def spy(name):
            original = getattr(de, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(de, name, counted)

        for name in ("mutate_rand1", "mutate_best", "mutate_degl", "crossover", "clamp"):
            spy(name)
        cfg = DEConfig(variant=variant, **self.CFG)
        run(benchmark("p1").problem, cfg, single_objective(0, 3), np.random.default_rng(0))
        steps = cfg.population_size * cfg.max_iterations
        assert calls == {f"mutate_{variant}": steps, "crossover": steps, "clamp": steps}

    @pytest.mark.parametrize("name", ["p1", "p2", "p3"])
    def test_elitism_monotone_over_generations(self, name):
        problem = benchmark(name).problem
        obj = single_objective(0, problem.n_objectives)
        cfg = DEConfig(population_size=10, max_iterations=1, variant="degl")
        rng = np.random.default_rng(11)
        pop = de.init_population(problem, cfg, rng)
        last = None
        for _ in range(100):
            pop = run(problem, cfg, obj, rng, initial=pop)
            best = choose_best(pop, range(len(pop)), obj)
            key = deb_key(obj.fitness(pop[best].eval), pop[best].eval.violation)
            assert last is None or key <= last
            last = key

    def test_converges_to_continuous_constrained_optimum(self):
        # The first objective of p1 grows with both variables, so its
        # continuous maximizer sits at x2 = 5 where the nonlinear constraint
        # x1 + 2*x2 + 2.9*sqrt(0.09*x1^2 + 0.05*x2^2 + 1) = 18 is active.
        # Substituting x2 = 5 and squaring gives a quadratic in x1.
        a, b, c = 1.0 - 8.41 * 0.09, -16.0, 64.0 - 8.41 * 2.25
        x1_star = (-b - np.sqrt(b * b - 4 * a * c)) / (2 * a)
        target = np.array([x1_star, 5.0])
        obj = single_objective(0, 3)
        problem = benchmark("p1").problem
        hits = 0
        for seed in range(20):
            pop = run(problem, DEConfig(variant="degl"), obj, np.random.default_rng(seed))
            best = pop[choose_best(pop, range(len(pop)), obj)]
            assert best.eval.violation == 0.0
            if np.linalg.norm(best.x - target) <= 1e-3:
                hits += 1
        assert hits >= 18

    def test_population_best_no_worse_than_lattice_best(self):
        # relaxing integrality can only improve the optimum
        problem = benchmark("p1").problem
        obj = single_objective(0, 3)
        lattice_best = min(
            e.objectives_min[0] for _, e in feasible_lattice(problem)
        )
        pop = run(problem, DEConfig(variant="degl"), obj, np.random.default_rng(3))
        best = pop[choose_best(pop, range(len(pop)), obj)]
        assert best.eval.objectives_min[0] <= lattice_best

import collections
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import moits.de as de
from moits.benchmarks import benchmark
from moits.de import (
    DEConfig,
    Individual,
    choose_best,
    clamp,
    crossover,
    init_population,
    mutate_best,
    mutate_degl,
    mutate_rand1,
    run,
    single_objective,
    weight_r,
)
from moits.problems import Evaluation, Problem, deb_key, evaluate, feasible_lattice
from moits.topsis import cost_closeness


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
    return [Individual(tuple(map(float, x)), evaluate(problem, x)) for x in xs]


OBJ1 = single_objective(0, 1)


def rows(pop):
    """The population's points as the float lists the primitives take."""
    return [list(ind.x) for ind in pop]


def ring(pop, i, k, objective=OBJ1):
    """The ring neighborhood of member ``i`` and its elected best, as DEGL
    keyword arguments."""
    neigh = de._neighborhood(i, k, len(pop))
    return dict(neigh=neigh, local_best=choose_best(pop, neigh, objective))


def box(problem):
    return [float(v) for v in problem.lower_bounds], [float(v) for v in problem.upper_bounds]


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

    @pytest.mark.parametrize("name", ["scale_factor", "alpha", "beta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DEConfig(**{name: value})


class TestInit:
    def test_degenerate_box(self):
        problem = box_problem((3, 3), (3, 3))
        draw = np.random.default_rng(0).random
        pop = init_population(problem, DEConfig(population_size=5), draw)
        for ind in pop:
            assert list(ind.x) == [3.0, 3.0]

    def test_formula_with_constant_draws(self):
        problem = box_problem((0, 0), (1, 1))
        pop = init_population(problem, DEConfig(population_size=4, neighborhood_k=1), lambda: 0.5)
        for ind in pop:
            assert list(ind.x) == [0.5, 0.5]

    def test_all_individuals_inside_p1_box(self):
        problem = benchmark("p1").problem
        for seed in range(30):
            pop = init_population(problem, DEConfig(), np.random.default_rng(seed).random)
            for ind in pop:
                assert problem.in_bounds(ind.x)


class TestMutation:
    def test_rand1_arithmetic(self, monkeypatch):
        pop = make_pop([(1, 1), (3, 3), (1, 1), (9, 9)])
        monkeypatch.setattr(de, "_draw_distinct", lambda draw, pool, excl, n: [0, 1, 2])
        donor = mutate_rand1(rows(pop), 3, 0.8, None)
        np.testing.assert_allclose(donor, [2.6, 2.6])

    def test_rand1_zero_difference(self, monkeypatch):
        pop = make_pop([(1, 2), (5, 5), (5, 5), (0, 0)])
        monkeypatch.setattr(de, "_draw_distinct", lambda draw, pool, excl, n: [0, 1, 2])
        np.testing.assert_allclose(mutate_rand1(rows(pop), 3, 0.8, None), [1.0, 2.0])

    def test_rand1_f_zero_returns_population_member(self):
        pop = make_pop([(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)])
        rng = np.random.default_rng(0)
        donor = mutate_rand1(rows(pop), 0, 0.0, rng.random)
        assert any(np.array_equal(donor, ind.x) for ind in pop[1:])

    def test_best_places_best_in_difference_term(self, monkeypatch):
        pop = make_pop([(0, 0), (1, 1), (7, 7), (2, 2)])
        monkeypatch.setattr(de, "_draw_distinct", lambda draw, pool, excl, n: [0, 1])
        donor = mutate_best(rows(pop), 3, 0.8, gbest_index=1, draw=None)
        np.testing.assert_allclose(donor, [0.0, 0.0])

    def test_degl_endpoints_exact(self, monkeypatch):
        pop = make_pop([(i, 2 * i) for i in range(6)])
        xs = rows(pop)
        kwargs = dict(alpha=0.7, beta=0.4, gbest_index=5, **ring(pop, 2, 2))
        picks = iter([[1, 3], [4, 0]] * 2)  # neighbors p, q, then members p2, q2
        monkeypatch.setattr(de, "_draw_distinct", lambda draw, pool, excl, n: next(picks))
        v0 = mutate_degl(xs, 2, r=0.0, draw=None, **kwargs)
        v1 = mutate_degl(xs, 2, r=1.0, draw=None, **kwargs)
        x = np.array(xs)
        local = x[2] + 0.7 * (x[kwargs["local_best"]] - x[2]) + 0.4 * (x[1] - x[3])
        glob = x[2] + 0.7 * (x[5] - x[2]) + 0.4 * (x[4] - x[0])
        assert np.array(v0).tobytes() == local.tobytes()
        assert np.array(v1).tobytes() == glob.tobytes()

    def test_degl_identical_population_is_fixed_point(self):
        pop = make_pop([(3, 4)] * 6)
        for r in (0.0, 0.3, 1.0):
            donor = mutate_degl(
                rows(pop), 1, alpha=0.8, beta=0.8, r=r, **ring(pop, 1, 2),
                draw=np.random.default_rng(0).random, gbest_index=0,
            )
            np.testing.assert_allclose(donor, [3.0, 4.0])

    def test_distinct_indices_exclude_target(self):
        pop = make_pop([(i,) for i in range(5)])
        rng = np.random.default_rng(1)
        for _ in range(50):
            picks = de._draw_distinct(rng.random, range(5), (2,), 3)
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
        np.testing.assert_array_equal(
            crossover(target.tolist(), donor.tolist(), 1.0, rng.random), donor
        )

    def test_cr_zero_forces_single_component(self):
        rng = np.random.default_rng(0)
        target, donor = np.zeros(6), np.ones(6)
        for _ in range(20):
            trial = np.array(crossover(target.tolist(), donor.tolist(), 0.0, rng.random))
            changed = np.flatnonzero(trial != target)
            assert len(changed) == 1 and trial[changed[0]] == 1.0

    def test_draw_equal_to_rate_takes_donor(self):
        assert crossover([0.0, 0.0], [1.0, 1.0], 0.5, lambda: 0.5) == [1.0, 1.0]

    def test_equal_vectors_unchanged(self):
        rng = np.random.default_rng(0)
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(crossover(x.tolist(), x.tolist(), 0.5, rng.random), x)


class TestClamp:
    def test_clips_to_box(self):
        problem = benchmark("p1").problem
        np.testing.assert_array_equal(clamp([9.0, 3.0], *box(problem)), [7.0, 3.0])

    def test_inside_unchanged(self):
        problem = benchmark("p1").problem
        np.testing.assert_array_equal(clamp([2.0, 2.0], *box(problem)), [2.0, 2.0])

    def test_both_sides(self):
        problem = box_problem((0, 0), (5, 5))
        np.testing.assert_array_equal(clamp([-2.0, 8.0], *box(problem)), [0.0, 5.0])


def individual(fitness, violation=0.0):
    return Individual((0.0,), Evaluation((float(fitness),), violation))


def replaces(target, trial, objective=OBJ1):
    """The survivor rule of ``run``: the trial replaces the target iff its
    ``deb_key`` is strictly smaller."""
    key = lambda ind: deb_key(objective(ind.eval.objectives_min), ind.eval.violation)
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


class TestSingleObjective:
    @pytest.mark.parametrize("index", [-1, 3])
    @pytest.mark.parametrize("negate", [False, True])
    def test_index_out_of_range(self, index, negate):
        with pytest.raises(IndexError):
            single_objective(index, 3, negate=negate)

    def test_reads_one_column(self):
        assert [single_objective(j, 3)((1.5, -2.0, 4.0)) for j in range(3)] == [1.5, -2.0, 4.0]

    def test_negate_returns_the_negated_column(self):
        f = (1.5, -2.0, 4.0)
        assert [single_objective(j, 3, negate=True)(f) for j in range(3)] == [-1.5, 2.0, -4.0]


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
            run(problem, cfg, obj, np.random.default_rng(123).random) for _ in range(2)
        ]
        for a, b in zip(*pops):
            assert np.array_equal(a.x, b.x)
            assert a.eval == b.eval

    @pytest.mark.parametrize("variant", ["rand1", "best", "degl"])
    def test_box_containment(self, variant):
        problem = benchmark("p3").problem
        cfg = DEConfig(variant=variant, **self.CFG)
        pop = run(problem, cfg, single_objective(1, 2), np.random.default_rng(5).random)
        for ind in pop:
            assert problem.in_bounds(ind.x)

    def test_zero_width_box_keeps_population(self):
        problem = box_problem((2, 2), (2, 2))
        cfg = DEConfig(population_size=6, max_iterations=5, neighborhood_k=1)
        pop = run(problem, cfg, OBJ1, np.random.default_rng(0).random)
        for ind in pop:
            assert list(ind.x) == [2.0, 2.0]

    def test_rand1_never_consults_best_index(self, monkeypatch):
        problem = benchmark("p1").problem

        def boom(*args, **kwargs):
            raise AssertionError("best-index lookup in rand1")

        monkeypatch.setattr(de, "_elect", boom)
        cfg = DEConfig(variant="rand1", population_size=8, max_iterations=3)
        run(problem, cfg, single_objective(0, 3), np.random.default_rng(0).random)

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
        run(benchmark("p1").problem, cfg, single_objective(0, 3), np.random.default_rng(0).random)
        steps = cfg.population_size * cfg.max_iterations
        assert calls == {f"mutate_{variant}": steps, "crossover": steps, "clamp": steps}

    @pytest.mark.parametrize("variant", ["rand1", "best", "degl"])
    def test_constant_fitness_keeps_every_feasible_member(self, variant):
        # every feasible trial ties its feasible target, and a tie keeps the target
        problem = benchmark("p2").problem
        cfg = DEConfig(variant=variant, **self.CFG)
        draw = np.random.default_rng(0).random
        start = init_population(problem, cfg, draw)
        pop = run(problem, cfg, lambda f: 0.0, draw, initial=start)
        feasible = [i for i, ind in enumerate(start) if ind.eval.violation == 0.0]
        assert feasible
        assert [pop[i].x for i in feasible] == [start[i].x for i in feasible]

    @pytest.mark.parametrize("name", ["p1", "p2", "p3"])
    def test_elitism_monotone_over_generations(self, name):
        problem = benchmark(name).problem
        obj = single_objective(0, problem.n_objectives)
        cfg = DEConfig(population_size=10, max_iterations=1, variant="degl")
        draw = np.random.default_rng(11).random
        pop = de.init_population(problem, cfg, draw)
        last = None
        for _ in range(100):
            pop = run(problem, cfg, obj, draw, initial=pop)
            best = choose_best(pop, range(len(pop)), obj)
            key = deb_key(obj(pop[best].eval.objectives_min), pop[best].eval.violation)
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
            pop = run(problem, DEConfig(variant="degl"), obj, np.random.default_rng(seed).random)
            best = pop[choose_best(pop, range(len(pop)), obj)]
            assert best.eval.violation == 0.0
            if np.linalg.norm(np.asarray(best.x) - target) <= 1e-3:
                hits += 1
        assert hits >= 18

    def test_population_best_no_worse_than_lattice_best(self):
        # relaxing integrality can only improve the optimum
        problem = benchmark("p1").problem
        obj = single_objective(0, 3)
        lattice_best = min(
            e.objectives_min[0] for _, e in feasible_lattice(problem)
        )
        pop = run(problem, DEConfig(variant="degl"), obj, np.random.default_rng(3).random)
        best = pop[choose_best(pop, range(len(pop)), obj)]
        assert best.eval.objectives_min[0] <= lattice_best

    @pytest.mark.parametrize("initial", [False, True])
    @pytest.mark.parametrize("name", ["p1", "p2", "corner"])
    @pytest.mark.parametrize("variant", ["rand1", "best", "degl"])
    def test_each_member_record_is_its_evaluation(self, variant, name, initial):
        # slots hold objective tuples; the records are built when the run returns
        problem = CORNER if name == "corner" else benchmark(name).problem
        cfg = DEConfig(variant=variant, **self.CFG)
        draw = np.random.default_rng(2).random
        start = init_population(problem, cfg, draw) if initial else None
        pop = run(problem, cfg, single_objective(0, problem.n_objectives), draw, initial=start)
        assert [ind.eval for ind in pop] == [evaluate(problem, ind.x) for ind in pop]
        if initial:  # some member was replaced
            assert [ind.x for ind in pop] != [ind.x for ind in start]


# its optimum is the box corner, which clamping reaches exactly, so a run's
# population stops improving
CORNER = box_problem((1, 1), (6, 6))


def spy(monkeypatch, name, log, record):
    """Wrap ``de.<name>`` so that each call appends ``record(args, result)``
    to ``log``."""
    original = getattr(de, name)

    def spied(*args, **kwargs):
        result = original(*args, **kwargs)
        log.append(record(args, result))
        return result

    monkeypatch.setattr(de, name, spied)


class TestElections:
    """``run`` elects its bests at generation 1 and after every generation that
    replaced a member; TestKernelMatchesReference, whose reference re-elects
    every generation, shows the skipped elections change nothing."""

    GENERATIONS = 60

    @pytest.mark.parametrize("variant, per_generation", [("best", 1), ("degl", 2)])
    def test_zero_width_box_elects_once(self, variant, per_generation, monkeypatch):
        elections = []
        spy(monkeypatch, "_elect", elections, lambda args, result: result)
        cfg = DEConfig(variant=variant, population_size=6, max_iterations=5, neighborhood_k=1)
        run(box_problem((2, 2), (2, 2)), cfg, OBJ1, np.random.default_rng(0).random)
        assert len(elections) == per_generation

    def elections(self, problem, variant, monkeypatch):
        """The generation of each election of a run, and the generations
        expected to elect: the first, and each after one that replaced a
        member, found by replaying the selection on the logged clamped trials.
        The replay evaluates every trial, those equal to their targets too,
        which ``run`` skips."""
        objective = single_objective(0, problem.n_objectives)
        cfg = DEConfig(variant=variant, population_size=8, max_iterations=self.GENERATIONS)
        draw = np.random.default_rng(4).random
        start = init_population(problem, cfg, draw)
        generation, elections, trials = [], [], []
        spy(monkeypatch, "weight_r", generation, lambda args, result: args[0])
        spy(monkeypatch, "_elect", elections, lambda args, result: generation[-1])
        spy(monkeypatch, "clamp", trials, lambda args, result: result)
        run(problem, cfg, objective, draw, initial=start)
        assert len(trials) == cfg.population_size * cfg.max_iterations
        keys = [deb_key(objective(ind.eval.objectives_min), ind.eval.violation) for ind in start]
        replaced = set()
        for n, trial in enumerate(trials):
            g, i = divmod(n, cfg.population_size)
            ev = evaluate(problem, trial)
            key = deb_key(objective(ev.objectives_min), ev.violation)
            if key < keys[i]:
                keys[i] = key
                replaced.add(g + 1)
        expected = [1] + [g for g in range(2, cfg.max_iterations + 1) if g - 1 in replaced]
        return elections, expected

    @pytest.mark.parametrize("name", ["p1", "p2", "p3", "corner"])
    @pytest.mark.parametrize("variant, per_generation", [("best", 1), ("degl", 2)])
    def test_elects_after_each_generation_that_replaced(
        self, name, variant, per_generation, monkeypatch
    ):
        problem = CORNER if name == "corner" else benchmark(name).problem
        elections, expected = self.elections(problem, variant, monkeypatch)
        assert collections.Counter(elections) == {g: per_generation for g in expected}

    @pytest.mark.parametrize("variant", ["best", "degl"])
    def test_skips_generations_that_replaced_nobody(self, variant, monkeypatch):
        _, expected = self.elections(CORNER, variant, monkeypatch)
        assert 1 < len(expected) < self.GENERATIONS


class TestSkipEqualTrials:
    """``run`` evaluates exactly the trials that differ from their targets."""

    def trials(self, problem, variant, monkeypatch):
        """Each clamped trial with its target, and the points ``run`` evaluated."""
        cfg = DEConfig(variant=variant, population_size=8, max_iterations=30)
        draw = np.random.default_rng(4).random
        start = init_population(problem, cfg, draw)
        targets, trials, evaluated = [], [], []
        spy(monkeypatch, "crossover", targets, lambda args, result: list(args[0]))
        spy(monkeypatch, "clamp", trials, lambda args, result: result)
        spy(monkeypatch, "_measure", evaluated, lambda args, result: list(args[1]))
        run(problem, cfg, single_objective(0, problem.n_objectives), draw, initial=start)
        assert len(trials) == len(targets) == cfg.population_size * cfg.max_iterations
        return list(zip(targets, trials)), evaluated

    @pytest.mark.parametrize("variant", ["rand1", "best", "degl"])
    def test_zero_width_box_evaluates_no_trial(self, variant, monkeypatch):
        # every trial equals its target, a start member that was never replaced
        pairs, evaluated = self.trials(box_problem((2, -3), (2, -3)), variant, monkeypatch)
        assert all(trial == target == [2.0, -3.0] for target, trial in pairs)
        assert evaluated == []

    @pytest.mark.parametrize("name", ["p1", "p2", "corner"])
    @pytest.mark.parametrize("variant", ["rand1", "best", "degl"])
    def test_evaluates_exactly_the_trials_unlike_their_targets(self, name, variant, monkeypatch):
        problem = CORNER if name == "corner" else benchmark(name).problem
        pairs, evaluated = self.trials(problem, variant, monkeypatch)
        assert evaluated == [trial for target, trial in pairs if trial != target]
        if name == "corner":  # the population collapses onto the corner (6, 6)
            assert 0 < len(evaluated) < len(pairs)


# The parent numpy engine, kept as the reference of TestKernelMatchesReference:
# numpy arrays per member (each read with np.asarray from its float tuple) and
# one rng call per draw.
def _reference_draw_distinct(rng, pool, exclude, count):
    taken = set(exclude)
    out = []
    size = len(pool)
    while len(out) < count:
        candidate = pool[int(rng.random() * size)]
        if candidate not in taken:
            taken.add(candidate)
            out.append(candidate)
    return out


def _reference_mutate_rand1(pop, i, F, rng):
    r1, r2, r3 = _reference_draw_distinct(rng, range(len(pop)), (i,), 3)
    a, b, c = (np.asarray(pop[r].x) for r in (r1, r2, r3))
    return a + F * (b - c)


def _reference_mutate_best(pop, i, F, gbest_index, rng):
    r1, r2 = _reference_draw_distinct(rng, range(len(pop)), (i,), 2)
    a, b, best = (np.asarray(pop[r].x) for r in (r1, r2, gbest_index))
    return a + F * (b - best)


def _reference_local_global_donors(pop, i, alpha, beta, neigh, local_best, gbest_index, rng):
    x = lambda j: np.asarray(pop[j].x)
    p, q = _reference_draw_distinct(rng, neigh, (i,), 2)
    xi = x(i)
    local = xi + alpha * (x(local_best) - xi) + beta * (x(p) - x(q))
    p2, q2 = _reference_draw_distinct(rng, range(len(pop)), (i,), 2)
    glob = xi + alpha * (x(gbest_index) - xi) + beta * (x(p2) - x(q2))
    return local, glob


def _reference_mutate_degl(pop, i, alpha, beta, r, neigh, local_best, gbest_index, rng):
    local, glob = _reference_local_global_donors(
        pop, i, alpha, beta, neigh, local_best, gbest_index, rng
    )
    return r * glob + (1.0 - r) * local


def _reference_crossover(target, donor, Cr, rng):
    n = len(target)
    mask = rng.random(n) <= Cr
    mask[int(rng.random() * n)] = True
    return np.where(mask, donor, target)


def _reference_clamp(trial, lo, up):
    return np.clip(trial, lo, up, out=trial)


def _reference_elect(fit, vio, idx):
    entries = np.empty(idx.shape + (2,))
    entries[..., 0] = fit[idx]
    entries[..., 1] = vio[idx]
    best = cost_closeness(entries).argmax(axis=-1)
    return idx[best] if idx.ndim == 1 else idx[np.arange(len(idx)), best]


def _reference_init_population(problem, config, rng):
    lo = np.asarray(problem.lower_bounds, dtype=float)
    up = np.asarray(problem.upper_bounds, dtype=float)
    xs = lo + rng.random((config.population_size, problem.dimension)) * (up - lo)
    return [Individual(tuple(x.tolist()), evaluate(problem, x.tolist())) for x in xs]


def _reference_run(problem, config, objective, rng, initial=None, equal=None):
    """The reference run; it evaluates every trial, and appends to the list
    ``equal``, if given, whether each trial equals its target."""
    if initial is None:
        initial = _reference_init_population(problem, config, rng)
    pop = list(initial)
    np_size = len(pop)
    fit = np.array([objective(ind.eval.objectives_min) for ind in pop])
    vio = np.array([ind.eval.violation for ind in pop])
    lo = np.asarray(problem.lower_bounds, dtype=float)
    up = np.asarray(problem.upper_bounds, dtype=float)
    indices = np.arange(np_size)
    F, Cr, variant = config.scale_factor, config.crossover_rate, config.variant
    if variant == "degl":
        neigh_rows = np.array(
            [de._neighborhood(i, config.neighborhood_k, np_size) for i in range(np_size)]
        )
    for iteration in range(1, config.max_iterations + 1):
        r = weight_r(iteration, config.max_iterations)
        if variant != "rand1":
            gbest = _reference_elect(fit, vio, indices)
        if variant == "degl":
            local_bests = _reference_elect(fit, vio, neigh_rows)
        for i in range(np_size):
            if variant == "rand1":
                donor = _reference_mutate_rand1(pop, i, F, rng)
            elif variant == "best":
                donor = _reference_mutate_best(pop, i, F, gbest, rng)
            else:
                donor = _reference_mutate_degl(
                    pop, i, config.alpha, config.beta, r,
                    neigh_rows[i], local_bests[i], gbest, rng,
                )
            target = np.asarray(pop[i].x)
            trial = _reference_clamp(_reference_crossover(target, donor, Cr, rng), lo, up)
            if equal is not None:
                equal.append(np.array_equal(trial, target))
            ev = evaluate(problem, trial.tolist())
            f_trial = objective(ev.objectives_min)
            if deb_key(f_trial, ev.violation) < deb_key(fit[i], vio[i]):
                pop[i] = Individual(tuple(trial.tolist()), ev)
                fit[i] = f_trial
                vio[i] = ev.violation
    return pop


class _LoggedProblem:
    """A constrained problem over a box that records every point it evaluates."""

    def __init__(self, lower, upper, center):
        self.log = []
        self.center = center
        self.problem = Problem(
            dimension=len(lower),
            objectives=((self.distance, "min"), (lambda x: -sum(x), "min")),
            constraints=(lambda x: sum(x) - sum(center) - 0.5,),
            lower_bounds=tuple(lower),
            upper_bounds=tuple(upper),
        )

    def distance(self, x):
        self.log.append(tuple(x))
        return sum((v - c) ** 2 for v, c in zip(x, self.center))


@st.composite
def de_cases(draw):
    n = draw(st.integers(1, 6))
    lower = draw(st.lists(st.integers(-6, 4), min_size=n, max_size=n))
    upper = [lo + draw(st.integers(0, 5)) for lo in lower]
    center = [draw(st.floats(lo - 1, up + 1)) for lo, up in zip(lower, upper)]
    k = draw(st.integers(1, 3))
    config = DEConfig(
        population_size=draw(st.integers(max(4, 2 * k + 1), 24)),
        max_iterations=draw(st.integers(1, 6)),
        crossover_rate=draw(st.sampled_from([0.0, 0.3, 0.9, 1.0])),
        scale_factor=draw(st.sampled_from([0.4, 0.8, 1.0])),
        alpha=draw(st.sampled_from([0.0, 0.8])),
        beta=draw(st.sampled_from([0.5, 0.8])),
        neighborhood_k=k,
        variant=draw(st.sampled_from(["rand1", "best", "degl"])),
    )
    return lower, upper, center, config


class TestKernelMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(
        case=de_cases(),
        objective_index=st.sampled_from([0, 1]),
        initial=st.booleans(),
        block=st.sampled_from([1, 2, 7, de.BLOCK]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_population_evaluations_and_generator_state(
        self, case, objective_index, initial, block, seed
    ):
        lower, upper, center, config = case
        objective = single_objective(objective_index, 2)
        kernel, reference = _LoggedProblem(lower, upper, center), _LoggedProblem(lower, upper, center)
        kernel_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        # one stream for the start and the run, as in stage 3; small blocks put
        # refills and the final rewind at every position of a run
        with mock.patch.object(de, "BLOCK", block):
            draw, settle = de.block_draws(kernel_rng)
        try:
            kernel_start = init_population(kernel.problem, config, draw) if initial else None
            pop = run(kernel.problem, config, objective, draw, initial=kernel_start)
        finally:
            settle()
        reference_start = None
        if initial:
            reference_start = _reference_init_population(reference.problem, config, reference_rng)
        equal = []
        expected = _reference_run(
            reference.problem, config, objective, reference_rng, initial=reference_start,
            equal=equal,
        )
        assert [np.array(ind.x).tobytes() for ind in pop] == [
            np.array(ind.x).tobytes() for ind in expected
        ]
        assert [ind.eval for ind in pop] == [ind.eval for ind in expected]
        # the reference logs the start, then every trial; the kernel skips the
        # trials equal to their targets
        size = config.population_size
        assert len(reference.log) == size + len(equal) == size * (config.max_iterations + 1)
        assert kernel.log == reference.log[:size] + [
            x for x, skip in zip(reference.log[size:], equal) if not skip
        ]
        assert kernel_rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("name", ["p1", "p2", "p3"])
    @pytest.mark.parametrize("variant", ["rand1", "best", "degl"])
    def test_benchmarks_at_default_sizes(self, name, variant):
        problem = benchmark(name).problem
        config = DEConfig(variant=variant, max_iterations=30)
        objective = single_objective(0, problem.n_objectives)
        kernel_rng, reference_rng = np.random.default_rng(17), np.random.default_rng(17)
        draw, settle = de.block_draws(kernel_rng)
        try:
            pop = run(problem, config, objective, draw)
        finally:
            settle()
        expected = _reference_run(problem, config, objective, reference_rng)
        assert [np.array(ind.x).tobytes() for ind in pop] == [
            np.array(ind.x).tobytes() for ind in expected
        ]
        assert kernel_rng.bit_generator.state == reference_rng.bit_generator.state


class TestClampSignedZeros:
    @pytest.mark.parametrize("v, lo, up", [
        (-0.0, 0.0, 5.0), (0.0, -0.0, 5.0), (-0.0, -0.0, 0.0),
        (0.0, -5.0, -0.0), (-0.0, -5.0, 0.0), (0.0, 0.0, 0.0),
    ])
    def test_matches_np_clip_bit_for_bit(self, v, lo, up):
        expected = np.clip(np.array([v]), np.array([lo]), np.array([up]))
        assert np.array(clamp([v], [lo], [up])).tobytes() == expected.tobytes()

"""Acceptance suite: one test (one pass/fail line under ``pytest -v``) per
stated criterion.

Criterion groups:
  1. deterministic oracle verification of the published target solutions
  2. stochastic reproduction of the three success-rate tables
     (full-size experiments: 20 runs each at the default parameters)
  3. deterministic unit/property checks at their stated tolerances
  4. byte-identical CSV reports for an identical master seed
"""

import numpy as np
import pytest

import moits.de as de_mod
from moits.benchmarks import benchmark
from moits.de import DEConfig, VARIANTS, choose_best, run, single_objective
from moits.harness import report_csv, run_experiment, verify_known
from moits.pipeline import (
    DEGENERACY_TOL,
    HybridConfig,
    augment_with_violation,
    compute_anchors,
    maxmin_satisfaction,
    mu1,
    mu2,
    oracle_anchor_values,
)
from moits.problems import (
    deb_key,
    dominates,
    evaluate,
    feasible_lattice,
    pareto_filter,
)
from moits.tabu import CachedEvaluator, stochastic_round, tabu_move, tabu_search
from moits.topsis import DecisionMatrix, COST, rank

MASTER_SEED = 20260823
DEFAULTS = HybridConfig()  # default parameter table: NP=40, 100 DE iterations,
# 1000 tabu moves, 10 alternations, 20 runs, Cr=0.9, F=0.8, alpha=beta=0.8, k=2


# --------------------------------------------------------------------------
# criterion 1: oracle verification (deterministic)
# --------------------------------------------------------------------------


class TestCriterion1Oracles:
    def test_p2_front_excludes_dominated_published_points_and_names_dominators(self):
        checks = {c.solution: c for c in verify_known(benchmark("p2")).checks}
        check_10_1 = checks[(10, 1)]
        assert not check_10_1.pareto
        assert {(8, 3), (7, 4)} <= set(check_10_1.dominated_by)
        check_9_2 = checks[(9, 2)]
        assert not check_9_2.pareto
        assert (8, 3) in check_9_2.dominated_by

    def test_p1_known_solutions_feasible_and_mutually_nondominated(self):
        problem = benchmark("p1").problem
        evals = {sol: evaluate(problem, sol) for sol in benchmark("p1").known_solutions}
        assert len(evals) == 4
        for sol, ev in evals.items():
            assert ev.violation == 0.0, sol
        for a in evals.values():
            for b in evals.values():
                assert not dominates(a, b)

    def test_p3_main_solution_feasible_binding_and_pareto(self):
        spec = benchmark("p3")
        assert 4 * 9 + 5 * 5 == 61 <= 61.1  # the tightest constraint at (9,5)
        assert evaluate(spec.problem, (9, 5)).violation == 0.0
        check = {c.solution: c for c in verify_known(spec).checks}[(9, 5)]
        assert check.feasible and check.pareto

    def test_p3_published_point_flagged_infeasible(self):
        check = {c.solution: c for c in verify_known(benchmark("p3")).checks}[(5, 7)]
        assert not check.feasible


# --------------------------------------------------------------------------
# criterion 2: success-rate tables (stochastic, full-size experiments)
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def p1_reports():
    spec = benchmark("p1")
    return {
        variant: run_experiment(spec, variant, DEFAULTS, MASTER_SEED)
        for variant in VARIANTS
    }


@pytest.fixture(scope="module")
def p2_rand1_report():
    return run_experiment(benchmark("p2"), "rand1", DEFAULTS, MASTER_SEED)


@pytest.fixture(scope="module")
def p3_degl_report():
    return run_experiment(benchmark("p3"), "degl", DEFAULTS, MASTER_SEED)


class TestCriterion2SuccessRates:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_p1_success_rates(self, p1_reports, variant):
        report = p1_reports[variant]
        assert report.runs == 20
        counts = dict(report.counts)
        for solution in [(4, 4), (5, 3), (6, 2)]:
            assert counts.get(solution, 0) >= 15, (variant, solution)
        assert counts.get((2, 5), 0) >= 10, variant

    def test_p2_rand1_table_coverage(self, p2_rand1_report):
        targets = benchmark("p2").reported_solutions
        assert len(targets) == 14
        counts = dict(p2_rand1_report.counts)
        hits = sum(1 for sol in targets if counts.get(sol, 0) >= 10)
        assert hits >= 10, f"only {hits} of 14 targets reached 10/20 runs"

    def test_p3_degl_main_solution_rate(self, p3_degl_report):
        assert dict(p3_degl_report.counts).get((9, 5), 0) >= 10

    def test_every_reported_solution_feasible_and_pareto_surviving(
        self, p1_reports, p2_rand1_report, p3_degl_report
    ):
        # zero tolerance: nothing counted may be infeasible or dominated
        reports = {
            "p1": list(p1_reports.values()),
            "p2": [p2_rand1_report],
            "p3": [p3_degl_report],
        }
        for name, group in reports.items():
            problem = benchmark(name).problem
            for report in group:
                points = [(sol, evaluate(problem, sol)) for sol, _ in report.counts]
                for sol, ev in points:
                    assert ev.violation == 0.0, (name, sol)
                survivors = {sol for sol, _ in pareto_filter(points)}
                assert survivors == {sol for sol, _ in points}, name


# --------------------------------------------------------------------------
# criterion 3: unit/property suites (deterministic)
# --------------------------------------------------------------------------


class TestCriterion3Topsis:
    def test_hand_computed_symmetric_example_to_1e12(self):
        matrix = DecisionMatrix(
            np.array([[1.0, 2.0], [2.0, 1.0]]), (COST, COST), np.array([0.5, 0.5])
        )
        ranking = rank(matrix)
        for i in (0, 1):
            assert abs(ranking.d_plus[i] - np.sqrt(0.125)) < 1e-12
            assert abs(ranking.d_minus[i] - np.sqrt(0.125)) < 1e-12
            assert abs(ranking.closeness[i] - 0.5) < 1e-12

    def test_column_scaling_invariance_1000_matrices(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            rows, cols = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            entries = rng.random((rows, cols)) + 0.05
            scales = rng.random(cols) * 5 + 0.1
            weights = np.full(cols, 1.0 / cols)
            base = rank(DecisionMatrix(entries, (COST,) * cols, weights))
            scaled = rank(DecisionMatrix(entries * scales, (COST,) * cols, weights))
            assert scaled.order == base.order
            np.testing.assert_allclose(scaled.closeness, base.closeness)

    def test_dominant_alternative_attains_max_closeness(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            rows, cols = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            entries = rng.random((rows, cols)) + 0.1
            winner = int(rng.integers(rows))
            entries[winner] = entries.min(axis=0) * 0.5
            weights = np.full(cols, 1.0 / cols)
            xi = rank(DecisionMatrix(entries, (COST,) * cols, weights)).closeness
            assert xi[winner] == xi.max()


class TestCriterion3DE:
    def test_elitism_monotone_100_generations_each_benchmark(self):
        for name in ("p1", "p2", "p3"):
            problem = benchmark(name).problem
            for j in range(problem.n_objectives):
                objective = single_objective(j, problem.n_objectives)
                cfg = DEConfig(population_size=10, max_iterations=1, variant="degl")
                draw = np.random.default_rng(MASTER_SEED + j).random
                pop = de_mod.init_population(problem, cfg, draw)
                last = None
                for _ in range(100):
                    pop = run(problem, cfg, objective, draw, initial=pop)
                    best = pop[choose_best(pop, range(len(pop)), objective)]
                    key = deb_key(objective(best.eval.objectives_min), best.eval.violation)
                    assert last is None or key <= last, (name, j)
                    last = key

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_box_containment_always(self, variant):
        for name in ("p1", "p2", "p3"):
            problem = benchmark(name).problem
            cfg = DEConfig(population_size=8, max_iterations=25, variant=variant)
            objective = single_objective(0, problem.n_objectives)
            pop = run(problem, cfg, objective, np.random.default_rng(1).random)
            for ind in pop:
                assert problem.in_bounds(ind.x), (name, variant)

    def test_combined_donor_endpoint_identities_exact(self, monkeypatch):
        problem = benchmark("p1").problem
        draw = np.random.default_rng(8).random
        pop = de_mod.init_population(problem, DEConfig(population_size=8), draw)
        objective = single_objective(0, 3)
        x = np.array([ind.x for ind in pop])
        xs = x.tolist()
        alpha, beta, gbest = 0.8, 0.8, 0
        for i in range(8):
            neigh = de_mod._neighborhood(i, 2, len(pop))
            local_best = choose_best(pop, neigh, objective)
            p, q = [j for j in neigh if j != i][:2]
            p2, q2 = [j for j in range(8) if j != i][-2:]
            picks = iter([[p, q], [p2, q2]] * 2)
            monkeypatch.setattr(de_mod, "_draw_distinct", lambda *args: next(picks))
            kwargs = dict(alpha=alpha, beta=beta, neigh=neigh, local_best=local_best,
                          gbest_index=gbest, draw=None)
            at_zero = de_mod.mutate_degl(xs, i, r=0.0, **kwargs)
            at_one = de_mod.mutate_degl(xs, i, r=1.0, **kwargs)
            local = x[i] + alpha * (x[local_best] - x[i]) + beta * (x[p] - x[q])
            glob = x[i] + alpha * (x[gbest] - x[i]) + beta * (x[p2] - x[q2])
            assert np.array(at_zero).tobytes() == local.tobytes()
            assert np.array(at_one).tobytes() == glob.tobytes()


def quad1d(center=0, lower=-50, upper=50):
    from moits.problems import Problem

    return Problem(
        dimension=1,
        objectives=((lambda x: (x[0] - center) ** 2, "min"),),
        constraints=(),
        lower_bounds=(lower,),
        upper_bounds=(upper,),
    )


class TestCriterion3Tabu:
    def test_stochastic_rounding_unbiased_100k_draws(self):
        rng = np.random.default_rng(MASTER_SEED)
        draws = 100_000
        total = sum(stochastic_round([2.25], rng.random)[0] for _ in range(draws))
        mean = total / draws
        sigma = np.sqrt(0.25 * 0.75 / draws)
        assert abs(mean - 2.25) < 3 * sigma

    def test_best_so_far_monotone(self):
        problem = benchmark("p2").problem
        objective = single_objective(0, 3)
        evaluator = CachedEvaluator(problem, objective)
        rng = np.random.default_rng(5)
        x = x_star = (16, 16)
        t = [-2, -2]
        keys = [evaluator.key(evaluator.index(x_star))]
        for k in range(1, 300):
            x = evaluator.point(tabu_move(
                evaluator.index(x), evaluator.index(x_star), k, t, evaluator, rng.random
            )[0])
            if evaluator.key(evaluator.index(x)) < evaluator.key(evaluator.index(x_star)):
                x_star = x
            keys.append(evaluator.key(evaluator.index(x_star)))
        assert all(b <= a for a, b in zip(keys, keys[1:]))

    def test_tenure_stamped_after_every_accepted_move(self):
        # scan moves only: the diversification kick stamps its coordinate
        # even when the resampled value happens to equal the current one,
        # so it is exercised separately below. A move is a kick by the
        # kernel's own rule, when every stamp is more than n moves old.
        problem = benchmark("p2").problem
        objective = single_objective(1, 3)
        evaluator = CachedEvaluator(problem, objective)
        rng = np.random.default_rng(6)
        n = problem.dimension
        x = x_star = (0, 0)
        t = [-n] * n
        scans = 0
        for k in range(1, 200):
            before = list(t)
            moved = evaluator.point(tabu_move(
                evaluator.index(x), evaluator.index(x_star), k, t, evaluator, rng.random
            )[0])
            if k - max(before) <= n:
                scans += 1
                if moved != x:
                    stamped = [j for j in range(n) if t[j] == k and before[j] != k]
                    assert len(stamped) == 1
                else:
                    assert t == before
            x = moved
            if evaluator.key(evaluator.index(x)) < evaluator.key(evaluator.index(x_star)):
                x_star = x
        assert scans >= 100

    def test_diversification_kick_stamps_its_coordinate(self):
        problem = benchmark("p2").problem
        evaluator = CachedEvaluator(problem, single_objective(0, 3))
        rng = np.random.default_rng(9)
        for k in range(1, 50):
            t = [-2, -2]  # stale memory forces the kick
            start = evaluator.index((5, 5))
            tabu_move(start, start, k, t, evaluator, rng.random)
            assert t.count(k) == 1

    def test_1d_unimodal_completeness(self):
        objective = single_objective(0, 1)
        for center in (-37, 0, 42):
            problem = quad1d(center)
            for start in (-50, 50):
                evaluator = CachedEvaluator(problem, objective)
                result = tabu_search((start,), 500, evaluator, np.random.default_rng(3).random)
                assert evaluator.point(result) == (center,), (center, start)


class TestCriterion3Hybrid:
    def test_membership_endpoint_identities(self):
        problem = benchmark("p1").problem
        config = HybridConfig(oracle_anchors=True)
        problem_k, anchors = compute_anchors(problem, config, np.random.default_rng(2).random)
        assert anchors.d_pis_prime - anchors.d_pis_star > DEGENERACY_TOL
        assert anchors.d_nis_star - anchors.d_nis_prime > DEGENERACY_TOL
        fp = evaluate(problem_k, anchors.x_p).objectives_min
        fn = evaluate(problem_k, anchors.x_n).objectives_min
        assert mu1(fp, anchors) == 1.0
        assert maxmin_satisfaction(fp, anchors) == 0.0  # mu2 vanishes at x_p
        assert mu2(fn, anchors) == 1.0
        assert maxmin_satisfaction(fn, anchors) == 0.0  # mu1 vanishes at x_n

    def test_oracle_anchors_bracket_all_lattice_values(self):
        for name in ("p1", "p2", "p3"):
            problem_k = augment_with_violation(benchmark(name).problem)
            f_star, f_minus = oracle_anchor_values(problem_k)
            for _, ev in feasible_lattice(problem_k):
                for j, value in enumerate(ev.objectives_min):
                    assert f_star[j] <= value <= f_minus[j], (name, j)


# --------------------------------------------------------------------------
# criterion 4: deterministic reports
# --------------------------------------------------------------------------


class TestCriterion4Determinism:
    def test_identical_master_seed_gives_byte_identical_csv(self):
        config = HybridConfig(
            de=DEConfig(population_size=20, max_iterations=30),
            ts_iterations=100,
            alternations=2,
            runs=3,
            oracle_anchors=True,
        )
        spec = benchmark("p3")
        first = report_csv(run_experiment(spec, "degl", config, 77, workers=1))
        second = report_csv(run_experiment(spec, "degl", config, 77, workers=1))
        assert first.encode("utf-8") == second.encode("utf-8")

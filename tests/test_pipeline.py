import math
import pickle
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from moits import de, tabu
from moits.benchmarks import benchmark
from moits.de import DEConfig
from moits.pipeline import (
    DEGENERACY_TOL,
    ArchiveEntry,
    CompromiseAnchors,
    HybridConfig,
    SolutionArchive,
    _membership,
    augment_with_violation,
    build_anchor_frame,
    compute_anchors,
    d_nis,
    d_pis,
    maxmin_objective,
    maxmin_satisfaction,
    mu1,
    mu2,
    oracle_anchor_values,
    solve,
    stage1_anchors,
)
from moits.problems import (
    VIOLATION,
    Evaluation,
    Problem,
    brute_force_pareto,
    evaluate,
    pareto_filter,
)

SMALL = HybridConfig(
    de=DEConfig(population_size=20, max_iterations=30),
    ts_iterations=100,
    alternations=2,
    runs=1,
    oracle_anchors=True,
)


class TestConfig:
    def test_defaults_match_parameter_table(self):
        cfg = HybridConfig()
        assert (cfg.ts_iterations, cfg.alternations, cfg.runs) == (1000, 10, 20)

    def test_positive_budgets_required(self):
        with pytest.raises(ValueError):
            HybridConfig(alternations=0)


class TestAugment:
    def test_unconstrained_passthrough(self):
        problem = benchmark("p2").problem
        bare = replace(problem, constraints=())
        assert augment_with_violation(bare) is bare

    def test_appends_violation_objective(self):
        problem = benchmark("p1").problem
        aug = augment_with_violation(problem)
        assert aug.n_objectives == problem.n_objectives + 1
        assert aug.objectives[-1][1] == "min"
        assert aug.n_constraints == problem.n_constraints
        assert aug.name.endswith("+violation")

    def test_violation_objective_values(self):
        aug = augment_with_violation(benchmark("p1").problem)
        g_feasible = evaluate(aug, (4, 4)).objectives_min[-1]
        g_infeasible = evaluate(aug, (7, 5)).objectives_min[-1]
        assert g_feasible == 0.0
        assert g_infeasible == 9.0  # worst of the two constraints at (7, 5)

    def test_one_constraint_pass_per_evaluation(self):
        problem = benchmark("p1").problem
        calls = []

        def counted(j):
            def g(x):
                calls.append(j)
                return problem.constraints[j](x)
            return g

        aug = augment_with_violation(replace(problem, constraints=(counted(0), counted(1))))
        ev = evaluate(aug, (7, 5))
        assert sorted(calls) == [0, 1]
        assert ev.objectives_min[-1] == ev.violation == 9.0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_constraint_named(self, value):
        problem = replace(benchmark("p1").problem, constraints=(lambda x: value,))
        with pytest.raises(ValueError, match="constraint 0 .*non-finite"):
            evaluate(augment_with_violation(problem), (4, 4))

    def test_augmented_problem_pickles(self):
        aug = augment_with_violation(benchmark("p1").problem)
        again = pickle.loads(pickle.dumps(aug))
        assert again.objectives[-1][0] is VIOLATION
        assert again == aug and hash(again) == hash(aug)
        for x in [(4, 4), (7, 5), (0, 0), (2.5, 3.25)]:
            assert evaluate(again, x) == evaluate(aug, x)

    def test_augmenting_twice_changes_nothing(self):
        aug = augment_with_violation(benchmark("p1").problem)
        assert augment_with_violation(aug) is aug
        assert aug.n_objectives == len(evaluate(aug, (7, 5)).objectives_min) == 4

    def test_second_violation_slot_rejected(self):
        aug = augment_with_violation(benchmark("p1").problem)
        with pytest.raises(ValueError, match="all hold VIOLATION"):
            replace(aug, objectives=aug.objectives + ((VIOLATION, "min"),))

    def test_augmented_evaluation_stays_feasible_aware(self):
        aug = augment_with_violation(benchmark("p1").problem)
        assert evaluate(aug, (7, 5)).violation == 9.0


class TestAnchorFrame:
    def test_degenerate_objective_dropped(self):
        frame = build_anchor_frame(f_star=(0.0, 1.0, 5.0), f_minus=(10.0, 1.0, 8.0))
        assert frame.active == (0, 2)
        assert frame.dropped == (1,)
        assert frame.weights == (0.5, 0.5)

    def test_near_degenerate_relative_tolerance(self):
        frame = build_anchor_frame(f_star=(1e9,), f_minus=(1e9 + 1e-3,))
        assert frame.dropped == (0,)

    def test_all_active_uniform_weights(self):
        frame = build_anchor_frame((0.0, 0.0), (1.0, 2.0))
        assert frame.active == (0, 1)
        assert frame.weights == (0.5, 0.5)

    def test_all_degenerate(self):
        frame = build_anchor_frame((3.0,), (3.0,))
        assert frame.active == () and frame.weights == ()

    def test_fields_are_the_anchors(self):
        frame = build_anchor_frame((0.0, 1.0), (2.0, 1.0))
        assert "_coefs" not in {f.name for f in fields(frame)}
        with pytest.raises(TypeError):
            CompromiseAnchors(f_star=(0.0,), f_minus=(1.0,), active=(0,), weights=(1.0,),
                              _coefs=())
        # the distance coefficients are not a field, yet survive a pickle
        assert d_pis((1.0, 5.0), pickle.loads(pickle.dumps(frame))) == 0.5


class TestDistances:
    FRAME = build_anchor_frame((0.0, 0.0), (2.0, 4.0))

    def test_zero_at_ideal(self):
        assert d_pis((0.0, 0.0), self.FRAME) == 0.0

    def test_zero_at_anti_ideal(self):
        assert d_nis((2.0, 4.0), self.FRAME) == 0.0

    def test_hand_computed_midpoint(self):
        # coefficients (0.5/2)^2 and (0.5/4)^2; midpoint contributes 1/16 each
        expected = math.sqrt(1.0 / 8.0)
        assert abs(d_pis((1.0, 2.0), self.FRAME) - expected) < 1e-15
        assert abs(d_nis((1.0, 2.0), self.FRAME) - expected) < 1e-15

    def test_full_span_distance_is_weight_norm(self):
        assert abs(d_pis((2.0, 4.0), self.FRAME) - math.sqrt(0.5)) < 1e-15

    def test_dropped_objective_ignored(self):
        frame = build_anchor_frame((0.0, 7.0), (2.0, 7.0))
        assert frame.dropped == (1,)
        assert d_pis((2.0, 1234.5), frame) == 1.0  # weight 1 on the lone column


def membership_anchors(**overrides):
    base = dict(
        f_star=(0.0,),
        f_minus=(1.0,),
        active=(0,),
        weights=(1.0,),
        d_pis_star=0.2,
        d_pis_prime=0.8,
        d_nis_star=0.9,
        d_nis_prime=0.3,
    )
    base.update(overrides)
    return CompromiseAnchors(**base)


class TestMemberships:
    # with f_star=0, f_minus=1 and weight 1: d_pis((v,)) = v, d_nis((v,)) = 1 - v
    ANCHORS = membership_anchors()

    def test_mu1_endpoints(self):
        assert mu1((0.2,), self.ANCHORS) == 1.0
        assert mu1((0.8,), self.ANCHORS) == 0.0

    def test_mu1_midpoint_and_clamps(self):
        assert abs(mu1((0.5,), self.ANCHORS) - 0.5) < 1e-15
        assert mu1((0.05,), self.ANCHORS) == 1.0
        assert mu1((0.95,), self.ANCHORS) == 0.0

    def test_mu2_endpoints(self):
        assert mu2((0.1,), self.ANCHORS) == 1.0  # d_nis = 0.9 = d_nis_star
        assert abs(mu2((0.7,), self.ANCHORS)) < 1e-15  # d_nis = 0.3 = d_nis_prime

    def test_mu2_midpoint(self):
        assert abs(mu2((0.4,), self.ANCHORS) - 0.5) < 1e-15  # d_nis = 0.6

    def test_mu2_clamps(self):
        assert mu2((0.05,), self.ANCHORS) == 1.0  # d_nis = 0.95 > 0.9
        assert mu2((0.8,), self.ANCHORS) == 0.0  # d_nis = 0.2 < 0.3

    def test_degenerate_spans_give_one(self):
        flat = membership_anchors(
            d_pis_prime=0.2, d_nis_prime=0.9
        )
        assert mu1((0.5,), flat) == 1.0 and mu2((0.5,), flat) == 1.0

    def test_maxmin_is_min_of_memberships(self):
        values = (0.5,)
        expected = min(mu1(values, self.ANCHORS), mu2(values, self.ANCHORS))
        assert maxmin_satisfaction(values, self.ANCHORS) == expected

    def test_maxmin_objective_negates(self):
        obj = maxmin_objective(self.ANCHORS)
        assert obj((0.5,)) == -maxmin_satisfaction((0.5,), self.ANCHORS)


# The two memberships as written before they shared one ramp, kept as the
# reference of TestMembershipMatchesReference; each takes its distance instead
# of computing it
def _reference_mu1(d, anchors):
    if not anchors.d_pis_prime - anchors.d_pis_star > DEGENERACY_TOL:
        return 1.0
    if d < anchors.d_pis_star:
        return 1.0
    if d > anchors.d_pis_prime:
        return 0.0
    return 1.0 - (d - anchors.d_pis_star) / (anchors.d_pis_prime - anchors.d_pis_star)


def _reference_mu2(d, anchors):
    if not anchors.d_nis_star - anchors.d_nis_prime > DEGENERACY_TOL:
        return 1.0
    if d > anchors.d_nis_star:
        return 1.0
    if d < anchors.d_nis_prime:
        return 0.0
    return 1.0 - (anchors.d_nis_star - d) / (anchors.d_nis_star - anchors.d_nis_prime)


SPANS = (0.0, DEGENERACY_TOL, math.nextafter(DEGENERACY_TOL, math.inf), -DEGENERACY_TOL, -0.5)


@st.composite
def ramps(draw):
    """An anchor, a span to the other anchor (degenerate, at the tolerance,
    just above it, negative or any), and a distance at, between or beyond
    them, signed zeros included."""
    best = draw(st.sampled_from((0.0, -0.0, 0.2, 0.9)) | st.floats(-2.0, 2.0))
    span = draw(st.sampled_from(SPANS) | st.floats(-1.0, 1.0))
    near = (best, best + span, best - span, best + span / 2, best - span / 2)
    beyond = tuple(a + e for a in near[:3] for e in (-0.1, 0.1))
    d = draw(st.sampled_from(near + beyond + (0.0, -0.0)) | st.floats(-3.0, 3.0))
    return d, best, span


def same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def at_the_tolerance(test):
    """Pin the cases hypothesis may miss: a zero span, a span of exactly
    DEGENERACY_TOL with the distance on either side, and signed zeros."""
    for ramp in (
        (0.0, 0.0, 0.0),
        (5e-10, 0.0, DEGENERACY_TOL),
        (-5e-10, 0.0, DEGENERACY_TOL),
        (-0.0, 0.0, 1.0),
        (0.0, -0.0, 1.0),
    ):
        test = example(ramp)(test)
    return settings(max_examples=500)(test)


class TestMembershipMatchesReference:
    @at_the_tolerance
    @given(ramps())
    def test_mu1(self, ramp):
        d, best, span = ramp
        anchors = membership_anchors(d_pis_star=best, d_pis_prime=best + span)
        expected = _reference_mu1(d, anchors)
        assert same_float(_membership(d, anchors.d_pis_star, anchors.d_pis_prime), expected)
        assert same_float(mu1((d,), anchors), _reference_mu1(d_pis((d,), anchors), anchors))

    @at_the_tolerance
    @given(ramps())
    def test_mu2(self, ramp):
        d, best, span = ramp
        anchors = membership_anchors(d_nis_star=best, d_nis_prime=best - span)
        expected = _reference_mu2(d, anchors)
        assert same_float(_membership(-d, -anchors.d_nis_star, -anchors.d_nis_prime), expected)
        assert same_float(mu2((d,), anchors), _reference_mu2(d_nis((d,), anchors), anchors))


class TestOracleAnchors:
    def test_p1_matches_independent_enumeration(self):
        problem = augment_with_violation(benchmark("p1").problem)
        f_star, f_minus = oracle_anchor_values(problem)
        mins = [math.inf] * problem.n_objectives
        maxs = [-math.inf] * problem.n_objectives
        for x1 in range(1, 8):
            for x2 in range(1, 6):
                e = evaluate(problem, (x1, x2))
                if e.violation == 0.0:
                    for j, v in enumerate(e.objectives_min):
                        mins[j] = min(mins[j], v)
                        maxs[j] = max(maxs[j], v)
        assert f_star == tuple(mins)
        assert f_minus == tuple(maxs)

    def test_violation_column_always_degenerate(self):
        problem = augment_with_violation(benchmark("p1").problem)
        f_star, f_minus = oracle_anchor_values(problem)
        assert f_star[-1] == f_minus[-1] == 0.0

    def test_stage1_brackets_oracle(self):
        # the evolution stage searches the continuous box, so its ideal can
        # only be at least as extreme as the integer-lattice ideal
        problem = augment_with_violation(benchmark("p3").problem)
        oracle_star, oracle_minus = oracle_anchor_values(problem)
        cfg = HybridConfig(de=DEConfig(variant="degl"))
        f_star, f_minus = stage1_anchors(problem, cfg, np.random.default_rng(0).random)
        eps = 1e-9
        for j in range(problem.n_objectives):
            assert f_star[j] <= oracle_star[j] + eps
            assert f_minus[j] >= oracle_minus[j] - eps


def _never_met(x):
    return 1.0


def _sum_of(x):
    return float(sum(x))


def _first(x):
    return float(x[0])


def _squared_distance_to_middle(x):
    return float(sum((v - 50) ** 2 for v in x))


def _first_two_over_150(x):
    return float(x[0] + x[1] - 150)


# a box of 10**6 points that the stage-3 walks cannot exhaust
WIDE_BOX = Problem(
    dimension=3,
    objectives=((_squared_distance_to_middle, "min"), (_first, "min")),
    constraints=(_first_two_over_150,),
    lower_bounds=(0, 0, 0),
    upper_bounds=(99, 99, 99),
    name="wide-box",
)


@pytest.fixture
def de_runs(monkeypatch):
    """Record every evolution run: a stage-3 run, recognized by its
    ``initial=`` population, as ``"stage3"``; any other run as its fitness on
    the probe vector ``(1.0, 2.0, ...)``, so that a stage-1 run reads
    ``j + 1`` when it minimizes column ``j`` and ``-(j + 1)`` when it
    maximizes it."""
    calls = []
    real = de.run

    def spy(problem, config, objective, draw, **kwargs):
        if "initial" in kwargs:
            calls.append("stage3")
        else:
            calls.append(objective(tuple(float(j + 1) for j in range(problem.n_objectives))))
        return real(problem, config, objective, draw, **kwargs)

    monkeypatch.setattr(de, "run", spy)
    return calls


STAGE1 = HybridConfig(de=DEConfig(variant="degl", population_size=20, max_iterations=10))

# repr of stage 1's (f*, f-) under the golden-pin configs and seed. G's slot
# comes last, so skipping its runs must leave the other columns' draws alone.
STAGE1_PINS = {
    ("p1", "degl"): (
        "(-30.89894011652826, -74.01969945879725, -94.55301075958467, 0.0)",
        "(-7.0, -8.0, -1.9999999999999996, 0.0)",
    ),
    ("p2", "rand1"): (
        "(90.75572303552677, 100.83416633842305, -16.0, 0.0)",
        "(1024.0, 1536.0, 512.0, 0.0)",
    ),
    ("p3", "best"): (
        "(-11.12244715776343, -6.499999144474842, 0.0)",
        "(-0.0, -0.0, 0.0)",
    ),
}


class TestStage1Violation:
    @pytest.mark.parametrize("name", ["p1", "p2", "p3"])
    def test_feasible_benchmark_skips_violation_runs(self, name, de_runs):
        problem = benchmark(name).problem
        f_star, f_minus = stage1_anchors(
            augment_with_violation(problem), STAGE1, np.random.default_rng(0).random
        )
        d = problem.n_objectives
        assert de_runs == [sign * (j + 1) for j in range(d) for sign in (1, -1)]
        assert (f_star[-1], f_minus[-1]) == (0.0, 0.0)
        assert math.copysign(1.0, f_star[-1]) == math.copysign(1.0, f_minus[-1]) == 1.0

    def test_no_feasible_point_runs_violation_column(self, de_runs):
        problem = Problem(
            dimension=2,
            objectives=((_sum_of, "min"),),
            constraints=(_never_met,),
            lower_bounds=(0, 0),
            upper_bounds=(3, 3),
            name="never-feasible",
        )
        f_star, f_minus = stage1_anchors(
            augment_with_violation(problem), STAGE1, np.random.default_rng(0).random
        )
        assert de_runs == [1, -1, 2, -2]
        assert f_star[-1] > 0.0

    @pytest.mark.parametrize("name, variant", sorted(STAGE1_PINS))
    def test_stage1_values_are_pinned(self, name, variant):
        config = HybridConfig(
            de=DEConfig(variant=variant, max_iterations=20), alternations=2, ts_iterations=1000
        )
        draw = np.random.default_rng(1).random
        _, anchors = compute_anchors(benchmark(name).problem, config, draw)
        assert (repr(anchors.f_star), repr(anchors.f_minus)) == STAGE1_PINS[name, variant]


class TestComputeAnchors:
    def test_violation_objective_dropped_with_renormalized_weights(self):
        problem = benchmark("p1").problem
        problem_k, anchors = compute_anchors(problem, SMALL, np.random.default_rng(0).random)
        assert problem_k.n_objectives == 4
        assert 3 in anchors.dropped
        assert anchors.active == (0, 1, 2)
        assert anchors.weights == (1 / 3, 1 / 3, 1 / 3)

    def test_distance_extremes_ordered(self):
        problem = benchmark("p3").problem
        _, anchors = compute_anchors(problem, SMALL, np.random.default_rng(1).random)
        assert anchors.d_pis_star <= anchors.d_pis_prime + 1e-12
        assert anchors.d_nis_star >= anchors.d_nis_prime - 1e-12
        assert len(anchors.x_p) == len(anchors.x_n) == 2


def archive_of(points):
    """An archive built as stage 3 builds one, by one ``pareto_filter`` call."""
    return SolutionArchive({x: ArchiveEntry(ev) for x, ev in pareto_filter(points)})


class TestArchive:
    def test_rejects_infeasible(self):
        archive = archive_of([((1, 1), Evaluation((0.0,), 0.5)),
                              ((2, 2), Evaluation((1.0,), 0.0))])
        assert archive.solutions() == [(2, 2)]
        with pytest.raises(ValueError):
            archive.add((1, 1), Evaluation((0.0,), 0.5))

    def test_duplicates_collapse(self):
        archive = archive_of([((1, 1), Evaluation((2.0,), 0.0))] * 2)
        assert len(archive) == 1

    def test_drops_dominated(self):
        archive = archive_of([((0, 0), Evaluation((1.0, 1.0), 0.0)),
                              ((1, 1), Evaluation((2.0, 2.0), 0.0))])
        assert set(archive.entries) == {(0, 0)}

    def test_solutions_sorted(self):
        archive = SolutionArchive({(3, 1): ArchiveEntry(Evaluation((1.0, 2.0), 0.0)),
                                   (1, 3): ArchiveEntry(Evaluation((2.0, 1.0), 0.0))})
        assert archive.solutions() == [(1, 3), (3, 1)]
        with pytest.raises(FrozenInstanceError):
            archive.entries = {}

    # add and finalize_pareto stay for the benchmark's tracer, which names them

    def test_add_idempotent_within_run(self):
        archive = SolutionArchive({})
        archive.add((1, 1), Evaluation((2.0,), 0.0))
        archive.add((1, 1), Evaluation((2.0,), 0.0))
        assert len(archive) == 1

    def test_finalize_drops_dominated(self):
        archive = SolutionArchive({})
        archive.add((0, 0), Evaluation((1.0, 1.0), 0.0))
        archive.add((1, 1), Evaluation((2.0, 2.0), 0.0))
        archive.finalize_pareto()
        assert set(archive.entries) == {(0, 0)}


class TestSolve:
    def test_p3_recovers_brute_force_front(self):
        problem = benchmark("p3").problem
        front = [key for key, _ in brute_force_pareto(problem)]
        archive = solve(problem, SMALL, np.random.default_rng(0))
        assert archive.solutions() == front

    def test_archive_points_feasible_and_in_box(self):
        problem = benchmark("p1").problem
        archive = solve(problem, SMALL, np.random.default_rng(2))
        assert len(archive) > 0
        for x in archive.solutions():
            assert problem.in_bounds(x)
            assert evaluate(problem, x).violation == 0.0

    def test_archive_objectives_match_reevaluation(self):
        problem = benchmark("p1").problem
        archive = solve(problem, SMALL, np.random.default_rng(2))
        for x, entry in archive.entries.items():
            assert entry.evaluation.objectives_min == evaluate(problem, x).objectives_min

    def test_deterministic_given_seed(self):
        problem = benchmark("p3").problem
        a = solve(problem, SMALL, np.random.default_rng(5))
        b = solve(problem, SMALL, np.random.default_rng(5))
        assert a.solutions() == b.solutions()
        assert a.anchors == b.anchors

    def test_anchors_attached(self):
        problem = benchmark("p3").problem
        archive = solve(problem, SMALL, np.random.default_rng(0))
        assert isinstance(archive.anchors, CompromiseAnchors)
        assert SolutionArchive({}).anchors is None  # an archive built by hand has none


@pytest.fixture
def tabu_searches(monkeypatch):
    """Record the move budget of every tabu search."""
    calls = []
    real = tabu.tabu_search

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(tabu, "tabu_search", spy)
    return calls


class TestStage3Stop:
    def test_stops_once_every_lattice_point_is_evaluated(self, tabu_searches, de_runs):
        # p1's 35 lattice points are all evaluated well within one alternation
        config = HybridConfig()
        problem = benchmark("p1").problem
        archive = solve(problem, config, np.random.default_rng(0))
        assert 0 < len(tabu_searches) < config.alternations * config.de.population_size
        assert de_runs.count("stage3") < config.alternations
        assert archive.solutions() == [key for key, _ in brute_force_pareto(problem)]

    def test_box_the_walks_cannot_exhaust_runs_every_search(self, tabu_searches, de_runs):
        config = HybridConfig(
            de=DEConfig(population_size=10, max_iterations=10),
            ts_iterations=50,
            alternations=2,
        )
        archive = solve(WIDE_BOX, config, np.random.default_rng(0))
        assert tabu_searches == [50] * (config.alternations * config.de.population_size)
        assert de_runs.count("stage3") == config.alternations
        assert len(archive) > 0


def assert_float_coordinates(pop):
    for ind in pop:
        assert type(ind.x) is tuple and all(type(v) is float for v in ind.x), ind.x


class TestCoordinatesAreFloats:
    """A member's coordinates come back as a tuple of Python floats."""

    def test_init_population(self):
        problem = benchmark("p1").problem
        assert_float_coordinates(
            de.init_population(problem, DEConfig(), np.random.default_rng(0).random)
        )

    @pytest.mark.parametrize("variant", de.VARIANTS)
    def test_run(self, variant):
        config = DEConfig(variant=variant, population_size=8, max_iterations=5)
        objective = de.single_objective(0, 3)
        pop = de.run(benchmark("p1").problem, config, objective, np.random.default_rng(0).random)
        assert_float_coordinates(pop)

    def test_stage3_replacement(self, monkeypatch):
        # a member the next run starts from that is not the one the previous
        # run returned is a tabu write-back
        runs = []
        real = de.run

        def spy(problem, config, objective, draw, **kwargs):
            pop = real(problem, config, objective, draw, **kwargs)
            if "initial" in kwargs:  # a stage-3 run
                runs.append((kwargs["initial"], list(pop)))
            return pop

        monkeypatch.setattr(de, "run", spy)
        # one generation leaves members the longer tabu walks improve on
        config = HybridConfig(
            de=DEConfig(population_size=10, max_iterations=1), ts_iterations=200, alternations=2
        )
        solve(WIDE_BOX, config, np.random.default_rng(0))
        (_, returned), (written_back, _) = runs
        replaced = [new for old, new in zip(returned, written_back) if new is not old]
        assert replaced
        assert_float_coordinates(replaced)
        assert all(v.is_integer() for ind in replaced for v in ind.x)

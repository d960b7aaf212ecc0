import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from moits.benchmarks import benchmark
from moits.problems import (
    VIOLATION,
    Evaluation,
    Problem,
    brute_force_pareto,
    deb_key,
    dominates,
    evaluate,
    pareto_filter,
)


def ev(*objs, violation=0.0):
    return Evaluation(tuple(float(v) for v in objs), violation)


def make_problem(objectives, constraints=(), lower=(0,), upper=(10,)):
    return Problem(
        dimension=len(lower),
        objectives=tuple(objectives),
        constraints=tuple(constraints),
        lower_bounds=lower,
        upper_bounds=upper,
    )


class TestEvaluate:
    def test_p1_known_point(self):
        result = evaluate(benchmark("p1").problem, (4, 4))
        assert result.objectives_min == (-28.0, -68.0, -44.0)
        assert result.violation == 0.0

    def test_p1_infeasible_point_max_violation(self):
        result = evaluate(benchmark("p1").problem, (7, 5))
        # g2 = 3*7 + 2*5 - 22 = 9 exceeds the g1 violation (~6.48)
        assert result.violation == 9.0

    def test_unconstrained_violation_is_zero(self):
        problem = make_problem([(lambda x: x[0], "min")])
        assert evaluate(problem, (3,)).violation == 0.0

    def test_max_sense_negates(self):
        problem = make_problem([(lambda x: x[0], "max")])
        assert evaluate(problem, (3,)).objectives_min == (-3.0,)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            evaluate(benchmark("p1").problem, (1, 2, 3))

    def test_non_finite_objective_named(self):
        problem = make_problem([(lambda x: x[0], "min"), (lambda x: math.nan, "min")])
        with pytest.raises(ValueError, match="objective 1"):
            evaluate(problem, (1,))

    def test_non_finite_constraint_named(self):
        problem = make_problem([(lambda x: x[0], "min")], [lambda x: math.inf])
        with pytest.raises(ValueError, match="constraint 0"):
            evaluate(problem, (1,))


class TestPlan:
    """``evaluate`` reads a plan each ``Problem`` builds once; ``replace``
    builds a new one, and the plan stays out of equality and hashing."""

    def test_replaced_constraints_are_evaluated(self):
        problem = make_problem([(lambda x: x[0], "min")], [lambda x: x[0] - 5.0])
        assert evaluate(problem, (7,)).violation == 2.0
        relaxed = replace(problem, constraints=(lambda x: x[0] - 9.0, lambda x: -1.0))
        assert evaluate(relaxed, (7,)).violation == 0.0
        assert evaluate(relaxed, (10,)).violation == 1.0
        assert evaluate(replace(problem, constraints=()), (7,)).violation == 0.0

    def test_replaced_sense_sets_the_sign(self):
        f = lambda x: x[0] + 1.0
        problem = make_problem([(f, "min"), (VIOLATION, "min")], [lambda x: x[0] - 5.0])
        assert evaluate(problem, (7,)).objectives_min == (8.0, 2.0)
        flipped = replace(problem, objectives=((f, "max"), (VIOLATION, "min")))
        assert evaluate(flipped, (7,)).objectives_min == (-8.0, 2.0)
        moved = replace(problem, objectives=((VIOLATION, "min"), (f, "max")))
        assert evaluate(moved, (7,)).objectives_min == (2.0, -8.0)

    def test_equal_problems_compare_and_hash_equal(self):
        objectives, constraints = ((abs, "min"), (VIOLATION, "min")), (abs,)
        a = make_problem(objectives, constraints)
        b = make_problem(objectives, constraints)
        assert a == b and hash(a) == hash(b)
        assert replace(a, name="other") != a
        assert "_plan" not in repr(a)

    def test_second_violation_slot_rejected(self):
        with pytest.raises(ValueError, match=re.escape("objectives [0, 2] all hold VIOLATION")):
            make_problem([(VIOLATION, "min"), (abs, "min"), (VIOLATION, "min")], [abs])


class TestDominates:
    def test_strict_improvement(self):
        assert dominates(ev(0, 0), ev(1, 1))

    def test_equal_points_do_not_dominate(self):
        assert not dominates(ev(0, 0), ev(0, 0))

    def test_one_component_suffices(self):
        assert dominates(ev(0, 1), ev(0, 2))

    def test_p2_published_dominance(self):
        problem = benchmark("p2").problem
        a = evaluate(problem, (8, 3))
        b = evaluate(problem, (9, 2))
        assert a.objectives_min == (91.0, 329.0, 125.0)
        assert b.objectives_min == (93.0, 409.0, 160.0)
        assert dominates(a, b)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates(ev(0, 0), ev(0, 0, 0))

    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=3, max_size=3))
    def test_irreflexive_antisymmetric_transitive(self, triple):
        a, b, c = (ev(*t) for t in triple)
        assert not dominates(a, a)
        if dominates(a, b):
            assert not dominates(b, a)
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


class TestParetoFilter:
    def test_dominated_point_removed(self):
        points = [((0, 0), ev(1, 1)), ((1, 1), ev(2, 2))]
        assert pareto_filter(points) == [((0, 0), ev(1, 1))]

    def test_p2_published_pair(self):
        problem = benchmark("p2").problem
        points = [(x, evaluate(problem, x)) for x in [(8, 3), (10, 1)]]
        assert [key for key, _ in pareto_filter(points)] == [(8, 3)]

    def test_single_point_kept(self):
        points = [((2,), ev(5))]
        assert pareto_filter(points) == points

    def test_infeasible_points_dropped(self):
        points = [((0,), ev(1, violation=2.0))]
        assert pareto_filter(points) == []

    def test_duplicates_collapse(self):
        points = [((1, 1), ev(3, 3)), ((1, 1), ev(3, 3))]
        assert len(pareto_filter(points)) == 1

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=12
        )
    )
    def test_idempotent_and_internally_nondominated(self, raw):
        points = [((i,), ev(*t)) for i, t in enumerate(raw)]
        once = pareto_filter(points)
        assert pareto_filter(once) == once
        for _, a in once:
            for _, b in once:
                assert not dominates(a, b)


def _quadratic_pareto_filter(points):
    """The all-pairs filter, kept as the reference of the sorted one."""
    seen = {}
    for vec, e in points:
        key = tuple(vec)
        if e.violation == 0.0 and key not in seen:
            seen[key] = e
    items = list(seen.items())
    kept = []
    for key, e in items:
        if not any(dominates(other, e) for _, other in items if other is not e):
            kept.append((key, e))
    return kept


class TestParetoFilterMatchesQuadratic:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 30),
                st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                st.sampled_from([0.0, 0.0, 0.0, 1.5]),
            ),
            max_size=40,
        ),
        st.integers(1, 3),
    )
    def test_same_points_in_the_same_order(self, raw, n_objectives):
        # few keys and few objective values: duplicate keys, tied vectors and
        # infeasible points all occur
        points = [((k,), ev(*f[:n_objectives], violation=g)) for k, f, g in raw]
        assert pareto_filter(points) == _quadratic_pareto_filter(points)


class TestBruteForce:
    def test_p3_front(self):
        front = [key for key, _ in brute_force_pareto(benchmark("p3").problem)]
        assert front == [(7, 6), (9, 5), (10, 4), (11, 1)]

    def test_p2_front_membership(self):
        front = {key for key, _ in brute_force_pareto(benchmark("p2").problem)}
        assert {(1, 10), (0, 16)} <= front
        assert (10, 1) not in front and (9, 2) not in front

    def test_one_dimensional(self):
        problem = make_problem([(lambda x: x[0], "min")], lower=(0,), upper=(3,))
        assert [key for key, _ in brute_force_pareto(problem)] == [(0,)]

    def test_oversized_lattice_refused(self):
        problem = make_problem(
            [(lambda x: x[0], "min")],
            lower=(0,) * 4,
            upper=(100,) * 4,
        )
        with pytest.raises(ValueError, match="exceeding"):
            brute_force_pareto(problem)

    def test_oracle_vs_independent_enumeration(self):
        # naive in-test enumeration, no reuse of pareto_filter
        problem = benchmark("p3").problem
        points = {}
        for x1 in range(problem.lower_bounds[0], problem.upper_bounds[0] + 1):
            for x2 in range(problem.lower_bounds[1], problem.upper_bounds[1] + 1):
                e = evaluate(problem, (x1, x2))
                if e.violation == 0.0:
                    points[(x1, x2)] = e.objectives_min
        expected = set()
        for key, f in points.items():
            beaten = any(
                all(g[i] <= f[i] for i in range(2)) and g != f
                for g in points.values()
            )
            if not beaten:
                expected.add(key)
        assert {key for key, _ in brute_force_pareto(problem)} == expected


class TestDebKey:
    """A strictly smaller key wins under the feasibility rules."""

    def test_feasible_beats_infeasible(self):
        assert deb_key(5.0, 0.0) < deb_key(1.0, 2.0)

    def test_fitness_among_feasibles(self):
        assert deb_key(1.0, 0.0) < deb_key(5.0, 0.0)
        assert not deb_key(5.0, 0.0) < deb_key(1.0, 0.0)

    def test_violation_among_infeasibles(self):
        assert not deb_key(0.0, 3.0) < deb_key(0.0, 1.0)
        assert deb_key(0.0, 1.0) < deb_key(0.0, 3.0)

    def test_tie_keeps_incumbent(self):
        assert not deb_key(2.0, 0.0) < deb_key(2.0, 0.0)


class TestProblemValidation:
    def test_bound_order(self):
        with pytest.raises(ValueError):
            make_problem([(lambda x: x[0], "min")], lower=(5,), upper=(1,))

    def test_unknown_sense(self):
        with pytest.raises(ValueError):
            make_problem([(lambda x: x[0], "argmax")])

    def test_needs_objective(self):
        with pytest.raises(ValueError):
            make_problem([])

    @pytest.mark.parametrize("lower, upper, named", [
        ((0.0, 0.0), (4.5, 4.0), "lower bound 0.0 of variable 0"),
        ((0, 0), (4.5, 4), "upper bound 4.5 of variable 0"),
        ((0, 0), (4, 4.0), "upper bound 4.0 of variable 1"),
        ((0, "1"), (4, 4), "lower bound '1' of variable 1"),
    ])
    def test_non_integer_bound_named(self, lower, upper, named):
        # a float bound would make lattice_size a float and break the lattice index
        with pytest.raises(ValueError, match=re.escape(f"{named} is not an integer")):
            make_problem([(lambda x: x[0], "min")], lower=lower, upper=upper)

    def test_numpy_integer_bounds_accepted(self):
        problem = make_problem([(lambda x: x[0], "min")], lower=(np.int64(0), 0), upper=(4, 4))
        assert problem.lattice_size() == 25

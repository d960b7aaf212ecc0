import operator
import re
import weakref
from collections import Counter, defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from moits import de
from moits.benchmarks import benchmark
from moits.de import single_objective
from moits.problems import Evaluation, Problem, deb_key, evaluate, feasible_lattice
from moits.tabu import CachedEvaluator, stochastic_round, tabu_move, tabu_search

OBJ1 = single_objective(0, 1)


def quad_problem(lower=(-5, -5), upper=(5, 5), center=(2, -3)):
    def f(x):
        return (x[0] - center[0]) ** 2 + (x[1] - center[1]) ** 2

    return Problem(
        dimension=2,
        objectives=((f, "min"),),
        constraints=(),
        lower_bounds=lower,
        upper_bounds=upper,
    )


class TestStochasticRound:
    def test_integers_pass_through(self):
        rng = np.random.default_rng(0)
        assert stochastic_round([3.0, -2.0], rng.random) == (3, -2)

    def test_result_brackets_input(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = rng.uniform(-10, 10)
            (r,) = stochastic_round([v], rng.random)
            assert r in (int(np.floor(v)), int(np.floor(v)) + 1)

    def test_unbiased_mean(self):
        # 2.25 rounds up a quarter of the time: mean 2.25, sd 0.25/sqrt(N)
        rng = np.random.default_rng(42)
        draws = 100_000
        total = sum(stochastic_round([2.25], rng.random)[0] for _ in range(draws))
        mean = total / draws
        sigma = np.sqrt(0.25 * 0.75 / draws)
        assert abs(mean - 2.25) < 3 * sigma
        assert 2.24 < mean < 2.26

    def test_negative_fraction(self):
        rng = np.random.default_rng(2)
        (r,) = stochastic_round([-1.75], rng.random)
        assert r in (-2, -1)


class TestCachedEvaluator:
    def test_memoizes_evaluations(self):
        calls = []
        problem = Problem(
            dimension=1,
            objectives=((lambda x: calls.append(x) or float(x[0] ** 2), "min"),),
            constraints=(),
            lower_bounds=(-5,),
            upper_bounds=(5,),
        )
        ev = CachedEvaluator(problem, OBJ1)
        i = ev.index((3,))
        assert ev.keys[i] == ev.keys[i] == (0, 9.0)
        assert len(calls) == 1
        assert ev.evals == {i: evaluate(problem, (3,))}

    def test_key_matches_feasibility_rules(self):
        problem = benchmark("p1").problem
        obj = single_objective(0, 3)
        ev = CachedEvaluator(problem, obj)
        e = evaluate(problem, (4, 4))
        assert ev.key(ev.index((4, 4))) == deb_key(obj(e.objectives_min), e.violation)


def move(x, x_star, k, t, evaluator, rng):
    """``tabu_move`` on points instead of flat indices, drawing from ``rng``."""
    i = tabu_move(evaluator.index(x), evaluator.index(x_star), k, t, evaluator, rng.random)[0]
    return evaluator.point(i)


class TestTabuMove:
    def test_improving_neighbor_taken_and_stamped(self):
        ev = CachedEvaluator(quad_problem(center=(2, 0)), OBJ1)
        t = [0, 0]  # recent enough to skip the diversification branch
        moved = move((0, 0), (0, 0), k=1, t=t, evaluator=ev, rng=np.random.default_rng(0))
        assert moved == (1, 0)
        assert t[0] == 1 and t[1] == 0

    def test_no_qualifying_move_returns_input_unstamped(self):
        # x is the unconstrained optimum: every neighbor is worse
        ev = CachedEvaluator(quad_problem(center=(2, -3)), OBJ1)
        t = [0, 0]
        moved = move((2, -3), (2, -3), k=1, t=t, evaluator=ev, rng=np.random.default_rng(0))
        assert moved == (2, -3)
        assert t == [0, 0]

    def test_tabu_blocks_recent_variable_without_aspiration(self):
        # both variables stamped this iteration; the improving move toward the
        # center does not beat the overall best, so nothing is admissible
        ev = CachedEvaluator(quad_problem(center=(2, 0)), OBJ1)
        moved = move((0, 0), (2, 0), k=5, t=[5, 5], evaluator=ev, rng=np.random.default_rng(0))
        assert moved == (0, 0)

    def test_aspiration_overrides_tabu(self):
        # same stamps, but the move lands on a point better than the best yet
        ev = CachedEvaluator(quad_problem(center=(2, 0)), OBJ1)
        moved = move((1, 0), (0, 0), k=5, t=[5, 5], evaluator=ev, rng=np.random.default_rng(0))
        assert moved == (2, 0)

    def test_diversification_when_memory_stale(self):
        ev = CachedEvaluator(quad_problem(), OBJ1)
        rng = np.random.default_rng(0)
        problem = ev.problem
        for k in range(1, 20):
            t = [-2, -2]  # a fresh memory: k - t_j > n for any k >= 1
            moved = move((0, 0), (0, 0), k=k, t=t, evaluator=ev, rng=rng)
            changed = [j for j in range(2) if moved[j] != 0]
            assert len(changed) <= 1
            assert t.count(k) == 1  # exactly one coordinate stamped
            for j, v in enumerate(moved):
                assert problem.lower_bounds[j] <= v <= problem.upper_bounds[j]

    def test_respects_bounds(self):
        ev = CachedEvaluator(quad_problem(lower=(0, 0), upper=(3, 3), center=(-5, -5)), OBJ1)
        moved = move((0, 0), (0, 0), k=1, t=[0, 0], evaluator=ev, rng=np.random.default_rng(0))
        assert all(0 <= v <= 3 for v in moved)


class TestTabuSearch:
    def test_finds_unconstrained_quadratic_minimum(self):
        evaluator = CachedEvaluator(quad_problem(), OBJ1)
        result = tabu_search((-5, 5), 200, evaluator, np.random.default_rng(0).random)
        assert evaluator.point(result) == (2, -3)

    def test_never_returns_worse_than_start(self):
        problem = benchmark("p2").problem
        obj = single_objective(0, 3)
        ev = CachedEvaluator(problem, obj)
        for seed in range(10):
            x0 = (seed % 17, (3 * seed) % 17)
            result = tabu_search(x0, 50, ev, np.random.default_rng(seed).random)
            assert ev.key(result) <= ev.key(ev.index(x0))

    def test_deterministic(self):
        problem = benchmark("p3").problem
        obj = single_objective(1, 2)
        results = {
            tabu_search((0, 0), 100, CachedEvaluator(problem, obj),
                        np.random.default_rng(7).random)
            for _ in range(3)
        }
        assert len(results) == 1

    def test_reaches_constrained_lattice_optimum(self):
        # p3 second objective (maximize x2): feasible lattice max is x2 = 7
        problem = benchmark("p3").problem
        obj = single_objective(1, 2)
        target = min(
            (e.objectives_min[1] for _, e in feasible_lattice(problem))
        )
        evaluator = CachedEvaluator(problem, obj)
        result = tabu_search((12, 0), 500, evaluator, np.random.default_rng(1).random)
        assert evaluate(problem, evaluator.point(result)).objectives_min[1] == target

    def test_zero_iterations_returns_start(self):
        evaluator = CachedEvaluator(quad_problem(), OBJ1)
        draw = np.random.default_rng(0).random
        assert tabu_search((1, 1), 0, evaluator, draw) == evaluator.index((1, 1))

    def test_float_start_coerced_to_ints(self):
        evaluator = CachedEvaluator(quad_problem(), OBJ1)
        result = tabu_search((1.0, 1.0), 10, evaluator, np.random.default_rng(0).random)
        assert result == tabu_search((1, 1), 10, evaluator, np.random.default_rng(0).random)


class TestOutOfBox:
    # (-5, 6) would alias (-4, -5): its last offset, 11, carries into the first
    @pytest.mark.parametrize("point", [(-5, 6), (6, 0), (0, -6), (0, 0, 0)])
    def test_rejected_naming_the_point(self, point):
        ev = CachedEvaluator(quad_problem(), OBJ1)

        def search(x):
            return tabu_search(x, 5, ev, np.random.default_rng(0).random)

        for call in (ev.index, search):
            with pytest.raises(ValueError, match=re.escape(f"point {point} lies outside")):
                call(point)


# -- the tuple/dict walk the flat-index kernel replaced, kept as its reference --


class _ReferenceEvaluator:
    def __init__(self, problem: Problem, objective=None):
        self.problem = problem
        self.objective = objective
        self._evals: dict[tuple[int, ...], Evaluation] = {}
        self._keys: dict[tuple[int, ...], tuple] = {}

    def evaluation(self, x: tuple[int, ...]) -> Evaluation:
        ev = self._evals.get(x)
        if ev is None:
            ev = evaluate(self.problem, x)
            self._evals[x] = ev
        return ev

    def key(self, x: tuple[int, ...]):
        k = self._keys.get(x)
        if k is None:
            ev = self.evaluation(x)
            k = deb_key(self.objective(ev.objectives_min), ev.violation)
            self._keys[x] = k
        return k


def _reference_tabu_move(x, x_star, k, t, evaluator, rng):
    problem = evaluator.problem
    n = problem.dimension
    lo, up = problem.lower_bounds, problem.upper_bounds

    if all(k - tj > n for tj in t):
        c = int(rng.random() * n)
        value = lo[c] + int(rng.random() * (up[c] - lo[c] + 1))
        moved = list(x)
        moved[c] = value
        t[c] = k
        return tuple(moved)

    best = x
    best_key = evaluator.key(x)
    star_key = evaluator.key(x_star)
    winner = -1
    for j in range(n):
        tenure = 1 + int(rng.random() * n)
        xj = x[j]
        for delta in (-1, 1):
            sj = xj + delta
            if sj < lo[j] or sj > up[j]:
                continue
            candidate = x[:j] + (sj,) + x[j + 1 :]
            cand_key = evaluator.key(candidate)
            if cand_key < best_key and (k - t[j] > tenure or cand_key < star_key):
                best = candidate
                best_key = cand_key
                winner = j
    if winner >= 0:
        t[winner] = k
    return best


def _reference_tabu_search(x0, iterations, rng, evaluator):
    n = evaluator.problem.dimension
    x = tuple(int(v) for v in x0)
    x_star = x
    t = [-n] * n
    for k in range(1, iterations + 1):
        x = _reference_tabu_move(x, x_star, k, t, evaluator, rng)
        if evaluator.key(x) < evaluator.key(x_star):
            x_star = x
    return x_star


def box_problem(lower, widths, center, capacity):
    """Integer quadratic (many ties) under one linear cap (infeasible points)."""
    return Problem(
        dimension=len(lower),
        objectives=((lambda x: sum((v - c) ** 2 for v, c in zip(x, center)), "min"),),
        constraints=(lambda x: float(sum(x) - capacity),),
        lower_bounds=tuple(lower),
        upper_bounds=tuple(lo + w for lo, w in zip(lower, widths)),
    )


@st.composite
def boxes(draw):
    n = draw(st.integers(1, 3))
    lower = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    widths = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    center = draw(st.lists(st.integers(-9, 12), min_size=n, max_size=n))
    return lower, widths, center, draw(st.integers(-12, 15))


class TestKernelMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(
        box=boxes(),
        iterations=st.sampled_from([0, 1, 7, 256, 257, 549]),
        searches=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from([1, 2, 7, de.BLOCK]),
    )
    @example(box=([-3], [5], [0], 9), iterations=549, searches=2, seed=1, block=de.BLOCK)
    @example(box=([2, -4, 1], [3, 4, 2], [4, 0, 2], 3), iterations=257, searches=3, seed=2,
             block=de.BLOCK)
    def test_same_best_and_generator_state(self, box, iterations, searches, seed, block):
        # one evaluator of each kind shared by all searches, as in stage 3
        problem = box_problem(*box)
        kernel, reference = CachedEvaluator(problem, OBJ1), _ReferenceEvaluator(problem, OBJ1)
        kernel_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(searches):
            x0 = tuple(int(kernel_rng.integers(lo, up + 1))
                       for lo, up in zip(problem.lower_bounds, problem.upper_bounds))
            assert x0 == tuple(int(reference_rng.integers(lo, up + 1))
                               for lo, up in zip(problem.lower_bounds, problem.upper_bounds))
            # small blocks put refills and the final rewind at every position of a walk
            with mock.patch.object(de, "BLOCK", block):
                draw, settle = de.block_draws(kernel_rng)
            try:
                best = tabu_search(x0, iterations, kernel, draw)
            finally:
                settle()
            expected = _reference_tabu_search(x0, iterations, reference_rng, reference)
            assert kernel.point(best) == expected
            assert kernel_rng.bit_generator.state == reference_rng.bit_generator.state
        # the same lazy misses: the kernel keyed exactly the reference's points
        assert {kernel.point(i) for i in kernel.keys} == set(reference._keys)

    @pytest.mark.parametrize("seed", range(6))
    def test_tied_best_keeps_the_first_found(self, seed):
        # the objective ignores x2, so every point of the line x1 = 2 is a best point;
        # kicks leave the line and scans return to it elsewhere
        problem = Problem(
            dimension=2,
            objectives=((lambda x: float((x[0] - 2) ** 2), "min"),),
            constraints=(),
            lower_bounds=(-4, -4),
            upper_bounds=(4, 4),
        )
        kernel_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        kernel = CachedEvaluator(problem, OBJ1)
        best = tabu_search((-4, -4), 768, kernel, kernel_rng.random)
        expected = _reference_tabu_search((-4, -4), 768, reference_rng,
                                          _ReferenceEvaluator(problem, OBJ1))
        assert kernel.point(best) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_failing_objective_leaves_generator_as_reference(self, seed):
        # the objective is non-finite at its minimum, which the walk reaches a few
        # moves into 1000: the uniforms drawn past the failing move are given back
        def f(x):
            if tuple(x) == (2, -3):
                return float("nan")
            return float((x[0] - 2) ** 2 + (x[1] + 3) ** 2)

        problem = Problem(dimension=2, objectives=((f, "min"),), constraints=(),
                          lower_bounds=(-5, -5), upper_bounds=(5, 5))
        kernel_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draw, settle = de.block_draws(kernel_rng)
        with pytest.raises(ValueError, match="non-finite"):
            try:
                tabu_search((-5, 5), 1000, CachedEvaluator(problem, OBJ1), draw)
            finally:
                settle()
        with pytest.raises(ValueError, match="non-finite"):
            _reference_tabu_search((-5, 5), 1000, reference_rng,
                                   _ReferenceEvaluator(problem, OBJ1))
        assert kernel_rng.bit_generator.state == reference_rng.bit_generator.state


class TestMultiMoveKernel:
    @settings(max_examples=120, deadline=None)
    @given(
        box=boxes(),
        moves=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        at_least=st.booleans(),
    )
    @example(box=([-3], [5], [0], 9), moves=40, seed=1, at_least=False)
    @example(box=([2, -4, 1], [3, 4, 2], [4, 0, 2], 3), moves=60, seed=2, at_least=False)
    # from the minimum of a bowl, where every scan stalls until the kick
    @example(box=([-3] * 3, [6] * 3, [0] * 3, 15), moves=7, seed=3, at_least=True)
    @example(box=([-3] * 3, [6] * 3, [0] * 3, 15), moves=30, seed=4, at_least=True)
    def test_one_call_equals_single_moves(self, box, moves, seed, at_least):
        problem = box_problem(*box)
        n = problem.dimension
        rng = np.random.default_rng(seed)
        start, star = (int(v) for v in rng.integers(0, problem.lattice_size(), 2))
        if at_least:  # start on the first point of least key, which no neighbour beats
            oracle = CachedEvaluator(problem, OBJ1)
            start = star = min(range(problem.lattice_size()), key=oracle.key)
        k = int(rng.integers(1, 40))
        stamps = [int(v) for v in rng.integers(-n, k, n)]  # older than move k
        uniforms = rng.random(moves * max(n, 2)).tolist()

        evaluator, t = CachedEvaluator(problem, OBJ1), list(stamps)
        draws = iter(uniforms)
        last, best = tabu_move(start, star, k, t, evaluator, draws.__next__, moves)

        # the same moves one call each, the caller keeping the best index
        single, single_t = CachedEvaluator(problem, OBJ1), list(stamps)
        single_draws = iter(uniforms)
        i, single_best = start, star
        for step in range(k, k + moves):
            i = tabu_move(i, single_best, step, single_t, single, single_draws.__next__)[0]
            if single.key(i) < single.key(single_best):
                single_best = i
        assert best == single_best
        assert last == i
        assert t == single_t
        assert operator.length_hint(draws) == operator.length_hint(single_draws)
        assert set(evaluator.evals) == set(single.evals)


def _reference_walk(x, x_star, k, t, moves, rng, evaluator):
    """``moves`` reference moves from any walk state, keeping the best point."""
    for step in range(k, k + moves):
        x = _reference_tabu_move(x, x_star, step, t, evaluator, rng)
        if evaluator.key(x) < evaluator.key(x_star):
            x_star = x
    return x, x_star


def bowl():
    """A convex quadratic on [-3, 3]^3 with its minimum at the origin, where
    every neighbour is worse, under a cap that every point meets."""
    return box_problem([-3] * 3, [6] * 3, [0] * 3, 100)


class CountingKeys(defaultdict):
    """A key store that counts every read of a key."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return super().__getitem__(i)


class TestStandingWalk:
    """A scan that finds no admissible neighbour leaves the walk where it
    stands. The scans that follow at that point test only the neighbours that
    beat it, and a point that no neighbour beats skips its scans up to the
    kick; the walk is the reference's all the same."""

    @settings(max_examples=80, deadline=None)
    @given(
        box=boxes(),
        iterations=st.integers(1, 120),
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from([1, 2, 7, de.BLOCK]),
    )
    # a 1-variable minimum at 0: kicks land back on it or descend to it
    @example(box=([-3], [5], [0], 9), iterations=40, seed=1, block=2)
    # the least point of a capped 3-variable box, a refill every 7 uniforms
    @example(box=([2, -4, 1], [3, 4, 2], [4, 0, 2], 3), iterations=97, seed=2, block=7)
    def test_search_from_the_least_point_matches_reference(self, box, iterations, seed, block):
        problem = box_problem(*box)
        oracle = CachedEvaluator(problem, OBJ1)
        x0 = oracle.point(min(range(problem.lattice_size()), key=oracle.key))
        kernel, reference = CachedEvaluator(problem, OBJ1), _ReferenceEvaluator(problem, OBJ1)
        kernel_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(de, "BLOCK", block):
            draw, settle = de.block_draws(kernel_rng)
        try:
            best = tabu_search(x0, iterations, kernel, draw)
        finally:
            settle()
        assert kernel.point(best) == _reference_tabu_search(x0, iterations, reference_rng,
                                                            reference)
        assert kernel_rng.bit_generator.state == reference_rng.bit_generator.state
        assert {kernel.point(i) for i in kernel.keys} == set(reference._keys)

    # stamped at move 0, the memory of 3 variables goes stale at move 4, the kick:
    # 2 moves end inside the skip over scans 2 and 3, 3 end at it, 4 and more kick
    @pytest.mark.parametrize("moves", [1, 2, 3, 4, 5, 9, 40], ids="moves{}".format)
    @pytest.mark.parametrize("block", [1, 2, 7, de.BLOCK], ids="block{}".format)
    def test_walk_from_a_local_minimum_matches_reference(self, moves, block):
        problem = bowl()
        kernel, reference = CachedEvaluator(problem, OBJ1), _ReferenceEvaluator(problem, OBJ1)
        kernel_rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
        origin = kernel.index((0, 0, 0))
        t, reference_t = [0, 0, 0], [0, 0, 0]
        with mock.patch.object(de, "BLOCK", block):
            draw, settle = de.block_draws(kernel_rng)
        try:
            last, best = tabu_move(origin, origin, 1, t, kernel, draw, moves)
        finally:
            settle()
        expected = _reference_walk((0, 0, 0), (0, 0, 0), 1, reference_t, moves,
                                   reference_rng, reference)
        assert (kernel.point(last), kernel.point(best)) == expected
        assert t == reference_t
        assert kernel_rng.bit_generator.state == reference_rng.bit_generator.state
        assert {kernel.point(i) for i in kernel.keys} == set(reference._keys)

    @pytest.mark.parametrize("moves", [1, 2, 3])
    def test_repeat_scans_and_skipped_scans_read_no_key(self, moves):
        # no neighbour beats the minimum (2, 0); (1, 0) beats (0, 0), but its
        # variable was moved at move 5 and it does not beat the best point
        # (2, 0), so with every tenure drawn as 2 the scans at moves 5, 6 and 7
        # all stall, and only the first reads keys; a start on the minimum
        # beats a best point (0, 0) passed in, so it becomes the best
        draws = []

        def draw():
            draws.append(0.99)
            return 0.99

        for start, best, expected in [((2, 0), (2, 0), (2, 0)), ((0, 0), (2, 0), (2, 0)),
                                      ((2, 0), (0, 0), (2, 0))]:
            evaluator = CachedEvaluator(quad_problem(center=(2, 0)), OBJ1)
            every = range(evaluator.problem.lattice_size())  # keyed first: no read misses
            evaluator.keys = CountingKeys(type(None), {j: evaluator.key(j) for j in every})
            i, star = evaluator.index(start), evaluator.index(best)
            draws.clear()
            assert tabu_move(i, star, 5, [5, 5], evaluator, draw, moves) == (
                i, evaluator.index(expected))
            assert len(draws) == 2 * moves  # one tenure per variable per scan
            # the best point, the point and its four neighbours
            assert evaluator.keys.lookups == 6

    def test_winning_moves_step_to_neighbours_down_a_bowl(self):
        # every better neighbour beats the best point, so the walk descends one
        # step a move, whatever the tenures, and reaches the origin in 9 moves
        evaluator = CachedEvaluator(bowl(), OBJ1)
        start = evaluator.index((-3, 3, 3))
        for moves in range(1, 10):
            last, best = tabu_move(start, start, 1, [0, 0, 0], evaluator, lambda: 0.0, moves)
            assert last == best
            assert sum(map(abs, evaluator.point(last))) == 9 - moves


class TestKeyStore:
    @pytest.mark.parametrize("widths", [
        pytest.param((254, 256), id="65535-points"),
        pytest.param((255, 255), id="65536-points"),
        pytest.param((20,) * 6, id="wide-shape"),  # 21^6 = 8.6e7 points
    ])
    def test_keys_held_for_exactly_the_evaluated_points(self, widths):
        problem = box_problem([0] * len(widths), list(widths), [3] * len(widths), 10**6)
        evaluator = CachedEvaluator(problem, OBJ1)
        assert len(evaluator.keys) == 0
        start = tuple(w // 2 for w in widths)
        best = tabu_search(start, 300, evaluator, np.random.default_rng(0).random)
        assert evaluator.key(best) <= evaluator.key(evaluator.index(start))
        assert set(evaluator.keys) == set(evaluator.evals)
        assert None not in evaluator.keys.values()

    def test_evaluations_held_for_exactly_the_feasible_keyed_points(self):
        # the cap of 12 on the sum of 4 coordinates in [0, 10] leaves most points infeasible
        problem = box_problem([0] * 4, [10] * 4, [5] * 4, 12)
        evaluator = CachedEvaluator(problem, OBJ1)
        tabu_search((10, 10, 0, 0), 300, evaluator, np.random.default_rng(0).random)
        feasible = {i for i, k in evaluator.keys.items() if k[0] == 0}
        assert feasible and len(feasible) < len(evaluator.keys)
        assert set(evaluator.evals) == feasible
        assert all(ev.violation == 0.0 for ev in evaluator.evals.values())

    def test_a_dropped_evaluator_is_freed_at_once(self):
        # the key store refers back to its evaluator weakly: a reference cycle
        # would keep a finished solve's stores alive until the cyclic collector ran
        evaluator = CachedEvaluator(capped_problem(), OBJ1)
        tabu_search((3, 2), 50, evaluator, np.random.default_rng(0).random)
        dropped = weakref.ref(evaluator)
        del evaluator
        assert dropped() is None


def capped_problem(capacities=(4, 6), nan_at=None):
    """Two caps over the box [-3, 3]^2, on x1 + x2 and on x1 - x2, under the
    objective x1^2 + x2^2, which is NaN at the point ``nan_at``."""

    def f(x):
        return float("nan") if tuple(x) == nan_at else float(x[0] ** 2 + x[1] ** 2)

    return Problem(
        dimension=2,
        objectives=((f, "min"),),
        constraints=(lambda x: float(x[0] + x[1] - capacities[0]),
                     lambda x: float(x[0] - x[1] - capacities[1])),
        lower_bounds=(-3, -3),
        upper_bounds=(3, 3),
        name="capped",
    )


class TestConstraintFirstKeys:
    """An infeasible lattice point is keyed by its violation G alone: Deb's
    rules never read its objectives, so neither does the walk."""

    def test_objective_called_only_at_feasible_keyed_points(self):
        calls = []

        def counted(x):
            calls.append(tuple(x))
            return float((x[0] - 1) ** 2 + (x[1] + 1) ** 2)

        problem = Problem(dimension=3, objectives=((counted, "min"),),
                          constraints=(lambda x: float(sum(x) - 10),),
                          lower_bounds=(0, 0, 0), upper_bounds=(9, 9, 9))
        evaluator = CachedEvaluator(problem, OBJ1)
        tabu_search((9, 9, 9), 400, evaluator, np.random.default_rng(3).random)
        feasible = {evaluator.point(i) for i, k in evaluator.keys.items() if k[0] == 0}
        assert len(feasible) < len(evaluator.keys)
        assert sorted(calls) == sorted(feasible)

    def test_constraints_called_once_per_keyed_point(self):
        # the cap of 10 on the sum leaves feasible and infeasible points in the box
        calls = []

        def cap(x):
            calls.append(tuple(x))
            return float(sum(x) - 10)

        problem = Problem(dimension=3, objectives=((lambda x: float(x[0] - x[1]), "min"),),
                          constraints=(cap, lambda x: float(x[2] - 8)),
                          lower_bounds=(0, 0, 0), upper_bounds=(9, 9, 9))
        evaluator = CachedEvaluator(problem, OBJ1)
        tabu_search((9, 9, 9), 400, evaluator, np.random.default_rng(3).random)
        assert evaluator.evals and len(evaluator.evals) < len(evaluator.keys)
        assert Counter(calls) == Counter(evaluator.point(i) for i in evaluator.keys)
        for i, ev in evaluator.evals.items():
            assert ev == evaluate(problem, evaluator.point(i))

    @pytest.mark.parametrize("point, key", [
        pytest.param((3, 3), (1, 2.0), id="over-the-first-cap-by-2"),
        pytest.param((2, 3), (1, 1.0), id="over-the-first-cap-by-1"),
        pytest.param((3, -3), (1, 1.0), id="over-the-second-cap-by-1"),
        pytest.param((3, -2), (0, 13.0), id="on-the-second-cap"),  # feasible: keyed by fitness
    ])
    def test_key_is_the_violation_or_the_fitness(self, point, key):
        evaluator = CachedEvaluator(capped_problem(capacities=(4, 5)), OBJ1)
        assert evaluator.key(evaluator.index(point)) == key

    @settings(max_examples=80, deadline=None)
    @given(box=boxes(), seed=st.integers(0, 2**32 - 1))
    @example(box=([2, -4, 1], [3, 4, 2], [4, 0, 2], 3), seed=2)
    def test_every_key_equals_the_reference_key(self, box, seed):
        problem = box_problem(*box)
        evaluator, reference = CachedEvaluator(problem, OBJ1), _ReferenceEvaluator(problem, OBJ1)
        x0 = tuple(problem.upper_bounds)
        tabu_search(x0, 120, evaluator, np.random.default_rng(seed).random)
        assert evaluator.keys
        for i, k in evaluator.keys.items():
            assert k == reference.key(evaluator.point(i))

    def test_evaluation_of_an_infeasible_keyed_index(self):
        evaluator = CachedEvaluator(capped_problem(), OBJ1)
        i = evaluator.index((3, 3))
        assert evaluator.keys[i] == (1, 2.0)
        assert i in evaluator.keys and i not in evaluator.evals

    def test_nan_objective_at_an_infeasible_point_does_not_stop_a_walk(self):
        # (3, 3) violates the first cap; the walk from (3, 2) looks at it
        evaluator = CachedEvaluator(capped_problem(nan_at=(3, 3)), OBJ1)
        best = tabu_search((3, 2), 50, evaluator, np.random.default_rng(0).random)
        assert evaluator.index((3, 3)) in evaluator.keys
        assert evaluator.point(best) == (0, 0)

    def test_nan_objective_at_a_feasible_point_raises_naming_it(self):
        evaluator = CachedEvaluator(capped_problem(nan_at=(0, 1)), OBJ1)
        with pytest.raises(ValueError,
                           match=re.escape("objective 0 of 'capped' is non-finite at (0, 1)")):
            tabu_search((3, 1), 50, evaluator, np.random.default_rng(0).random)
        # the raising key computation stores nothing
        i = evaluator.index((0, 1))
        assert i not in evaluator.keys and i not in evaluator.evals

    @pytest.mark.parametrize("where", [(3, 3), (0, 0)], ids=["infeasible", "feasible"])
    def test_non_finite_constraint_raises_anywhere(self, where):
        def g(x):
            return float("inf") if tuple(x) == where else -1.0

        problem = Problem(dimension=2, objectives=((lambda x: float(x[0] ** 2), "min"),),
                          constraints=(lambda x: float(x[0] + x[1] - 4), g),
                          lower_bounds=(-3, -3), upper_bounds=(3, 3), name="capped")
        evaluator = CachedEvaluator(problem, OBJ1)
        with pytest.raises(ValueError,
                           match=re.escape(f"constraint 1 of 'capped' is non-finite at {where}")):
            evaluator.key(evaluator.index(where))

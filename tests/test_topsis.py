import numpy as np
import pytest

import moits.de as de
from moits.de import Individual, choose_best, single_objective
from moits.problems import Evaluation
from moits.topsis import (
    BENEFIT,
    COST,
    DecisionMatrix,
    closeness,
    cost_closeness,
    ideal_solutions,
    normalize,
    rank,
)


def cost_matrix(entries, weights=None):
    entries = np.asarray(entries, dtype=float)
    ncols = entries.shape[1]
    if weights is None:
        weights = np.full(ncols, 1.0 / ncols)
    return DecisionMatrix(entries, (COST,) * ncols, weights)


class TestBuildMatrix:
    """A DecisionMatrix refuses non-finite entries and weights."""

    @pytest.mark.parametrize("entries, weights, name", [
        ([[1.0, np.nan], [2.0, 3.0]], [0.5, 0.5], "entries"),
        ([[1.0, 2.0], [-np.inf, 3.0]], [0.5, 0.5], "entries"),
        ([[1.0, 2.0], [2.0, 3.0]], [np.nan, np.nan], "weights"),
        ([[1.0, 2.0], [2.0, 3.0]], [np.inf, 0.5], "weights"),
    ])
    def test_non_finite_rejected(self, entries, weights, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DecisionMatrix(np.array(entries), (COST, COST), np.array(weights))


class TestNormalize:
    def test_divide_by_column_max(self):
        out = normalize(np.array([[2.0], [4.0]]))
        assert out[:, 0].tolist() == [0.5, 1.0]

    def test_zero_column_stays_zero(self):
        out = normalize(np.array([[0.0], [0.0]]))
        assert out[:, 0].tolist() == [0.0, 0.0]

    def test_negative_column_uses_max_abs(self):
        out = normalize(np.array([[-28.0], [-22.0]]))
        np.testing.assert_allclose(out[:, 0], [-1.0, -22.0 / 28.0])


class TestIdealSolutions:
    def test_cost_column(self):
        pos, neg = ideal_solutions(np.array([[0.5], [1.0]]), (COST,))
        assert (pos[0], neg[0]) == (0.5, 1.0)

    def test_benefit_column(self):
        pos, neg = ideal_solutions(np.array([[0.5], [1.0]]), (BENEFIT,))
        assert (pos[0], neg[0]) == (1.0, 0.5)

    def test_degenerate_column(self):
        pos, neg = ideal_solutions(np.array([[0.3], [0.3]]), (COST,))
        assert pos[0] == neg[0] == 0.3


class TestCloseness:
    def test_alternative_at_positive_ideal(self):
        normalized = np.array([[0.2, 0.2], [1.0, 1.0]])
        pos, neg = ideal_solutions(normalized, (COST, COST))
        d_plus, d_minus, xi = closeness(normalized, pos, neg, [0.5, 0.5])
        assert d_plus[0] == 0.0 and xi[0] == 1.0

    def test_hand_computed_symmetric_case(self):
        # rows (1,2) and (2,1), both criteria cost, uniform weights
        matrix = cost_matrix([[1.0, 2.0], [2.0, 1.0]])
        ranking = rank(matrix)
        np.testing.assert_allclose(ranking.normalized, [[0.5, 1.0], [1.0, 0.5]])
        np.testing.assert_allclose(ranking.positive_ideal, [0.5, 0.5])
        np.testing.assert_allclose(ranking.negative_ideal, [1.0, 1.0])
        assert abs(ranking.d_plus[0] - np.sqrt(0.125)) < 1e-12
        assert abs(ranking.d_minus[0] - np.sqrt(0.125)) < 1e-12
        assert abs(ranking.closeness[0] - 0.5) < 1e-12
        assert abs(ranking.closeness[1] - 0.5) < 1e-12

    def test_identical_alternatives_get_one(self):
        ranking = rank(cost_matrix([[3.0, 4.0], [3.0, 4.0]]))
        assert ranking.closeness.tolist() == [1.0, 1.0]


class TestBestAlternative:
    def test_argmax(self):
        ranking = rank(cost_matrix([[5.0], [1.0], [3.0]]))
        assert ranking.order[0] == 1

    def test_tie_breaks_to_lowest_index(self):
        ranking = rank(cost_matrix([[2.0, 3.0], [2.0, 3.0]]))
        assert ranking.order[0] == 0

    def test_single_alternative(self):
        assert rank(cost_matrix([[9.0]])).order[0] == 0


class TestProperties:
    def test_closeness_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            entries = rng.random((rng.integers(2, 8), rng.integers(1, 5))) * 10
            xi = rank(cost_matrix(entries)).closeness
            assert np.all(xi >= 0.0) and np.all(xi <= 1.0)

    def test_column_scaling_leaves_ranking_unchanged(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            rows = int(rng.integers(2, 7))
            cols = int(rng.integers(1, 4))
            entries = rng.random((rows, cols)) + 0.05
            scales = rng.random(cols) * 5 + 0.1
            base = rank(cost_matrix(entries))
            scaled = rank(cost_matrix(entries * scales))
            np.testing.assert_allclose(scaled.normalized, base.normalized)
            np.testing.assert_allclose(scaled.closeness, base.closeness)
            assert scaled.order == base.order

    def test_dominant_alternative_attains_max_closeness(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            rows = int(rng.integers(2, 7))
            cols = int(rng.integers(1, 4))
            entries = rng.random((rows, cols)) + 0.1
            winner = int(rng.integers(rows))
            entries[winner] = entries.min(axis=0) * 0.5
            xi = rank(cost_matrix(entries)).closeness
            assert xi[winner] == xi.max()

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            entries = rng.random((5, 3))
            perm = rng.permutation(5)
            xi = rank(cost_matrix(entries)).closeness
            xi_perm = rank(cost_matrix(entries[perm])).closeness
            np.testing.assert_allclose(xi_perm, xi[perm])

    def test_single_benefit_column_ranks_by_value(self):
        rng = np.random.default_rng(4)
        values = rng.permutation(np.arange(1.0, 8.0)).reshape(-1, 1)
        matrix = DecisionMatrix(values, (BENEFIT,), np.array([1.0]))
        order = rank(matrix).order
        ranked_values = [values[i, 0] for i in order]
        assert ranked_values == sorted(ranked_values, reverse=True)

    def test_cost_closeness_agrees_with_rank(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            entries = rng.standard_normal((6, 2)) * 4
            lean = cost_closeness(entries.copy())
            full = rank(cost_matrix(entries)).closeness
            np.testing.assert_allclose(lean, full)
            assert np.array_equal(lean, full)

    def test_cost_closeness_batches_bit_for_bit(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            stack = rng.standard_normal((4, 6, int(rng.integers(1, 5)))) * 4
            stack[rng.random(stack.shape) < 0.3] = 0.0
            stack[1] = stack[0]
            batched = cost_closeness(stack)
            assert np.array_equal(batched, [cost_closeness(m) for m in stack])

    def test_row_election_matches_choose_best(self):
        rng = np.random.default_rng(7)
        objective = single_objective(0, 1)
        for _ in range(50):
            violation = np.where(rng.random(10) < 0.5, 0.0, rng.random(10))
            pop = [
                Individual((0.0,), Evaluation((float(f),), float(v)))
                for f, v in zip(rng.integers(-3, 4, 10), violation)
            ]
            rows = np.array([rng.permutation(10)[:5] for _ in range(10)])
            pairs = np.array([(objective(ind.eval.objectives_min), ind.eval.violation) for ind in pop])
            elected = de._elect(pairs, rows)
            assert elected.tolist() == [choose_best(pop, row, objective) for row in rows]

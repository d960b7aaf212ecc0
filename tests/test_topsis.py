import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import moits.de as de
from moits.de import Individual, choose_best, single_objective
from moits.problems import Evaluation
from moits.topsis import BENEFIT, COST, DecisionMatrix, cost_closeness, normalize, rank


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
    """The ideal end of a column follows its sense: an alternative at the
    positive ideal has d+ = 0, one at the negative ideal d- = 0."""

    def test_cost_column(self):
        ranking = rank(DecisionMatrix(np.array([[0.5], [1.0]]), (COST,), np.array([1.0])))
        assert ranking.d_plus[0] == 0.0 and ranking.d_minus[1] == 0.0

    def test_benefit_column(self):
        ranking = rank(DecisionMatrix(np.array([[0.5], [1.0]]), (BENEFIT,), np.array([1.0])))
        assert ranking.d_plus[1] == 0.0 and ranking.d_minus[0] == 0.0

    def test_degenerate_column(self):
        for sense in (COST, BENEFIT):
            ranking = rank(DecisionMatrix(np.array([[0.3], [0.3]]), (sense,), np.array([1.0])))
            assert ranking.d_plus.tolist() == ranking.d_minus.tolist() == [0.0, 0.0]


class TestCloseness:
    def test_alternative_at_positive_ideal(self):
        ranking = rank(cost_matrix([[0.2, 0.2], [1.0, 1.0]]))
        assert ranking.d_plus[0] == 0.0 and ranking.closeness[0] == 1.0

    def test_hand_computed_symmetric_case(self):
        # rows (1,2) and (2,1), both criteria cost, uniform weights
        matrix = cost_matrix([[1.0, 2.0], [2.0, 1.0]])
        ranking = rank(matrix)
        np.testing.assert_allclose(normalize(matrix.entries), [[0.5, 1.0], [1.0, 0.5]])
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
            np.testing.assert_allclose(normalize(entries * scales), normalize(entries))
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
            pairs = np.array([[objective(ind.eval.objectives_min) for ind in pop],
                              [ind.eval.violation for ind in pop]])
            elected = de._elect(pairs, rows.T)
            assert elected.tolist() == [choose_best(pop, row, objective) for row in rows]


# TOPSIS as written before rank and cost_closeness shared one all-cost
# formula, kept as the reference of TestRankMatchesReference: ideals picked
# per column sense, then a four-argument closeness
def _reference_normalize(entries):
    scale = np.abs(entries).max(axis=-2, keepdims=True)
    scale[scale == 0.0] = 1.0
    return entries / scale


def _reference_ideal_solutions(normalized, senses):
    col_max = normalized.max(axis=0)
    col_min = normalized.min(axis=0)
    benefit = np.array([s == BENEFIT for s in senses])
    positive = np.where(benefit, col_max, col_min)
    negative = np.where(benefit, col_min, col_max)
    return positive, negative


def _reference_closeness(normalized, positive_ideal, negative_ideal, weights):
    d_plus = np.sqrt(((positive_ideal - normalized) ** 2 * weights).sum(axis=-1))
    d_minus = np.sqrt(((negative_ideal - normalized) ** 2 * weights).sum(axis=-1))
    total = d_plus + d_minus
    degenerate = ~(total > 0.0)
    total[degenerate] = 1.0
    xi = d_minus / total
    xi[degenerate] = 1.0
    return d_plus, d_minus, xi


def _reference_rank(matrix):
    """(d_plus, d_minus, closeness, order) of ``matrix``."""
    normalized = _reference_normalize(matrix.entries)
    positive, negative = _reference_ideal_solutions(normalized, matrix.criteria_senses)
    d_plus, d_minus, xi = _reference_closeness(normalized, positive, negative, matrix.weights)
    order = tuple(int(i) for i in np.argsort(-xi, kind="stable"))
    return d_plus, d_minus, xi, order


ENTRY = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5)) | st.floats(-1e6, 1e6)


@st.composite
def columns(draw, rows):
    """One column: any values, all (signed) zeros, or one constant."""
    kind = draw(st.sampled_from(("any", "zero", "constant")))
    if kind == "zero":
        return draw(st.lists(st.sampled_from((0.0, -0.0)), min_size=rows, max_size=rows))
    if kind == "constant":
        return [draw(ENTRY)] * rows
    return draw(st.lists(ENTRY, min_size=rows, max_size=rows))


@st.composite
def decision_matrices(draw):
    """1-8 alternatives, 1-5 criteria of random senses, and non-negative
    weights that sum to 1."""
    rows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 5))
    entries = np.array([draw(columns(rows)) for _ in range(ncols)], dtype=float).T
    senses = tuple(draw(st.lists(st.sampled_from((COST, BENEFIT)),
                                 min_size=ncols, max_size=ncols)))
    raw = np.array(draw(st.lists(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0),
                                 min_size=ncols, max_size=ncols)))
    weights = raw / raw.sum() if raw.sum() > 0.0 else np.full(ncols, 1.0 / ncols)
    return DecisionMatrix(entries, senses, weights)


def same_bits(ours, reference):
    return np.asarray(ours).tobytes() == np.asarray(reference).tobytes()


LAPTOPS = DecisionMatrix(
    np.array([[600.0, 7.0, 1.8], [1400.0, 14.0, 1.1], [2200.0, 9.0, 2.4], [1800.0, 5.0, 3.1]]),
    (COST, BENEFIT, COST), np.array([0.5, 0.3, 0.2]),
)


class TestRankMatchesReference:
    """rank negates benefit columns and runs the all-cost formula; the
    closeness, both distances and the order are the reference's, bit for bit."""

    @settings(max_examples=400)
    @given(decision_matrices())
    @example(LAPTOPS)
    @example(DecisionMatrix(np.array([[7.0]]), (BENEFIT,), np.array([1.0])))
    @example(DecisionMatrix(np.array([[0.0, 2.0], [-0.0, 1.0], [0.0, -3.0]]),
                            (BENEFIT, BENEFIT), np.array([0.5, 0.5])))
    @example(DecisionMatrix(np.array([[4.0, -1.0], [4.0, 2.0]]),
                            (BENEFIT, COST), np.array([0.25, 0.75])))
    @example(DecisionMatrix(np.array([[1.0, 5.0, -0.0], [3.0, 2.0, 0.0]]),
                            (COST, BENEFIT, BENEFIT), np.array([0.0, 1.0, 0.0])))
    @example(DecisionMatrix(np.array([[2.0, 3.0], [2.0, 3.0]]),
                            (BENEFIT, COST), np.array([0.5, 0.5])))
    def test_rank(self, matrix):
        ranking = rank(matrix)
        d_plus, d_minus, xi, order = _reference_rank(matrix)
        assert same_bits(ranking.closeness, xi)
        assert same_bits(ranking.d_plus, d_plus)
        assert same_bits(ranking.d_minus, d_minus)
        assert ranking.order == order

    @settings(max_examples=200)
    @given(st.integers(1, 4).flatmap(
        lambda depth: st.lists(decision_matrices(), min_size=depth, max_size=depth)))
    @example([cost_matrix([[0.0, -0.0], [-0.0, 0.0]]), cost_matrix([[1.0, 2.0], [2.0, 1.0]])])
    def test_batched_cost_closeness(self, matrices):
        # one shape for the stack: the first matrix's, its entries reused
        # cyclically, every column cost and every weight uniform
        shape = matrices[0].entries.shape
        stack = np.stack([np.resize(m.entries, shape) for m in matrices])
        expected = [_reference_rank(cost_matrix(m))[2] for m in stack]
        assert same_bits(cost_closeness(stack), np.stack(expected))

"""The random stream of a solve: one ``block_draws`` stream, settled once.

``block_draws`` must hand out exactly the uniforms of one scalar
``rng.random()`` per draw and leave the generator where those calls leave it,
also when the consumer raises. ``solve`` opens the one stream of a run, so
the generator sees only whole blocks plus the final rewind.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moits import de
from moits.benchmarks import benchmark
from moits.de import DEConfig
from moits.pipeline import HybridConfig, compute_anchors, solve, stage3_alternate
from moits.problems import Problem


class TestBlockDraws:
    @settings(max_examples=120, deadline=None)
    @given(
        take=st.integers(0, 2500),
        block=st.sampled_from([1, 2, 7, de.BLOCK]),
        fail=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scalar_draws_and_settled_state(self, take, block, fail, seed):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(de, "BLOCK", block):
            draw, settle = de.block_draws(rng)
        got = []
        try:
            got.extend(draw() for _ in range(take))
            if fail:
                raise RuntimeError("consumer failed")
        except RuntimeError:
            assert fail
        finally:
            settle()
        assert got == [reference.random() for _ in range(take)]
        assert rng.bit_generator.state == reference.bit_generator.state


class _CountingRng:
    """A generator that records the size of every ``random`` call."""

    def __init__(self, rng):
        self.bit_generator, self._random, self.sizes = rng.bit_generator, rng.random, []

    def random(self, size=None):
        self.sizes.append(size)
        return self._random(size)


def _nan_at_origin(x):
    if tuple(x) == (0, 0):
        return float("nan")
    return float((x[0] - 2) ** 2 + (x[1] + 3) ** 2)


def _toward_corner(x):
    return float((x[0] + 2) ** 2 + (x[1] - 3) ** 2)


class TestSolveStream:
    def test_solve_draws_whole_blocks_and_one_rewind(self):
        # every DE run, rounding and search of a default p2 solve draws from it
        rng = _CountingRng(np.random.default_rng(3))
        solve(benchmark("p2").problem, HybridConfig(), rng)
        *blocks, rewind = rng.sizes
        assert len(blocks) > 1 and set(blocks) == {de.BLOCK}
        assert 0 < rewind < de.BLOCK

    @pytest.mark.parametrize("seed", range(4))
    def test_failing_objective_leaves_generator_as_reference(self, seed):
        # the first objective is non-finite at the origin, a lattice point that
        # only stage 3's walks reach: the uniforms drawn past the failing move
        # are given back
        problem = Problem(
            dimension=2,
            objectives=((_nan_at_origin, "min"), (_toward_corner, "min")),
            constraints=(),
            lower_bounds=(-5, -5),
            upper_bounds=(5, 5),
            name="nan-at-origin",
        )
        config = HybridConfig(de=DEConfig(population_size=10, max_iterations=10),
                              ts_iterations=200, alternations=2)
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        with pytest.raises(ValueError, match="non-finite at \\(0, 0\\)"):
            solve(problem, config, rng)
        problem_k, anchors = compute_anchors(problem, config, reference.random)
        with pytest.raises(ValueError, match="non-finite at \\(0, 0\\)"):
            stage3_alternate(problem_k, problem.n_objectives, anchors, config, reference.random)
        assert rng.bit_generator.state == reference.bit_generator.state

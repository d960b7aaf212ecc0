"""Integer refinement: stochastic rounding plus short-term-memory tabu search.

Real-valued solutions are rounded component-wise (up with probability equal
to the fractional part, so the rounding is unbiased), then refined by a tabu
search over +/-1 lattice moves. The tabu memory stores, per variable, the
iteration of its last update; a move is admissible when its variable's
tenure has expired (tenure is redrawn uniformly in [1, n] per scan) or when
the move beats the best solution found so far (aspiration). When every
variable's memory is stale the search diversifies by re-sampling one random
coordinate anywhere in its range.

Solution comparisons use the same feasibility rules as the evolution engine.

The walk runs on flat lattice indices. A point x of the box [l, u] has the
row-major mixed-radix index sum_j (x_j - l_j) * stride_j, where stride_j is
the product of the radices u_i - l_i + 1 of the variables after j. A +/-1
move along variable j is then i -/+ stride_j, and index order is the
lexicographic order of the points.

Random draws: a move takes one uniform per variable when it scans and two
when it kicks. :func:`tabu_search` draws them in blocks of ``SEGMENT`` moves'
worth, ``SEGMENT * max(n, 2)`` uniforms with one ``rng.random(m)`` call, and
hands them to the moves in order. At the end of a segment that used fewer
than it drew, it restores the generator state saved before the block and
draws the used count again. ``Generator.random(m)`` yields the same doubles
as m scalar ``rng.random()`` calls, so the walk and the generator's final
state are those of one scalar call per draw.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .problems import Evaluation, Problem, deb_key, evaluate

__all__ = ["TabuState", "CachedEvaluator", "stochastic_round", "tabu_move", "tabu_search"]

# moves per block of random draws
SEGMENT = 256


@dataclass
class TabuState:
    """Last-update iteration per variable."""

    t: list[int]

    @classmethod
    def fresh(cls, n: int) -> "TabuState":
        return cls(t=[-n] * n)


class CachedEvaluator:
    """Memoizes evaluations (and scalar fitness keys) of the lattice points of
    a problem's box.

    Both caches are dicts keyed by the flat index of a point (see the module
    docstring); a miss evaluates the decoded point with :func:`evaluate`. The
    benchmark lattices are tiny compared to the tabu move budget, so the
    search revisits points constantly; caching makes each neighbour an
    integer addition and a dictionary lookup.
    """

    def __init__(self, problem: Problem, objective=None):
        self.problem = problem
        self.objective = objective
        self.radix = tuple(u - lo + 1 for lo, u in zip(problem.lower_bounds, problem.upper_bounds))
        strides = [1] * problem.dimension
        for j in range(problem.dimension - 2, -1, -1):
            strides[j] = strides[j + 1] * self.radix[j + 1]
        self.strides = tuple(strides)
        # (variable, stride, radix) per variable, the scan's loop
        self.axes = tuple(zip(range(problem.dimension), self.strides, self.radix))
        self._evals: dict[int, Evaluation] = {}
        self._keys: dict[int, tuple] = {}

    def index(self, x) -> int:
        """Flat index of the lattice point ``x``; a point outside the box
        would alias another point's index, so it raises ``ValueError``."""
        problem = self.problem
        if len(x) != problem.dimension or not problem.in_bounds(x):
            raise ValueError(f"point {tuple(x)} lies outside the box of {problem.name!r}")
        i = 0
        for v, lo, r in zip(x, problem.lower_bounds, self.radix):
            i = i * r + (v - lo)
        return i

    def point(self, i: int) -> tuple[int, ...]:
        """The lattice point of flat index ``i``."""
        return tuple([lo + i // s % r
                      for lo, s, r in zip(self.problem.lower_bounds, self.strides, self.radix)])

    def evaluation(self, x) -> Evaluation:
        return self.evaluation_at(self.index(x))

    def key(self, x):
        """Feasibility-rule comparison key of ``x`` under the bound objective."""
        return self.key_at(self.index(x))

    def evaluation_at(self, i: int) -> Evaluation:
        ev = self._evals.get(i)
        if ev is None:
            ev = self._evals[i] = evaluate(self.problem, self.point(i))
        return ev

    def key_at(self, i: int):
        k = self._keys.get(i)
        if k is None:
            ev = self.evaluation_at(i)
            k = self._keys[i] = deb_key(self.objective.fitness(ev), ev.violation)
        return k


def stochastic_round(x, rng: np.random.Generator) -> tuple[int, ...]:
    """Round each component up with probability equal to its fractional part."""
    out = []
    for v in x:
        base = int(np.floor(v))
        frac = v - base
        out.append(base + 1 if rng.random() < frac else base)
    return tuple(out)


def tabu_move(
    i: int,
    star: int,
    k: int,
    state: TabuState,
    evaluator: CachedEvaluator,
    draw: Callable[[], float],
    literal_diversification: bool = True,
) -> int:
    """One move from flat index ``i``, given the best index ``star`` so far:
    either a random-coordinate diversification kick (when every variable's
    memory is older than n iterations) or a breadth-first scan of the +/-1
    neighbors, keeping the best admissible one.

    ``draw()`` returns the next uniform in [0, 1): two per kick, then one per
    variable per scan (``rng.random`` itself will do). If no neighbor
    qualifies, ``i`` is returned unchanged and no tenure is stamped.
    """
    t = state.t
    n = len(t)

    if literal_diversification and k - max(t) > n:
        c = int(draw() * n)
        s, r = evaluator.strides[c], evaluator.radix[c]
        t[c] = k
        return i + (int(draw() * r) - i // s % r) * s

    keys = evaluator._keys
    best = i
    best_key = keys.get(i) or evaluator.key_at(i)
    star_key = keys.get(star) or evaluator.key_at(star)
    winner = -1
    for j, s, r in evaluator.axes:
        tenure = 1 + int(draw() * n)
        c = i // s % r
        if c > 0:
            cand = i - s
            cand_key = keys.get(cand) or evaluator.key_at(cand)
            if cand_key < best_key and (k - t[j] > tenure or cand_key < star_key):
                best, best_key, winner = cand, cand_key, j
        if c < r - 1:
            cand = i + s
            cand_key = keys.get(cand) or evaluator.key_at(cand)
            if cand_key < best_key and (k - t[j] > tenure or cand_key < star_key):
                best, best_key, winner = cand, cand_key, j
    if winner >= 0:
        t[winner] = k
    return best


def tabu_search(
    x0,
    iterations: int,
    objective,
    rng: np.random.Generator,
    problem: Problem | None = None,
    evaluator: CachedEvaluator | None = None,
    literal_diversification: bool = True,
    visited: set | None = None,
) -> tuple[int, ...]:
    """Refine ``x0`` for the given number of moves; returns the best point found.

    Either ``problem`` or a pre-built ``evaluator`` (which carries the problem
    and may be shared across searches) must be supplied. When ``visited`` is
    given, every lattice point the walk lands on is added to it, so callers
    can harvest candidate solutions beyond the single best. A start outside
    the box raises ``ValueError``.
    """
    if evaluator is None:
        if problem is None:
            raise ValueError("tabu_search needs a problem or an evaluator")
        evaluator = CachedEvaluator(problem, objective)
    elif evaluator.objective is None:
        evaluator.objective = objective
    elif evaluator.objective is not objective:
        raise ValueError("shared evaluator is bound to a different objective")
    n = evaluator.problem.dimension
    i = star = evaluator.index(tuple(int(v) for v in x0))
    trail = {i}
    if iterations:  # the walk evaluates its start only once it moves
        star_key = evaluator.key_at(star)
    state = TabuState.fresh(n)
    keys = evaluator._keys
    for first in range(1, iterations + 1, SEGMENT):
        end = min(first + SEGMENT, iterations + 1)
        saved = rng.bit_generator.state
        block = rng.random((end - first) * max(n, 2)).tolist()
        draws = iter(block)
        draw = draws.__next__
        for k in range(first, end):
            i = tabu_move(i, star, k, state, evaluator, draw, literal_diversification)
            trail.add(i)
            key = keys.get(i) or evaluator.key_at(i)
            if key < star_key:
                star, star_key = i, key
        # a list iterator's length hint is the exact count left
        used = len(block) - operator.length_hint(draws)
        if used < len(block):
            rng.bit_generator.state = saved
            rng.random(used)
    if visited is not None:
        visited.update(map(evaluator.point, trail))
    return evaluator.point(star)

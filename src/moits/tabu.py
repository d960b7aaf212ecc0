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

Keys: each lattice point's feasibility-rule key is computed the first time
the walk looks at it, constraints first. Deb's rules rank two infeasible
points by their violation G alone, so an infeasible point is keyed
``(1, G)`` without calling an objective; only a feasible point is evaluated
in full and given its fitness. :class:`CachedEvaluator` stores the keys in
the dict ``keys``, the record of every point looked at, which reads a
missing index as ``None``, so the walk reads a key as ``keys[i] or key(i)``.
Its ``evals`` dict holds the full evaluation of every feasible point the
walks have looked at (and of any point asked for through ``evaluation``),
which is where a caller harvests candidate solutions beyond each search's
best.

The kernel: one :func:`tabu_move` call runs a whole search and keeps the
aspiration level current inside the call: a landing whose key beats the level
becomes the new level. That level is the search's best point, the first
landing with the least key, which is what a strict ``<`` update after every
move picks. A search reports it as a flat index, so a caller reads its cached
evaluation and decodes only the points it keeps.

Random draws: rounding and the walk take a ``draw`` callable returning one
uniform in [0, 1), the solve's one stream (see :mod:`moits.de`) or
``rng.random``. Rounding takes one uniform per component; a move takes one
per variable when it scans and two when it kicks.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable

from .problems import Evaluation, Problem, _max_violation, deb_key, evaluate

__all__ = ["CachedEvaluator", "stochastic_round", "tabu_move", "tabu_search"]


class CachedEvaluator:
    """Memoizes the scalar fitness keys (and the evaluations of feasible
    points) of the lattice points of a problem's box.

    Both caches are dicts keyed by the flat index of a point (see the module
    docstring). A key miss computes the decoded point's violation G first:
    an infeasible point gets the key ``(1, G)`` and no objective call, a
    feasible one is evaluated with :func:`evaluate`. ``keys`` reads a miss as
    ``None`` and holds exactly the points looked at, whatever the size of the
    box; ``evals`` holds the full evaluations of the feasible ones among
    them, plus any point asked for through :meth:`evaluation`. The benchmark
    lattices are tiny compared to the tabu move budget, so the search
    revisits points constantly; caching makes each neighbour an integer
    addition and a dict lookup.
    """

    def __init__(self, problem: Problem, objective):
        self.problem = problem
        self.objective = objective
        self.radix = tuple(u - lo + 1 for lo, u in zip(problem.lower_bounds, problem.upper_bounds))
        strides = [1] * problem.dimension
        for j in range(problem.dimension - 2, -1, -1):
            strides[j] = strides[j + 1] * self.radix[j + 1]
        self.strides = tuple(strides)
        # (variable, stride, radix) per variable, the scan's loop
        self.axes = tuple(zip(range(problem.dimension), self.strides, self.radix))
        self.evals: dict[int, Evaluation] = {}
        # a missing index reads as a None slot that key then fills;
        # NoneType as the factory is a C call, a Python __missing__ is not
        self.keys = defaultdict(type(None))

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

    def evaluation(self, i: int) -> Evaluation:
        """The full evaluation of the lattice point of flat index ``i``,
        feasible or not."""
        ev = self.evals.get(i)
        if ev is None:
            ev = self.evals[i] = evaluate(self.problem, self.point(i))
        return ev

    def key(self, i: int):
        """Feasibility-rule comparison key of flat index ``i`` under the bound
        objective."""
        k = self.keys[i]
        if k is None:
            ev = self.evals.get(i)
            if ev is None:
                x = self.point(i)
                violation = _max_violation(self.problem, x)
                if violation > 0.0:  # deb_key's infeasible key; it reads no fitness
                    k = self.keys[i] = (1, violation)
                    return k
                ev = self.evals[i] = evaluate(self.problem, x)
            k = self.keys[i] = deb_key(self.objective(ev.objectives_min), ev.violation)
        return k


def stochastic_round(x, draw: Callable[[], float]) -> tuple[int, ...]:
    """Round each component up with probability equal to its fractional part."""
    out = []
    for v in x:
        base = math.floor(v)
        frac = v - base
        out.append(base + 1 if draw() < frac else base)
    return tuple(out)


def tabu_move(
    i: int,
    star: int,
    k: int,
    t: list[int],
    evaluator: CachedEvaluator,
    draw: Callable[[], float],
    moves: int = 1,
) -> tuple[int, int]:
    """Run ``moves`` moves, numbered ``k, k + 1, ...``, from flat index ``i``,
    given the best index ``star`` so far; returns the last landed index and
    the best index after the moves.

    A move is either a random-coordinate diversification kick (when every
    variable's memory is older than n iterations) or a breadth-first scan of
    the +/-1 neighbors, keeping the best admissible one; if no neighbor
    qualifies, the walk stays where it is and no tenure is stamped.

    Each landing's key is read after its move, and a landing that beats the
    aspiration level (first ``star``'s key) becomes the new best index, as if
    it were passed as ``star`` to the next move. ``draw()`` returns the
    next uniform in [0, 1): two per kick, then one per variable per scan
    (``rng.random`` itself will do).

    ``t`` is the tabu memory, one entry per variable: the number of the last
    move along that variable (a scan's winning variable or a kick's
    coordinate), or ``-n`` for a variable not yet moved, so that a fresh
    memory is stale at move 1. The call updates it in place. Every entry must
    be at most ``k``, as it is along a walk.
    """
    n = len(t)
    keys, key = evaluator.keys, evaluator.key
    strides, radix, axes = evaluator.strides, evaluator.radix, evaluator.axes
    star_key = keys[star] or key(star)
    last = max(t)  # stamps only grow, so the newest stamp is the largest
    for k in range(k, k + moves):
        if k - last > n:
            c = int(draw() * n)
            s, r = strides[c], radix[c]
            t[c] = last = k
            i += (int(draw() * r) - i // s % r) * s
        else:
            best = i
            best_key = keys[i] or key(i)
            winner = -1
            for j, s, r in axes:
                tenure = 1 + int(draw() * n)
                c = i // s % r
                if c > 0:
                    cand = i - s
                    cand_key = keys[cand] or key(cand)
                    if cand_key < best_key and (k - t[j] > tenure or cand_key < star_key):
                        best, best_key, winner = cand, cand_key, j
                if c < r - 1:
                    cand = i + s
                    cand_key = keys[cand] or key(cand)
                    if cand_key < best_key and (k - t[j] > tenure or cand_key < star_key):
                        best, best_key, winner = cand, cand_key, j
            if winner >= 0:
                t[winner] = last = k
            i = best
        landed_key = keys[i] or key(i)
        if landed_key < star_key:
            star, star_key = i, landed_key
    return i, star


def tabu_search(
    x0,
    iterations: int,
    evaluator: CachedEvaluator,
    draw: Callable[[], float],
) -> int:
    """Refine ``x0`` for the given number of moves under ``evaluator``, which
    carries the problem and the objective and may be shared across searches;
    returns the flat index of the best point found (``evaluator.point``
    decodes an index).

    Every point the walk looks at is left in ``evaluator.keys``, and the
    feasible ones with their evaluations in ``evaluator.evals``. A start
    outside the box raises ``ValueError``.
    """
    i = evaluator.index(tuple(int(v) for v in x0))
    if iterations <= 0:  # tabu_move would read the start's key even for no moves
        return i
    n = evaluator.problem.dimension
    return tabu_move(i, i, 1, [-n] * n, evaluator, draw, iterations)[1]

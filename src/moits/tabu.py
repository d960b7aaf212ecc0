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
the dict ``keys``, the record of every point looked at, which keys a missing
index on the read, so the walk reads a key as ``keys[i]``. Its ``evals``
dict holds the full evaluation of exactly the feasible points the walks have
looked at, which is where a caller harvests candidate solutions beyond each
search's best.

The kernel: one :func:`tabu_move` call runs a whole search and keeps the
aspiration level current inside the call: a landing whose key beats the level
becomes the new level. That level is the search's best point, the first
landing with the least key, which is what a strict ``<`` update after every
move picks. A search reports it as a flat index, so a caller reads its cached
evaluation and decodes only the points it keeps.

Most scans of a long walk stall: no neighbour is admissible, and the walk
stands where it is. Only a neighbour that beats the point can win, and keys
never change, so the first scan at a point records those neighbours; one loop
over them picks the winner of every scan there, and a repeat scan draws its
tenures and looks up no key. A point that no neighbour beats stalls at every
scan until the kick, so the walk skips to it (or to the end of the move
budget), drawing the skipped scans' uniforms. The walk, its draws and its key
store are those of a walk that scans every neighbour at every move.

Random draws: rounding and the walk take a ``draw`` callable returning one
uniform in [0, 1), the solve's one stream (see :mod:`moits.de`) or
``rng.random``. Rounding takes one uniform per component; a move takes one
per variable when it scans and two when it kicks.
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from collections.abc import Callable

from .problems import Evaluation, Problem, _max_violation, deb_key, evaluate

__all__ = ["CachedEvaluator", "stochastic_round", "tabu_move", "tabu_search"]


class _KeyStore(dict):
    """Keys by flat index; a miss calls the evaluator's ``key``, which stores the key."""

    def __init__(self, evaluator):
        self.evaluator = weakref.proxy(evaluator)  # weak: no cycle keeps a dropped evaluator alive

    def __missing__(self, i):
        return self.evaluator.key(i)


class CachedEvaluator:
    """Memoizes the scalar fitness keys (and the evaluations of feasible
    points) of the lattice points of a problem's box.

    Both caches are dicts keyed by the flat index of a point (see the module
    docstring). Reading ``keys[i]`` for an index not yet keyed calls
    :meth:`key`, which computes the decoded point's violation G first: an
    infeasible point gets the key ``(1, G)`` and no objective call, a
    feasible one is evaluated with :func:`evaluate` on the problem without
    its constraints, so each constraint is called once per keyed point and
    the evaluation is the one ``evaluate`` gives. ``keys`` holds exactly the
    points looked at, whatever the size of the box; ``evals`` holds the full
    evaluations of exactly the feasible ones among them. A neighbour whose
    key is stored costs the walk an integer addition and a dict lookup.
    """

    def __init__(self, problem: Problem, objective):
        self.problem = problem
        self.objective = objective
        # G is 0 at a feasible point, so its evaluation is that of the problem
        # without constraints, which does not call them a second time
        self._feasible = dataclasses.replace(problem, constraints=())
        self.radix = tuple(u - lo + 1 for lo, u in zip(problem.lower_bounds, problem.upper_bounds))
        strides = [1] * problem.dimension
        for j in range(problem.dimension - 2, -1, -1):
            strides[j] = strides[j + 1] * self.radix[j + 1]
        self.strides = tuple(strides)
        # (variable, stride, radix) per variable, the scan's loop
        self.axes = tuple(zip(range(problem.dimension), self.strides, self.radix))
        self.evals: dict[int, Evaluation] = {}
        self.keys = _KeyStore(self)

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

    def key(self, i: int):
        """Compute, store in ``keys`` and return the feasibility-rule key of flat
        index ``i`` under the bound objective, and a feasible point's evaluation
        in ``evals``; nothing is stored if it raises. ``keys[i]`` calls it on a miss."""
        x = self.point(i)
        violation = _max_violation(self.problem, x)
        if violation > 0.0:  # deb_key's infeasible key; it reads no fitness
            k = self.keys[i] = (1, violation)
            return k
        ev = evaluate(self._feasible, x)
        k = self.keys[i] = deb_key(self.objective(ev.objectives_min), ev.violation)
        self.evals[i] = ev
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
    qualifies, the scan stalls: the walk stays where it is and no tenure is
    stamped. The first scan at a point looks up every neighbor's key and
    records the neighbors that beat the point; one loop over them picks the
    winner of that scan and of each repeat scan after a stall. When there are
    none, every scan up to the kick stalls, and the call skips them (up to
    the end of its moves), drawing their uniforms and looking up no key.

    A point's key is read at its first scan (the last landing's after the
    moves), and a point that beats the aspiration level (first ``star``'s
    key) becomes the new best index, as if it were passed as ``star`` to the
    next move. ``draw()`` returns the next uniform in [0, 1): two per kick,
    then one per variable per scan (``rng.random`` itself will do).

    ``t`` is the tabu memory, one entry per variable: the number of the last
    move along that variable (a scan's winning variable or a kick's
    coordinate), or ``-n`` for a variable not yet moved, so that a fresh
    memory is stale at move 1. The call updates it in place. Every entry must
    be at most ``k``, as it is along a walk.
    """
    n = len(t)
    keys = evaluator.keys
    strides, radix, axes = evaluator.strides, evaluator.radix, evaluator.axes
    star_key = keys[star]
    last = max(t)  # stamps only grow, so the newest stamp is the largest
    end = k + moves
    better = None  # (variable, neighbour, key) of each neighbour that beats i
    while k < end:
        if k - last > n:
            c = int(draw() * n)
            s, r = strides[c], radix[c]
            t[c] = last = k
            i += (int(draw() * r) - i // s % r) * s
            better = None
        else:
            if better is None:  # the first scan at i looks up every neighbour
                i_key = keys[i]
                if i_key < star_key:  # i is the call's start or a landing
                    star, star_key = i, i_key
                u, better = [], []
                for j, s, r in axes:
                    u.append(draw())
                    c = i // s % r
                    if c > 0:
                        cand = i - s
                        cand_key = keys[cand]
                        if cand_key < i_key:
                            better.append((j, cand, cand_key))
                    if c < r - 1:
                        cand = i + s
                        cand_key = keys[cand]
                        if cand_key < i_key:
                            better.append((j, cand, cand_key))
                if not better:  # no neighbour beats i: every scan stalls until the kick
                    skipped = min(last + n, end - 1) - k  # the scans before the kick or the end
                    for _ in range(skipped * n):
                        draw()
                    k += skipped
            else:  # a repeat scan at i draws its tenures and tests the same neighbours
                u = [draw() for _ in axes]
            best_key, winner = i_key, -1
            for j, cand, cand_key in better:
                tenure = 1 + int(u[j] * n)
                if cand_key < best_key and (k - t[j] > tenure or cand_key < star_key):
                    best, best_key, winner = cand, cand_key, j
            if winner >= 0:
                t[winner] = last = k
                i, better = best, None
        k += 1
    if better is None and keys[i] < star_key:  # the last move landed
        star = i
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

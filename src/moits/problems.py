"""Integer multi-objective problem model, dominance and brute-force oracles.

A :class:`Problem` bundles objective functions (each with a min/max sense),
inequality constraints ``g_j(x) <= 0`` and an integer box ``[l, u]``.
Evaluation converts every objective to minimization sense and aggregates
constraint violation into a single scalar ``G(x) = max(0, g_1, ..., g_m)``,
so that all downstream comparisons (dominance, Deb feasibility rules,
TOPSIS criteria) work on one uniform representation. ``_measure`` is the
one place a point is evaluated: it returns the objective tuple and G as a
plain pair, :func:`evaluate` wraps that pair in an :class:`Evaluation`, and a
DE run measures its trials with it directly, so a trial that loses builds no
record. ``_max_violation`` is the one place G is computed: ``_measure`` calls
it, and so does the tabu search's key of a lattice point, which reads no
objective of an infeasible point. An objective slot holding
:data:`VIOLATION` reads G, and a problem has at most one such slot.

A :class:`Problem` builds its evaluation plan once, when it is created (and
again in every ``dataclasses.replace``): a ``(index, fn, negate)`` triple per
real objective, the index of the :data:`VIOLATION` slot (-1 if none) and the
enumerated constraints. ``_measure`` reads the plan instead of testing
each slot and sense on every call. The plan is not a dataclass field, so
equality, hashing and ``repr`` see only the fields.
"""

from __future__ import annotations

import enum
import itertools
import numbers
from dataclasses import dataclass
from math import isfinite
from typing import Callable, Sequence

__all__ = [
    "VIOLATION",
    "Problem",
    "Evaluation",
    "evaluate",
    "dominates",
    "pareto_filter",
    "brute_force_pareto",
    "feasible_lattice",
    "deb_key",
]

ObjectiveFn = Callable[[Sequence[float]], float]

BRUTE_FORCE_LIMIT = 10_000_000


class _Marker(enum.Enum):  # an enum member pickles as itself
    VIOLATION = "G(x)"


# in place of an objective function, marks the slot that evaluate fills with G(x)
VIOLATION = _Marker.VIOLATION


@dataclass(frozen=True)
class Problem:
    """An integer-box multi-objective problem with inequality constraints."""

    dimension: int
    objectives: tuple[tuple[ObjectiveFn, str], ...]
    constraints: tuple[ObjectiveFn, ...]
    lower_bounds: tuple[int, ...]
    upper_bounds: tuple[int, ...]
    name: str = "problem"

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.objectives) < 1:
            raise ValueError("at least one objective is required")
        for _, sense in self.objectives:
            if sense not in ("min", "max"):
                raise ValueError(f"unknown objective sense {sense!r}")
        if len(self.lower_bounds) != self.dimension or len(self.upper_bounds) != self.dimension:
            raise ValueError("bounds length must equal dimension")
        for j, (lo, up) in enumerate(zip(self.lower_bounds, self.upper_bounds)):
            for side, bound in (("lower", lo), ("upper", up)):
                if not isinstance(bound, numbers.Integral):
                    raise ValueError(f"{side} bound {bound!r} of variable {j} is not an integer")
            if lo > up:
                raise ValueError(f"lower bound {lo} exceeds upper bound {up}")
        slots = [i for i, (fn, _) in enumerate(self.objectives) if fn is VIOLATION]
        if len(slots) > 1:
            raise ValueError(f"objectives {slots} all hold VIOLATION; at most one slot may")
        plan = (
            tuple((i, fn, sense == "max")
                  for i, (fn, sense) in enumerate(self.objectives) if fn is not VIOLATION),
            slots[0] if slots else -1,
            tuple(enumerate(self.constraints)),
        )
        object.__setattr__(self, "_plan", plan)

    @property
    def n_objectives(self) -> int:
        return len(self.objectives)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def in_bounds(self, x) -> bool:
        return all(lo <= v <= up for v, lo, up in zip(x, self.lower_bounds, self.upper_bounds))

    def lattice_size(self) -> int:
        size = 1
        for lo, up in zip(self.lower_bounds, self.upper_bounds):
            size *= up - lo + 1
        return size


@dataclass(frozen=True, slots=True)
class Evaluation:
    """Objective vector in minimization sense plus scalar max constraint violation."""

    objectives_min: tuple[float, ...]
    violation: float

    @property
    def feasible(self) -> bool:
        return self.violation == 0.0


def evaluate(problem: Problem, x) -> Evaluation:
    """Evaluate ``x`` (real-valued points allowed), negating max-sense objectives.

    Raises on dimension mismatch and on non-finite function values, naming
    the offending objective or constraint. A :data:`VIOLATION` slot gets G(x).
    """
    return Evaluation(*_measure(problem, x))


def _measure(problem: Problem, x) -> tuple[tuple[float, ...], float]:
    """The fields of ``evaluate(problem, x)``, the minimization-sense objective
    tuple and G(x), as a plain pair; it raises as :func:`evaluate` does."""
    if len(x) != problem.dimension:
        raise ValueError(
            f"point of length {len(x)} for problem of dimension {problem.dimension}"
        )
    objectives, slot, _ = problem._plan
    objs = []
    for i, fn, negate in objectives:
        val = float(fn(x))
        if not isfinite(val):
            raise ValueError(f"objective {i} of {problem.name!r} is non-finite at {tuple(x)}")
        objs.append(-val if negate else val)
    violation = _max_violation(problem, x)
    if slot >= 0:
        objs.insert(slot, violation)
    return tuple(objs), violation


def _max_violation(problem: Problem, x) -> float:
    """G(x) = max(0, g_1(x), ..., g_m(x)); a non-finite g_j raises ``ValueError``."""
    violation = 0.0
    for j, g in problem._plan[2]:
        gval = float(g(x))
        if not isfinite(gval):
            raise ValueError(f"constraint {j} of {problem.name!r} is non-finite at {tuple(x)}")
        if gval > violation:
            violation = gval
    return violation


def dominates(a: Evaluation, b: Evaluation) -> bool:
    """Pareto dominance on minimization-sense objectives (violation is ignored)."""
    fa, fb = a.objectives_min, b.objectives_min
    if len(fa) != len(fb):
        raise ValueError("evaluations have different objective counts")
    return all(x <= y for x, y in zip(fa, fb)) and any(x < y for x, y in zip(fa, fb))


def pareto_filter(points):
    """Keep the feasible, mutually non-dominated points.

    ``points`` is an iterable of ``(vector, Evaluation)`` pairs; duplicate
    vectors collapse to the first occurrence. Infeasible points (``G > 0``)
    are discarded before dominance testing. The survivors come back in the order
    of their first occurrence. Objective values must not be NaN, which
    :func:`evaluate` guarantees.

    A point's dominators precede it in lexicographic order of the objective
    vectors, and a dominated point's dominator is itself kept or dominated by
    a kept point, so one sorted pass tests each point against the kept front
    only.
    """
    seen = {}
    for vec, ev in points:
        key = tuple(vec)
        if ev.violation == 0.0 and key not in seen:
            seen[key] = ev
    front, kept = [], set()
    for key, ev in sorted(seen.items(), key=lambda item: item[1].objectives_min):
        if not any(dominates(other, ev) for other in front):
            front.append(ev)
            kept.add(key)
    return [(key, ev) for key, ev in seen.items() if key in kept]


def feasible_lattice(problem: Problem):
    """Enumerate every feasible integer point in the box, with its evaluation."""
    size = problem.lattice_size()
    if size > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"lattice of {problem.name!r} has {size} points, "
            f"exceeding the enumeration limit of {BRUTE_FORCE_LIMIT}"
        )
    ranges = [range(lo, up + 1) for lo, up in zip(problem.lower_bounds, problem.upper_bounds)]
    out = []
    for point in itertools.product(*ranges):
        ev = evaluate(problem, point)
        if ev.violation == 0.0:
            out.append((point, ev))
    return out


def brute_force_pareto(problem: Problem):
    """Exact Pareto set of the integer lattice, sorted lexicographically.

    Serves as the independent oracle for the stochastic solvers; refuses
    boxes with more than ``BRUTE_FORCE_LIMIT`` points.
    """
    front = pareto_filter(feasible_lattice(problem))
    front.sort(key=lambda item: item[0])
    return front


def deb_key(fitness: float, violation: float):
    """Total-order key realizing the feasibility rules: feasible first, then
    fitness among feasibles, violation among infeasibles."""
    if violation > 0.0:
        return (1, violation)
    return (0, fitness)

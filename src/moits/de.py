"""Differential evolution over a box, with three mutation variants.

Variants: ``rand1`` (three random donors), ``best`` (difference toward the
population best) and ``degl`` (linear combination of a ring-neighborhood
local donor and a global donor). Selection follows the feasibility rules
(feasible beats infeasible, fitness among feasibles, violation among
infeasibles); the global and neighborhood best individuals are chosen by
ranking the (fitness, violation) pairs with all-cost TOPSIS, the ring
neighborhoods of a generation in one batched election.

:func:`run` is built from the public primitives: one ``mutate_*`` call,
:func:`crossover` and :func:`clamp` per member and generation. The bests
are elected at the start of a generation and passed in, so replacements made
during the generation do not move them. They are re-elected only after a
generation that replaced a member: otherwise the (fitness, violation) pairs
are unchanged and the election would return the same indices. An election
builds one (fitness, violation) array, and the global and ring elections
both index it. Each slot keeps its ``deb_key``, so a trial computes one key.

A run keeps parallel per-slot lists: the point, its objective tuple, fitness,
violation and key. It measures a trial as a plain (objectives, G) pair with
``problems._measure``, which :func:`~moits.problems.evaluate` wraps, and builds
each member's :class:`~moits.problems.Evaluation` once, when it returns: on
the benchmarks only 25-31% of the evaluated trials replace their member, so a
record per trial would mostly be thrown away.

A trial equal to its target is skipped: no evaluation, fitness or key. It
would get the target's key, and only a strictly smaller key replaces a member,
so it cannot win; it has already drawn every uniform of its step. Such trials
come from a population collapsed onto a box corner, which :func:`clamp`
reproduces exactly. The skip is exact under two assumptions. Objectives and
constraints are pure functions of the point, as the tabu cache also assumes,
and a population passed in as ``initial`` was evaluated on the same problem.
And ``==`` treats 0.0 and -0.0 as equal, which is exact because no
coordinate holds -0.0: the bounds are integers, so ``lo + u * width`` is not
-0.0, and each donor coordinate is a sum that starts from a coordinate (in
DEGL, from ``r > 0`` times such a sum, short of an underflow), which IEEE
addition makes -0.0 only if every term is -0.0.

A member's coordinates ``Individual.x`` are a tuple of Python floats, and
the primitives take float sequences and return new float lists: for the
handful of variables of a member, numpy's per-call overhead costs more than
the arithmetic. Each formula keeps numpy's operation order, and
:func:`clamp` resolves ties as ``np.clip`` does, so the floats are the ones
numpy computed; :func:`mutate_degl` builds ``r * global + (1 - r) * local``
in one pass over the coordinates. The TOPSIS elections run in numpy.

Random draws: :func:`init_population`, :func:`run` and the primitives take a
``draw`` callable returning one uniform in [0, 1); ``rng.random`` gives one
scalar draw per call. A solve opens one :func:`block_draws` stream and passes
its ``draw`` to every stage: uniforms come in blocks of ``BLOCK`` from one
``rng.random(BLOCK)`` call each, and its ``settle`` rewinds the generator to
just after the last uniform used, so results and the generator's final state
are those of one scalar ``rng.random()`` per draw.

A fitness is any function of an evaluation's minimization-sense objective
vector to the scalar the engine minimizes, so one engine serves every stage
of the compromise pipeline.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .problems import Evaluation, Problem, _measure, deb_key, evaluate
from .topsis import cost_closeness

__all__ = [
    "DEConfig",
    "Individual",
    "single_objective",
    "init_population",
    "mutate_rand1",
    "mutate_best",
    "mutate_degl",
    "weight_r",
    "crossover",
    "clamp",
    "block_draws",
    "choose_best",
    "run",
]

VARIANTS = ("rand1", "best", "degl")

# uniforms per block of draws (see block_draws)
BLOCK = 1024


@dataclass(frozen=True)
class DEConfig:
    population_size: int = 40
    max_iterations: int = 100
    crossover_rate: float = 0.9
    scale_factor: float = 0.8
    alpha: float = 0.8
    beta: float = 0.8
    neighborhood_k: int = 2
    variant: str = "rand1"

    def __post_init__(self):
        if self.population_size < 4:
            raise ValueError("population size must be >= 4")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover rate must lie in [0, 1]")
        if self.neighborhood_k < 1 or 2 * self.neighborhood_k + 1 > self.population_size:
            raise ValueError("neighborhood must satisfy 2k + 1 <= population size")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        for name in ("scale_factor", "alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.4 <= self.scale_factor <= 1.0:
            warnings.warn(
                f"scale factor {self.scale_factor} outside the recommended range [0.4, 1]",
                stacklevel=2,
            )


@dataclass(frozen=True)
class Individual:
    x: tuple[float, ...]
    eval: Evaluation


def single_objective(index: int, n_objectives: int, negate: bool = False):
    """Fitness = one objective component; ``negate`` turns a minimization of
    that component into a maximization."""
    if not 0 <= index < n_objectives:
        raise IndexError(f"objective index {index} out of range for {n_objectives} objectives")
    if negate:
        return lambda f: -f[index]
    return lambda f: f[index]


def init_population(problem: Problem, config: DEConfig, draw):
    """Uniform sample of the box: x_ij = l_j + U(0,1) * (u_j - l_j), drawn
    member by member, the floats of ``lo + rng.random((P, d)) * (up - lo)``."""
    box = [(float(lo), float(up) - float(lo))
           for lo, up in zip(problem.lower_bounds, problem.upper_bounds)]
    xs = [[lo + draw() * width for lo, width in box] for _ in range(config.population_size)]
    return [Individual(tuple(x), evaluate(problem, x)) for x in xs]


def _draw_distinct(draw, pool: Sequence[int], exclude, count: int):
    """Rejection-sample ``count`` >= 1 distinct indices from ``pool``, avoiding
    ``exclude``."""
    out = []
    size = len(pool)
    while True:
        candidate = pool[int(draw() * size)]
        if candidate not in exclude and candidate not in out:
            out.append(candidate)
            if len(out) == count:
                return out


def mutate_rand1(xs, i: int, F: float, draw) -> list[float]:
    r1, r2, r3 = _draw_distinct(draw, range(len(xs)), (i,), 3)
    return [a + F * (b - c) for a, b, c in zip(xs[r1], xs[r2], xs[r3])]


def mutate_best(xs, i, F, gbest_index, draw) -> list[float]:
    """Best-guided mutation ``x_r1 + F * (x_r2 - x_best)``: the best individual
    sits inside the difference term, with r1 and r2 distinct and not ``i``."""
    r1, r2 = _draw_distinct(draw, range(len(xs)), (i,), 2)
    return [a + F * (b - c) for a, b, c in zip(xs[r1], xs[r2], xs[gbest_index])]


def _neighborhood(i: int, k: int, size: int):
    return [(i + off) % size for off in range(-k, k + 1)]


def mutate_degl(xs, i, alpha, beta, r, neigh, local_best, gbest_index, draw):
    """``r * global + (1 - r) * local``: the local donor pulls member ``i``
    toward the best ``local_best`` of its ring neighborhood ``neigh``, with a
    difference of two neighbors; the global donor pulls it toward
    ``gbest_index``, with a difference of two members of the population. Each
    donor is ``xi + alpha*(toward - xi) + beta*(p - q)``, in numpy's operation
    order; the neighbors are drawn first."""
    p, q = _draw_distinct(draw, neigh, (i,), 2)
    p2, q2 = _draw_distinct(draw, range(len(xs)), (i,), 2)
    s = 1.0 - r
    return [
        r * (a + alpha * (g - a) + beta * (u2 - v2)) + s * (a + alpha * (t - a) + beta * (u - v))
        for a, t, u, v, g, u2, v2 in zip(
            xs[i], xs[local_best], xs[p], xs[q], xs[gbest_index], xs[p2], xs[q2]
        )
    ]


def weight_r(iteration: int, max_iterations: int) -> float:
    """Exploration-to-exploitation weight: grows linearly over the run."""
    return iteration / max_iterations


def crossover(target, donor, Cr: float, draw) -> list[float]:
    """Binomial recombination; one forced donor component per trial."""
    trial = [d if draw() <= Cr else t for t, d in zip(target, donor)]
    forced = int(draw() * len(target))
    trial[forced] = donor[forced]
    return trial


def clamp(trial, lo, up) -> list[float]:
    """Clip ``trial`` into the box [lo, up] as ``np.clip`` does: the larger of
    the value and ``lo`` (the value only if strictly larger), then the smaller
    of that and ``up`` (likewise), so signed zeros resolve the same way."""
    return [
        w if (w := v if v > lower else lower) < upper else upper
        for v, lower, upper in zip(trial, lo, up)
    ]


def block_draws(rng: np.random.Generator):
    """A ``draw`` callable handing out the uniforms of ``rng`` one at a time,
    from blocks of ``BLOCK`` drawn with one ``rng.random(BLOCK)`` call each
    when the previous block runs out, and a ``settle`` callable that rewinds
    ``rng`` to just after the last uniform handed out, where one scalar
    ``rng.random()`` per draw leaves it. Call ``settle`` in a ``finally``."""
    size = BLOCK
    last = [None, iter(())]  # the state before the latest block, its iterator

    def blocks():
        while True:
            last[:] = rng.bit_generator.state, iter(rng.random(size).tolist())
            yield last[1]

    def settle() -> None:
        left = operator.length_hint(last[1])
        if left:
            rng.bit_generator.state = last[0]
            rng.random(size - left)

    # chain's C loop steps through a block; Python runs only per refill
    return itertools.chain.from_iterable(blocks()).__next__, settle


def _elect(pairs: np.ndarray, idx: np.ndarray):
    """TOPSIS election over the rows of ``pairs``, the (fitness, violation)
    pair of each population member, indexed by ``idx``. A 1-D index set gives
    the population index of its best member; a 2-D array of rows gives one
    best index per row."""
    best = cost_closeness(pairs[idx]).argmax(axis=-1)
    return idx[best] if idx.ndim == 1 else idx[np.arange(len(idx)), best]


def choose_best(pop, indices, objective) -> int:
    """TOPSIS over the (fitness, violation) pairs of the given members, both
    criteria cost with uniform weights; returns the population index with the
    greatest closeness coefficient."""
    idx = np.fromiter(indices, dtype=np.intp)
    if not len(idx):
        raise ValueError("cannot choose the best of an empty index set")
    fit = [objective(ind.eval.objectives_min) for ind in pop]
    vio = [ind.eval.violation for ind in pop]
    return int(_elect(np.array((fit, vio)).T, idx))


def run(problem, config: DEConfig, objective, draw, initial=None):
    """Evolve for ``max_iterations`` generations and return the final population.

    Population slots are updated in place within a generation (later mutations
    see earlier replacements); the run is deterministic given the draws. A
    trial equal to its target is not evaluated, since it cannot replace it
    (module docstring): a run evaluates its fresh population and the trials
    that differ from their targets, with the same draws and results as if it
    evaluated every trial, for pure objectives and constraints. Slots hold
    objective tuples; each returned member's ``Evaluation`` is built on return
    and equals ``evaluate(problem, member.x)``.
    """
    pop = list(initial) if initial is not None else init_population(problem, config, draw)
    np_size = len(pop)
    xs = [list(ind.x) for ind in pop]  # lists, as trials are: a tuple never == a list
    objs = [ind.eval.objectives_min for ind in pop]
    vio = [ind.eval.violation for ind in pop]
    fit = [objective(o) for o in objs]
    keys = [deb_key(f, v) for f, v in zip(fit, vio)]
    lo = [float(v) for v in problem.lower_bounds]
    up = [float(v) for v in problem.upper_bounds]
    indices = np.arange(np_size)
    F, Cr, variant = config.scale_factor, config.crossover_rate, config.variant
    if variant == "degl":
        neigh_lists = [_neighborhood(i, config.neighborhood_k, np_size) for i in range(np_size)]
        neigh_rows = np.array(neigh_lists)
    stale = True  # no election yet, or a member replaced since the last one
    for iteration in range(1, config.max_iterations + 1):
        r = weight_r(iteration, config.max_iterations)
        # best indices are frozen at generation start (slot updates within
        # the generation do not re-elect them); unchanged pairs keep them
        if stale and variant != "rand1":
            pairs = np.array((fit, vio)).T
            gbest = int(_elect(pairs, indices))
            if variant == "degl":
                local_bests = _elect(pairs, neigh_rows).tolist()
            stale = False
        for i in range(np_size):
            if variant == "rand1":
                donor = mutate_rand1(xs, i, F, draw)
            elif variant == "best":
                donor = mutate_best(xs, i, F, gbest, draw)
            else:
                donor = mutate_degl(
                    xs, i, config.alpha, config.beta, r,
                    neigh_lists[i], local_bests[i], gbest, draw,
                )
            trial = clamp(crossover(xs[i], donor, Cr, draw), lo, up)
            if trial == xs[i]:  # its key would equal the target's: it cannot win
                continue
            o, v = _measure(problem, trial)
            f_trial = objective(o)
            key = deb_key(f_trial, v)
            if key < keys[i]:
                xs[i], objs[i], fit[i], vio[i] = trial, o, f_trial, v
                keys[i] = key
                stale = True
    return [Individual(tuple(x), Evaluation(o, v)) for x, o, v in zip(xs, objs, vio)]

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
are elected once at the start of each generation and passed in, so
replacements made during the generation do not move them.

The engine optimizes one scalarized fitness at a time; a
:class:`ScalarObjective` maps a cached evaluation to that scalar, which lets
the same engine serve every stage of the compromise pipeline.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .problems import Evaluation, Problem, deb_key, evaluate
from .topsis import cost_closeness

__all__ = [
    "DEConfig",
    "Individual",
    "ScalarObjective",
    "single_objective",
    "init_population",
    "mutate_rand1",
    "mutate_best",
    "local_global_donors",
    "mutate_degl",
    "weight_r",
    "crossover",
    "clamp",
    "choose_best",
    "run",
]

VARIANTS = ("rand1", "best", "degl")


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
    canonical_best: bool = False

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
        if not 0.4 <= self.scale_factor <= 1.0:
            warnings.warn(
                f"scale factor {self.scale_factor} outside the recommended range [0.4, 1]",
                stacklevel=2,
            )


@dataclass(frozen=True)
class Individual:
    x: np.ndarray
    eval: Evaluation


@dataclass(frozen=True)
class ScalarObjective:
    """Maps an evaluation's minimization-sense objective vector to the scalar
    fitness the engine minimizes. The violation channel always comes from the
    evaluation itself."""

    label: str
    fn: Callable[[tuple[float, ...]], float]

    def fitness(self, evaluation: Evaluation) -> float:
        return self.fn(evaluation.objectives_min)


def single_objective(index: int, n_objectives: int, negate: bool = False) -> ScalarObjective:
    """Fitness = one objective component; ``negate`` turns a minimization of
    that component into a maximization."""
    if not 0 <= index < n_objectives:
        raise IndexError(f"objective index {index} out of range for {n_objectives} objectives")
    if negate:
        return ScalarObjective(f"max_f{index}", lambda f: -f[index])
    return ScalarObjective(f"min_f{index}", lambda f: f[index])


def init_population(problem: Problem, config: DEConfig, rng: np.random.Generator):
    """Uniform sample of the box: x_ij = l_j + U(0,1) * (u_j - l_j)."""
    lo = np.asarray(problem.lower_bounds, dtype=float)
    up = np.asarray(problem.upper_bounds, dtype=float)
    draws = rng.random((config.population_size, problem.dimension))
    xs = lo + draws * (up - lo)
    return [Individual(x, evaluate(problem, x.tolist())) for x in xs]


def _draw_distinct(rng: np.random.Generator, pool: Sequence[int], exclude, count: int):
    """Rejection-sample ``count`` distinct indices from ``pool``, avoiding ``exclude``."""
    taken = set(exclude)
    out = []
    size = len(pool)
    while len(out) < count:
        candidate = pool[int(rng.random() * size)]
        if candidate not in taken:
            taken.add(candidate)
            out.append(candidate)
    return out


def mutate_rand1(pop, i: int, F: float, rng: np.random.Generator) -> np.ndarray:
    r1, r2, r3 = _draw_distinct(rng, range(len(pop)), (i,), 3)
    return pop[r1].x + F * (pop[r2].x - pop[r3].x)


def mutate_best(pop, i, F, gbest_index, rng, canonical: bool = False) -> np.ndarray:
    """Best-guided mutation. The default places the best individual inside the
    difference term; ``canonical`` uses it as the base vector instead."""
    r1, r2 = _draw_distinct(rng, range(len(pop)), (i,), 2)
    if canonical:
        return pop[gbest_index].x + F * (pop[r1].x - pop[r2].x)
    return pop[r1].x + F * (pop[r2].x - pop[gbest_index].x)


def _neighborhood(i: int, k: int, size: int):
    return [(i + off) % size for off in range(-k, k + 1)]


def local_global_donors(pop, i, alpha, beta, neigh, local_best, gbest_index, rng):
    """Local donor from the ring neighborhood ``neigh`` of member ``i``, pulled
    toward its best member ``local_best``, and global donor from the whole
    population, pulled toward ``gbest_index``."""
    p, q = _draw_distinct(rng, neigh, (i,), 2)
    xi = pop[i].x
    local = xi + alpha * (pop[local_best].x - xi) + beta * (pop[p].x - pop[q].x)
    p2, q2 = _draw_distinct(rng, range(len(pop)), (i,), 2)
    glob = xi + alpha * (pop[gbest_index].x - xi) + beta * (pop[p2].x - pop[q2].x)
    return local, glob


def mutate_degl(pop, i, alpha, beta, r, neigh, local_best, gbest_index, rng):
    local, glob = local_global_donors(pop, i, alpha, beta, neigh, local_best, gbest_index, rng)
    return r * glob + (1.0 - r) * local


def weight_r(iteration: int, max_iterations: int) -> float:
    """Exploration-to-exploitation weight: grows linearly over the run."""
    return iteration / max_iterations


def crossover(target: np.ndarray, donor: np.ndarray, Cr: float, rng: np.random.Generator):
    """Binomial recombination; one forced donor component per trial."""
    n = len(target)
    mask = rng.random(n) <= Cr
    mask[int(rng.random() * n)] = True
    return np.where(mask, donor, target)


def clamp(trial: np.ndarray, lo: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Clip ``trial`` into the box [lo, up] in place and return it."""
    return np.clip(trial, lo, up, out=trial)


def _elect(fit: np.ndarray, vio: np.ndarray, idx: np.ndarray):
    """TOPSIS election over the (fitness, violation) pairs of the members in
    ``idx``. A 1-D index set gives the population index of its best member; a
    2-D array of rows gives one best index per row."""
    entries = np.empty(idx.shape + (2,))
    entries[..., 0] = fit[idx]
    entries[..., 1] = vio[idx]
    best = cost_closeness(entries).argmax(axis=-1)
    return idx[best] if idx.ndim == 1 else idx[np.arange(len(idx)), best]


def _channels(pop, objective: ScalarObjective):
    """Fitness and violation arrays of a population."""
    fit = np.array([objective.fitness(ind.eval) for ind in pop])
    vio = np.array([ind.eval.violation for ind in pop])
    return fit, vio


def choose_best(pop, indices, objective: ScalarObjective) -> int:
    """TOPSIS over the (fitness, violation) pairs of the given members, both
    criteria cost with uniform weights; returns the population index with the
    greatest closeness coefficient."""
    idx = np.fromiter(indices, dtype=np.intp)
    if not len(idx):
        raise ValueError("cannot choose the best of an empty index set")
    return int(_elect(*_channels(pop, objective), idx))


def run(problem, config: DEConfig, objective, rng, initial=None):
    """Evolve for ``max_iterations`` generations and return the final population.

    Population slots are updated in place within a generation (later mutations
    see earlier replacements); the run is deterministic given the rng state.
    """
    pop = list(initial) if initial is not None else init_population(problem, config, rng)
    np_size = len(pop)
    fit, vio = _channels(pop, objective)
    lo = np.asarray(problem.lower_bounds, dtype=float)
    up = np.asarray(problem.upper_bounds, dtype=float)
    indices = np.arange(np_size)
    F, Cr, variant = config.scale_factor, config.crossover_rate, config.variant
    if variant == "degl":
        neigh_rows = np.array(
            [_neighborhood(i, config.neighborhood_k, np_size) for i in range(np_size)]
        )
    for iteration in range(1, config.max_iterations + 1):
        r = weight_r(iteration, config.max_iterations)
        # best indices are frozen at generation start (slot updates within the
        # generation do not re-elect them)
        if variant != "rand1":
            gbest = _elect(fit, vio, indices)
        if variant == "degl":
            local_bests = _elect(fit, vio, neigh_rows)
        for i in range(np_size):
            if variant == "rand1":
                donor = mutate_rand1(pop, i, F, rng)
            elif variant == "best":
                donor = mutate_best(pop, i, F, gbest, rng, config.canonical_best)
            else:
                donor = mutate_degl(
                    pop, i, config.alpha, config.beta, r,
                    neigh_rows[i], local_bests[i], gbest, rng,
                )
            trial = clamp(crossover(pop[i].x, donor, Cr, rng), lo, up)
            ev = evaluate(problem, trial.tolist())
            f_trial = objective.fitness(ev)
            if deb_key(f_trial, ev.violation) < deb_key(fit[i], vio[i]):
                pop[i] = Individual(trial, ev)
                fit[i] = f_trial
                vio[i] = ev.violation
    return pop

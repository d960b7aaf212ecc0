"""Three-stage compromise pipeline over an augmented objective set.

Stage 1 finds, per objective, its best (ideal) and worst (anti-ideal) values
over the feasible region. Stage 2 turns these into two normalized distance
functions, to the ideal and to the anti-ideal, and locates their extreme
points. The distances weigh uniformly every objective whose ideal and
anti-ideal differ; ``CompromiseAnchors`` derives that set from the two.
Stage 3 maximizes the minimum of two membership functions of those distances
(the fuzzy max-min compromise). Both are one clipped linear ramp,
falling with the distance to the ideal and rising with the distance to the
anti-ideal. Stage 3 alternates the evolution engine with tabu-search
refinement of every population member, archiving each feasible integer point
the walks looked at. The walks evaluate the objectives of feasible points
only: an infeasible point is ranked by its violation alone. Stage 3 stops as
soon as its walks have looked at (keyed) every lattice point of the box: the
archive is then final, and further moves could only revisit known points.

Constraints enter the pipeline as an extra minimization objective, the
maximum violation G(x): a ``VIOLATION`` slot that evaluation fills from the
same constraint pass that sets the violation. The constraint functions stay
on the augmented problem so that feasibility rules and the ideal/anti-ideal
values keep operating over the feasible region. Over that region G is 0, so
once stage 1 has found a feasible point G's ideal and anti-ideal are exactly
0.0 and no evolution run is spent on them; the degenerate column is then
dropped from the distance sums like any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import de, tabu
from .problems import (VIOLATION, Evaluation, Problem, deb_key, evaluate, feasible_lattice,
                       pareto_filter)

__all__ = [
    "CompromiseAnchors",
    "SolutionArchive",
    "HybridConfig",
    "augment_with_violation",
    "stage1_anchors",
    "oracle_anchor_values",
    "d_pis",
    "d_nis",
    "stage2_anchors",
    "mu1",
    "mu2",
    "maxmin_satisfaction",
    "maxmin_objective",
    "stage3_alternate",
    "solve",
]

DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class HybridConfig:
    de: de.DEConfig = field(default_factory=de.DEConfig)
    ts_iterations: int = 1000
    alternations: int = 10
    runs: int = 20
    oracle_anchors: bool = False

    def __post_init__(self):
        if min(self.ts_iterations, self.alternations, self.runs) < 1:
            raise ValueError("ts_iterations, alternations and runs must be positive")


@dataclass(frozen=True)
class CompromiseAnchors:
    """The ideal (``f_star``) and anti-ideal (``f_minus``) values of stage 1
    plus the distance anchors of stage 2: the whole record of a run's anchors.

    The rest is derived from ``f_star`` and ``f_minus`` on construction and is
    not a field. ``dropped`` lists the degenerate objectives, whose ideal
    equals the anti-ideal within the relative ``DEGENERACY_TOL``: they carry no
    information. ``active`` lists the others, which the distance sums weigh
    uniformly, ``1 / len(active)`` each.
    """

    f_star: tuple[float, ...]
    f_minus: tuple[float, ...]
    d_pis_star: float = math.nan
    d_nis_star: float = math.nan
    d_pis_prime: float = math.nan
    d_nis_prime: float = math.nan
    x_p: tuple[float, ...] = ()
    x_n: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.f_star) != len(self.f_minus):
            raise ValueError(f"f_star has {len(self.f_star)} values, f_minus {len(self.f_minus)}")
        active, dropped = [], []
        for j, (lo, hi) in enumerate(zip(self.f_star, self.f_minus)):
            tol = DEGENERACY_TOL * max(1.0, abs(lo), abs(hi))
            (active if hi - lo > tol else dropped).append(j)
        # coefficient (w / (f_j^- - f_j^*))^2 per active objective; these are
        # attributes, not fields, so they are neither compared, printed nor
        # passed in, and ``replace`` derives them again
        w = 1.0 / len(active) if active else 0.0
        coefs = tuple((j, (w / (self.f_minus[j] - self.f_star[j])) ** 2) for j in active)
        object.__setattr__(self, "active", tuple(active))
        object.__setattr__(self, "dropped", tuple(dropped))
        object.__setattr__(self, "_coefs", coefs)


def augment_with_violation(problem: Problem) -> Problem:
    """Append G(x) as an extra minimization objective (unconstrained and
    already augmented problems pass through unchanged). The constraint list is
    retained so feasibility rules and stage-1 anchors stay restricted to the
    feasible region."""
    if problem.n_constraints == 0 or any(fn is VIOLATION for fn, _ in problem.objectives):
        return problem
    return replace(
        problem,
        objectives=problem.objectives + ((VIOLATION, "min"),),
        name=f"{problem.name}+violation",
    )


def _stage_de_config(config: HybridConfig) -> de.DEConfig:
    # anchor-finding subproblems always use the neighborhood variant
    return replace(config.de, variant="degl")


def _run_best(problem_k, de_config, objective, draw):
    pop = de.run(problem_k, de_config, objective, draw)
    best = de.choose_best(pop, range(len(pop)), objective)
    return pop[best]


def stage1_anchors(problem_k: Problem, config: HybridConfig, draw):
    """Ideal and anti-ideal value of every objective via one minimizing and one
    maximizing evolution run each.

    The ``VIOLATION`` slot comes last. G is 0 over the feasible region, so once
    an earlier run's best point is feasible its anchors are exactly 0.0 and no
    run is spent on it; otherwise its two runs estimate them as for any column.
    """
    k = problem_k.n_objectives
    cfg = _stage_de_config(config)
    f_star, f_minus = [], []
    feasible_seen = False
    for j, (fn, _) in enumerate(problem_k.objectives):
        if fn is VIOLATION and feasible_seen:
            f_star.append(0.0)
            f_minus.append(0.0)
            continue
        low = _run_best(problem_k, cfg, de.single_objective(j, k), draw)
        f_star.append(low.eval.objectives_min[j])
        high = _run_best(problem_k, cfg, de.single_objective(j, k, negate=True), draw)
        f_minus.append(high.eval.objectives_min[j])
        feasible_seen = feasible_seen or 0.0 in (low.eval.violation, high.eval.violation)
    return tuple(f_star), tuple(f_minus)


def oracle_anchor_values(problem_k: Problem):
    """Exact anchors from exhaustive feasible-lattice enumeration."""
    points = feasible_lattice(problem_k)
    if not points:
        raise ValueError(f"{problem_k.name!r} has no feasible lattice point")
    k = problem_k.n_objectives
    columns = [[ev.objectives_min[j] for _, ev in points] for j in range(k)]
    return tuple(min(col) for col in columns), tuple(max(col) for col in columns)


def _distance(values, reference, anchors: CompromiseAnchors) -> float:
    # (a - b)**2 == (b - a)**2 in IEEE arithmetic, so the side is immaterial
    total = 0.0
    for j, coef in anchors._coefs:
        diff = values[j] - reference[j]
        total += coef * diff * diff
    return math.sqrt(total)


def d_pis(values, anchors: CompromiseAnchors) -> float:
    """Weighted normalized distance of an objective vector to the ideal point."""
    return _distance(values, anchors.f_star, anchors)


def d_nis(values, anchors: CompromiseAnchors) -> float:
    """Weighted normalized distance of an objective vector to the anti-ideal point."""
    return _distance(values, anchors.f_minus, anchors)


def stage2_anchors(problem_k, frame: CompromiseAnchors, config: HybridConfig, draw):
    """Locate the distance extremes: the point closest to the ideal, the point
    farthest from the anti-ideal, and each distance evaluated at the other's
    solution."""
    cfg = _stage_de_config(config)
    best_p = _run_best(problem_k, cfg, lambda f: d_pis(f, frame), draw)
    best_n = _run_best(problem_k, cfg, lambda f: -d_nis(f, frame), draw)
    fp = best_p.eval.objectives_min
    fn = best_n.eval.objectives_min
    return replace(
        frame,
        d_pis_star=d_pis(fp, frame),
        d_nis_star=d_nis(fn, frame),
        d_pis_prime=d_pis(fn, frame),
        d_nis_prime=d_nis(fp, frame),
        x_p=best_p.x,
        x_n=best_n.x,
    )


def _membership(d: float, best: float, worst: float) -> float:
    """The clipped linear ramp of both memberships: 1 at ``best`` and beyond
    it, 0 at ``worst`` and beyond it, linear between. A span ``worst - best``
    not above ``DEGENERACY_TOL`` collapses the ramp to constant 1."""
    if not worst - best > DEGENERACY_TOL:
        return 1.0
    if d < best:
        return 1.0
    if d > worst:
        return 0.0
    return 1.0 - (d - best) / (worst - best)


def mu1(values, anchors: CompromiseAnchors) -> float:
    """Satisfaction with the distance to the ideal (smaller is better): the
    ramp from 1 at ``d_pis_star`` to 0 at ``d_pis_prime``."""
    return _membership(d_pis(values, anchors), anchors.d_pis_star, anchors.d_pis_prime)


def mu2(values, anchors: CompromiseAnchors) -> float:
    """Satisfaction with the distance to the anti-ideal (larger is better): the
    same ramp on negated distances, from 1 at ``d_nis_star`` to 0 at
    ``d_nis_prime``. Negation is exact, so ``(-d) - (-s)`` is ``s - d`` bit for
    bit and every comparison flips cleanly."""
    return _membership(-d_nis(values, anchors), -anchors.d_nis_star, -anchors.d_nis_prime)


def maxmin_satisfaction(values, anchors: CompromiseAnchors) -> float:
    """The satisfaction level stage 3 maximizes: min of both memberships."""
    return min(mu1(values, anchors), mu2(values, anchors))


def maxmin_objective(anchors):
    """Scalar fitness for stage 3 (minimized): the negated satisfaction level."""
    return lambda f: -maxmin_satisfaction(f, anchors)


@dataclass(frozen=True)
class ArchiveEntry:
    evaluation: Evaluation


@dataclass(frozen=True)
class SolutionArchive:
    """The distinct feasible integer solutions one run found, each with its
    evaluation; ``anchors`` are those of the run that built it.
    """

    entries: dict[tuple[int, ...], ArchiveEntry]
    anchors: CompromiseAnchors | None = None

    # stage 3 calls neither add nor finalize_pareto; perfbench/trace.py
    # still instruments both by name, so they stay until it stops

    def add(self, x, evaluation: Evaluation) -> None:
        if evaluation.violation != 0.0:
            raise ValueError(f"refusing to archive infeasible point {tuple(x)}")
        key = tuple(int(v) for v in x)
        if key not in self.entries:
            self.entries[key] = ArchiveEntry(evaluation)

    def finalize_pareto(self) -> None:
        """Drop entries dominated by another archived entry, in place."""
        kept = pareto_filter([(key, e.evaluation) for key, e in self.entries.items()])
        for key in self.entries.keys() - {key for key, _ in kept}:
            del self.entries[key]

    def __len__(self) -> int:
        return len(self.entries)

    def solutions(self):
        return sorted(self.entries)


def stage3_alternate(
    problem_k: Problem,
    d_original: int,
    anchors: CompromiseAnchors,
    config: HybridConfig,
    draw,
) -> SolutionArchive:
    """Alternate evolution on the satisfaction level with tabu refinement.

    Each alternation runs the configured variant for its full iteration
    budget, then rounds and tabu-refines every population member, writing the
    result back into the population when it improves the incumbent. The
    archive is one :func:`pareto_filter` call, on the original objectives,
    over every feasible lattice point the walks looked at, landing or scan
    neighbour (every entry of ``evaluator.evals``), decoded from its flat
    index; it carries ``anchors``. The kept set does not depend on the
    order of the points.

    Both loops stop after the first tabu search that leaves every point of
    the box keyed, feasible or not (``len(evaluator.keys)`` reaches the
    lattice size): no later move can add to the archive. The skipped
    searches and DE runs draw no uniforms, so the stop changes only the
    state in which ``draw`` is left.
    """
    objective = maxmin_objective(anchors)
    evaluator = tabu.CachedEvaluator(problem_k, objective)
    lattice_size = problem_k.lattice_size()
    pop = de.init_population(problem_k, config.de, draw)
    for _ in range(config.alternations):
        pop = de.run(problem_k, config.de, objective, draw, initial=pop)
        for i, member in enumerate(pop):
            rounded = tabu.stochastic_round(member.x, draw)
            j = tabu.tabu_search(rounded, config.ts_iterations, evaluator, draw)
            if evaluator.keys[j] < deb_key(objective(member.eval.objectives_min),
                                           member.eval.violation):
                x = evaluator.point(j)
                pop[i] = de.Individual(tuple(map(float, x)), evaluate(problem_k, x))
            if len(evaluator.keys) == lattice_size:
                break
        if len(evaluator.keys) == lattice_size:
            break
    front = pareto_filter((evaluator.point(j), Evaluation(ev.objectives_min[:d_original], 0.0))
                          for j, ev in evaluator.evals.items())
    return SolutionArchive({x: ArchiveEntry(ev) for x, ev in front}, anchors)


def compute_anchors(problem: Problem, config: HybridConfig, draw):
    """Stages 1 and 2 on the violation-augmented problem."""
    problem_k = augment_with_violation(problem)
    if config.oracle_anchors:
        f_star, f_minus = oracle_anchor_values(problem_k)
    else:
        f_star, f_minus = stage1_anchors(problem_k, config, draw)
    return problem_k, stage2_anchors(problem_k, CompromiseAnchors(f_star, f_minus), config, draw)


def solve(problem: Problem, config: HybridConfig, rng) -> SolutionArchive:
    """One full run: anchors, then the alternating stage-3 search, all drawing
    from one :func:`moits.de.block_draws` stream on ``rng``, settled at the end.

    Returns the archive; its ``anchors`` attribute holds the
    completed anchors for reporting.
    """
    draw, settle = de.block_draws(rng)
    try:
        problem_k, anchors = compute_anchors(problem, config, draw)
        return stage3_alternate(problem_k, problem.n_objectives, anchors, config, draw)
    finally:
        settle()

"""Integer multi-objective optimization by TOPSIS-ranked differential
evolution, tabu search and fuzzy max-min compromise programming."""

from .benchmarks import BenchmarkSpec, benchmark
from .de import DEConfig, Individual, single_objective
from .harness import (
    ExperimentReport,
    VerificationReport,
    derive_seed,
    run_experiment,
    verify_known,
)
from .pipeline import CompromiseAnchors, HybridConfig, SolutionArchive, solve
from .problems import (
    Evaluation,
    Problem,
    brute_force_pareto,
    dominates,
    evaluate,
    pareto_filter,
)
from .tabu import stochastic_round, tabu_search
from .topsis import DecisionMatrix, TopsisRanking, rank

__version__ = "0.1.0"

__all__ = [
    "BenchmarkSpec",
    "benchmark",
    "DEConfig",
    "Individual",
    "single_objective",
    "ExperimentReport",
    "VerificationReport",
    "derive_seed",
    "run_experiment",
    "verify_known",
    "CompromiseAnchors",
    "HybridConfig",
    "SolutionArchive",
    "solve",
    "Evaluation",
    "Problem",
    "brute_force_pareto",
    "dominates",
    "evaluate",
    "pareto_filter",
    "stochastic_round",
    "tabu_search",
    "DecisionMatrix",
    "TopsisRanking",
    "rank",
]

"""Reproducing a success-rate table with the experiment harness.

An experiment runs the hybrid solver R times with per-run seeds derived from
one master seed (a splitmix64 stream, so reports are reproducible across
platforms) and counts, for every archived solution, the number of runs that
found it. The same table is what `moits experiment` writes as CSV or JSON.

This demo uses a reduced budget so it finishes in a few seconds; the full
published tables use the defaults (20 runs, 100 evolution iterations, 1000
tabu moves, 10 alternations).
"""

from moits import HybridConfig, benchmark
from moits.de import DEConfig
from moits.harness import report_csv, run_experiment, verify_known

config = HybridConfig(
    de=DEConfig(population_size=20, max_iterations=30),
    ts_iterations=100,
    alternations=2,
    runs=5,
    oracle_anchors=True,
)

spec = benchmark("p3")
report = run_experiment(spec, "degl", config, master_seed=2024, workers=1)

print(f"success rates over {report.runs} runs "
      f"(wall clock {sum(report.wall_clock):.1f}s total):\n")
print(report_csv(report), end="")

print("\noracle verification of the published targets:")
for check in verify_known(spec).checks:
    dominators = f", dominated by {check.dominated_by}" if check.dominated_by else ""
    print(f"  {check.solution}: feasible={check.feasible} "
          f"pareto={check.pareto}{dominators}")

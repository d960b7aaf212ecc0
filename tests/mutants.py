"""Mutation check of the test suite: does it notice a broken method?

Each mutant is one named edit to one file of the package. For each, this
script copies the checkout to a temporary directory, applies the edit to the
copy's ``src/``, runs the Tier-1 command there (``PYTHONPATH=src``), and
prints the tests that fail. The whole checkout is copied, not ``src/`` alone,
because ``perfbench/test_perfbench.py`` puts its own checkout's ``src/`` first
on ``sys.path``. No file of the checkout changes. Each mutant costs a full
Tier-1 run, one to two minutes on two CPUs, so the result is reported, not
gated; CI runs ``mu_no_clip`` and ``topsis_benefit_as_cost`` and fails
unless some test fails under each.

    python tests/mutants.py                       # every mutant
    python tests/mutants.py no_kick elect_worst   # the named ones

pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name: (file under src/moits, text, replacement, what the edit breaks);
# the replacement is made at every occurrence of the text
MUTANTS = {
    "elect_worst": ("de.py", "cost_closeness(pairs[idx]).argmax(axis=-1)",
                    "cost_closeness(pairs[idx]).argmin(axis=-1)",
                    "TOPSIS elections pick the least close member"),
    "select_le": ("de.py", "if key < keys[i]:", "if key <= keys[i]:",
                  "DE selection also replaces a member by an equal trial"),
    "degl_r_half": ("de.py", "return iteration / max_iterations", "return 0.5",
                    "the DEGL weight stays at 0.5"),
    "no_aspiration": ("tabu.py", "(k - t[j] > tenure or cand_key < star_key)",
                      "(k - t[j] > tenure)",
                      "a tabu move is never allowed by beating the best"),
    "no_kick": ("tabu.py", "if k - last > n:", "if False:",
                "the tabu walk never diversifies"),
    "ts_one_move": ("pipeline.py", "tabu.tabu_search(rounded, config.ts_iterations,",
                    "tabu.tabu_search(rounded, 1,",
                    "each stage-3 tabu search makes one move"),
    "no_writeback": ("pipeline.py", "if evaluator.key(j) < deb_key(",
                     "if False and evaluator.key(j) < deb_key(",
                     "stage 3 never writes a tabu point back"),
    "infeasible_key_flat": ("tabu.py", "k = self.keys[i] = (1, violation)",
                            "k = self.keys[i] = (1, 0.0)",
                            "an infeasible point is keyed (1, 0.0) whatever its violation"),
    "round_down": ("tabu.py", "base + 1 if draw() < frac else base",
                   "base if draw() < frac else base",
                   "stochastic rounding always floors, still drawing"),
    "mu_no_clip": ("pipeline.py", "if d > worst:", "if False:",
                   "the membership ramp is not clipped at 0 beyond its worst anchor"),
    "topsis_no_normalize": ("topsis.py", "return entries / scale", "return entries",
                            "TOPSIS does not normalize its decision matrix"),
    "topsis_benefit_as_cost": ("topsis.py", "-1.0 if s == BENEFIT else 1.0",
                               "1.0 if s == BENEFIT else 1.0",
                               "rank treats benefit columns as cost"),
    "stage1_no_skip": ("pipeline.py", "if fn is VIOLATION and feasible_seen:", "if False:",
                       "stage 1 spends DE runs on G after a feasible point"),
    "keep_dropped": ("pipeline.py", "(active if hi - lo > tol else dropped)",
                     "(active if True else dropped)",
                     "degenerate objectives stay in the distance sums"),
}

# what git, builds and earlier runs leave in a checkout; not copied
LEFT_BEHIND = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out",
               ".bench_build", ".benchmarks", "build")

WIDE_BOX_PIN = "tests/test_golden.py::test_wide_box_solve_is_pinned"


def mutate(src: Path, name: str) -> None:
    """Apply the named edit to the copy of the package under ``src``."""
    file, text, replacement, _ = MUTANTS[name]
    path = src / "moits" / file
    code = path.read_text(encoding="utf-8")
    if text not in code:
        raise SystemExit(f"mutant {name}: {text!r} is not in {file}")
    path.write_text(code.replace(text, replacement), encoding="utf-8")


def failing_tests(copy: Path) -> list[str]:
    """The ids of the Tier-1 tests that fail or error in the checkout ``copy``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    # tests/test_mutants.py fails on every mutated copy, since the edit removes
    # the text it looks for; counting it would make every mutant look killed
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "-rfE", "--ignore=tests/test_mutants.py"],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    if result.returncode not in (0, 1):  # 1: some tests failed
        raise SystemExit(f"pytest exited {result.returncode}:\n{result.stdout}{result.stderr}")
    return [line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in result.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))]


def main(names: list[str]) -> int:
    unknown = set(names) - set(MUTANTS)
    if unknown:
        print(f"error: unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    rows = []
    for name in names or MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "checkout"
            shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*LEFT_BEHIND))
            mutate(copy / "src", name)
            failed = failing_tests(copy)
        print(f"{name}: {len(failed)} failing", flush=True)
        for test in failed:
            print(f"  {test}", flush=True)
        wide = [test[len(WIDE_BOX_PIN):] for test in failed if test.startswith(WIDE_BOX_PIN)]
        rows.append(f"| `{name}` | {MUTANTS[name][3]} | {len(failed)} | "
                    f"{' '.join(wide) or 'no'} |")
    print("\n| mutant | edit | Tier-1 failures | wide-box pin fails (seed) |")
    print("|--------|------|----------------:|---------------------------|")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

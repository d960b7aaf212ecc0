"""Mutation check of the test suite: does it notice a broken method?

Each mutant is one named edit to one file of the package. For each, this
script copies the checkout to a temporary directory, applies the edit to the
copy's ``src/``, runs the Tier-1 command there (``PYTHONPATH=src``), and
prints the tests that fail. The whole checkout is copied, not ``src/`` alone,
because ``perfbench/test_perfbench.py`` puts its own checkout's ``src/`` first
on ``sys.path``. No file of the checkout changes. Each mutant costs a full
Tier-1 run, one to two minutes on two CPUs, so the result is reported, not
gated; CI runs ``mu_no_clip``, ``topsis_benefit_as_cost``, ``no_aspiration``,
``stale_neighbours``, ``keep_dropped``, ``select_le``, ``skip_first_equal``,
``infeasible_key_flat``, ``no_writeback``, ``stale_objectives`` and
``elect_worst`` and fails unless some test fails under each.

Each pytest run starts in its own session, with its temporary files under the
mutant's temporary directory. SIGTERM, as a CI timeout sends, raises
``SystemExit``: the run's whole process group is killed and waited for, and
the temporary directory, copy included, is removed on the way out.

    python tests/mutants.py                       # every mutant
    python tests/mutants.py no_kick elect_worst   # the named ones

pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name: (file under src/moits, text, replacement, what the edit breaks);
# the text occurs exactly once in its file, so a formula written twice cannot
# hide a copy that the edit leaves intact
MUTANTS = {
    "elect_worst": ("de.py", "cost_closeness(np.take(pairs, rows, axis=1).T).argmax(axis=-1)",
                    "cost_closeness(np.take(pairs, rows, axis=1).T).argmin(axis=-1)",
                    "TOPSIS elections pick the least close member"),
    "select_le": ("de.py", "if key < keys[i]:", "if key <= keys[i]:",
                  "DE selection also replaces a member by a trial of equal key"),
    "skip_first_equal": ("de.py", "if trial == xs[i]:", "if trial[0] == xs[i][0]:",
                         "DE skips every trial whose first coordinate equals its target's"),
    "stale_objectives": ("de.py", "xs[i], objs[i], fit[i], vio[i] = trial, o, f_trial, v",
                         "xs[i], fit[i], vio[i] = trial, f_trial, v",
                         "a DE replacement keeps the slot's old objective tuple"),
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
    "no_writeback": ("pipeline.py", "if evaluator.keys[j] < deb_key(",
                     "if False and evaluator.keys[j] < deb_key(",
                     "stage 3 never writes a tabu point back"),
    "infeasible_key_flat": ("tabu.py", "k = self.keys[i] = (1, violation)",
                            "k = self.keys[i] = (1, 0.0)",
                            "an infeasible point is keyed (1, 0.0) whatever its violation"),
    "stale_neighbours": ("tabu.py", "i, better = best, None", "i = best",
                         "a winning move keeps the neighbours that beat the point it left"),
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
    count = code.count(text)
    if count != 1:
        raise SystemExit(f"mutant {name}: {text!r} occurs {count} times in {file}, not once")
    path.write_text(code.replace(text, replacement), encoding="utf-8")


def failing_tests(copy: Path) -> list[str]:
    """The ids of the Tier-1 tests that fail or error in the checkout ``copy``.

    pytest runs in a session of its own, with its temporary files next to
    ``copy``; if this process is stopped, the session's processes are killed
    and waited for before the exception goes on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(copy.parent)
    # tests/test_mutants.py fails on every mutated copy, since the edit removes
    # the text it looks for; counting it would make every mutant look killed
    with subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "-rfE", "--ignore=tests/test_mutants.py"],
        cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:
            with contextlib.suppress(ProcessLookupError):  # the session has exited
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode not in (0, 1):  # 1: some tests failed
        raise SystemExit(f"pytest exited {proc.returncode}:\n{stdout}{stderr}")
    return [line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))]


def _stop(signum, frame):
    """Turn SIGTERM into ``SystemExit``, so that ``with`` blocks unwind."""
    raise SystemExit(128 + signum)


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
    signal.signal(signal.SIGTERM, _stop)
    sys.exit(main(sys.argv[1:]))

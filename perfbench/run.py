"""Benchmark of the moits solver: one workload per invocation.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the solver is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it print every metric with its unit and sample count, the
environment and the output fingerprint; the same record, and the spans of a
traced run, are written under ``.bench_out/``.

The run has three parts, each in a process of its own:

* set-up is timed ``SETUP_REPEATS`` times in fresh processes (import,
  input generation, oracle fronts) and ``setup_s`` is the median;
* the workload runs in a fresh process, so that its peak memory is its own
  plus that of its largest pool worker. It runs whole units of work until
  ``--seconds`` have passed (at least one) and checks each unit;
* with ``--trace 1`` that process runs one unit untraced and then one unit
  with the tracer of ``trace.py`` installed.

Timings are in reference seconds (see ``speed.py``): wall seconds scaled by
the speed the CPUs showed while the work ran, so that other tenants of a
shared machine move them less. A single-threaded workload and its set-up run
pinned to one CPU, the one their speed is sampled on. The wall seconds are
printed beside them in the ``detail`` line.

Exit status: 0 when every check passed, 1 when a solve failed or a check
did not hold, 2 on bad usage or a checkout without the solver's source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import speed  # noqa: E402

OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
DEADLINE_S = 170.0

WORKLOAD_NAMES = ("paper", "wide", "experiment")


def _fail(message: str, status: int):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(status)


def _import_solver():
    """Import the solver from the checkout's ``src``."""
    if not (ROOT / "src" / "moits" / "__init__.py").is_file():
        _fail(f"no solver source at {ROOT / 'src' / 'moits'}", 2)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import moits

    if Path(moits.__file__).resolve().parent != ROOT / "src" / "moits":
        _fail(f"imported moits from {moits.__file__}, not from this checkout", 2)


# -- roles run in child processes -------------------------------------------


def role_setup(args) -> dict:
    cpu = speed.cpus()[0]
    speed.pin_to(cpu)
    with speed.Speedometer([cpu]) as meter:
        start = time.perf_counter()
        _import_solver()
        from perfbench.workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, args.tiny)
        end = time.perf_counter()
    return {"setup_s": meter.seconds(start, end), "setup_wall_s": end - start}


def _timed(unit, meter) -> dict:
    """A unit's record with its timings in reference seconds; the solves of
    a pool, whose bounds are not known here, share the unit's mean speed."""
    record = vars(unit)
    record["wall_seconds"] = unit.end - unit.start
    record["seconds"] = meter.seconds(unit.start, unit.end)
    factor = record["wall_seconds"] / record["seconds"]
    record["ref_solve_seconds"] = ([meter.seconds(*span) for span in unit.spans]
                                   or [s / factor for s in unit.solve_seconds])
    return record


def role_workload(args) -> dict:
    import resource

    _import_solver()
    from perfbench import trace
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    cpus = speed.cpus()
    if workload.workers == 1:  # a single solve thread: measure the CPU it runs on
        cpus = cpus[:1]
        speed.pin_to(cpus[0])
    units = []
    with speed.Speedometer(cpus) as meter:
        started = time.perf_counter()
        while not units or (not args.trace and time.perf_counter() - started < args.seconds):
            units.append(workload.run())
        if args.trace:
            tracer = trace.Tracer().install()
            try:
                traced = workload.run()
            finally:
                tracer.uninstall()
    record = {"units": [_timed(unit, meter) for unit in units], "workers": workload.workers}
    if args.trace:
        record["traced"] = _timed(traced, meter)
        # one pair of units: its resolution is the run-to-run spread (5-8%)
        overhead = record["traced"]["seconds"] / record["units"][0]["seconds"] - 1.0
        slowdown = record["traced"]["wall_seconds"] / record["traced"]["seconds"]
        record["layers"], record["absent"] = trace.layer_metrics(
            tracer, traced.harness, overhead, slowdown)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps({"absent": tracer.absent, "spans": tracer.spans}))
    record["rss_self_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["rss_children_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return record


# -- the orchestrating process ------------------------------------------------


def _child(args, role: str, deadline: float) -> dict:
    """Run this script in another role and return the JSON of its last line.
    The child leads its own process group, so that a timeout also stops its
    pool workers."""
    command = [sys.executable, str(Path(__file__).resolve()), "--role", role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        command.append("--tiny")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        _fail(f"the {role} process ran past the time limit", 1)
    if proc.returncode != 0 or not out.strip():
        _fail(f"the {role} process exited with status {proc.returncode}", 1)
    return json.loads(out.strip().splitlines()[-1])


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(speed.cpus()),
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


def _quartiles(values) -> dict:
    values = sorted(values)
    if not values:  # every solve raised
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(setup, record) -> tuple[dict, dict]:
    """Metric values and, per timing, its sample count and quartiles."""
    units = record["units"]
    unit_s = [u["seconds"] for u in units]
    solve_s = [s for u in units for s in u["ref_solve_seconds"]]
    solves = sum(u["attempted"] for u in units)
    first = units[0]["quality"]
    samples = {"workload_s": _quartiles(unit_s), "solve_s": _quartiles(solve_s),
               "setup_s": _quartiles([s["setup_s"] for s in setup]),
               "wall": {"workload_s": _quartiles([u["wall_seconds"] for u in units]),
                        "solve_s": _quartiles([s for u in units for s in u["solve_seconds"]]),
                        "setup_s": _quartiles([s["setup_wall_s"] for s in setup])}}
    metrics = {
        "workload_s": (samples["workload_s"]["median"], "s"),
        "solve_s": (samples["solve_s"]["median"], "s"),
        "solves_per_min": (60.0 * solves / sum(unit_s), "1/min"),
        "setup_s": (samples["setup_s"]["median"], "s"),
        "peak_rss_mb": (record["rss_self_mb"] + record["rss_children_mb"], "MB"),
        "hypervolume": (first.get("hypervolume", 0.0), "ratio"),
    }
    return metrics, samples


# Reported with every untraced run but not in the result line: on ``wide`` one
# solve finds 14 to 17 of the 45 points of the exact front, depending on the
# seed, so their spread over seeds (15%) is too wide for a useful bound.
UNGATED = ("pareto_recall", "success_rate")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every solve (the smoke test's size)")
    parser.add_argument("--role", choices=("main", "setup", "workload"), default="main",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.role != "main":
        result = role_setup(args) if args.role == "setup" else role_workload(args)
        print(json.dumps(result))
        return 0

    deadline = time.monotonic() + DEADLINE_S
    _import_solver()
    load_start = os.getloadavg()
    setup = [_child(args, "setup", deadline) for _ in range(SETUP_REPEATS)]
    record = _child(args, "workload", deadline)

    units = record["units"] + ([record["traced"]] if args.trace else [])
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    errors = list(dict.fromkeys(e for u in units for e in u["errors"]))
    fingerprints = sorted({u["fingerprint"] for u in units})
    if len(fingerprints) > 1:
        errors.append(f"units of one run gave different outputs: {fingerprints}")
    correct = failed == 0 and not errors

    if args.trace:
        metrics, samples = record["layers"], {}
    else:
        metrics, samples = end_to_end(setup, record)
    recorded = json.loads((HERE / "fingerprints.json").read_text()).get(args.workload, {})
    expected = None if args.tiny else recorded.get(str(args.seed))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "units": len(record["units"]),
        "samples": samples,
        "failed_frac": failed / max(1, attempted),
        "quality": record["units"][0]["quality"],
        "errors": errors,
        "fingerprint": fingerprints[0] if len(fingerprints) == 1 else fingerprints,
        "fingerprint_recorded": expected,
        "fingerprint_match": None if expected is None else fingerprints == [expected],
        "absent": record.get("absent", []),
        "environment": dict(_environment(), loadavg_start=load_start,
                            loadavg_end=os.getloadavg()),
    }
    for name, (value, unit) in metrics.items():
        count = f"  (n={samples[name]['n']})" if name in samples else ""
        absent = "  absent" if name in detail["absent"] else ""
        print(f"{name:32s} {value:14.6g} {unit}{count}{absent}")
    if not args.trace:
        for name in UNGATED:
            value = detail["quality"].get(name, 0.0)
            print(f"{name:32s} {value:14.6g} ratio  (reported, not gated)")
        print(f"{'failed_frac':32s} {detail['failed_frac']:14.6g} ratio  (reported, not gated)")
    print("detail " + json.dumps(detail, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(detail, metrics=metrics), indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

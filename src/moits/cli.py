"""Command-line interface.

Subcommands:
  solve       one seeded run of a benchmark; prints the archived solutions
  experiment  R seeded runs; emits the success-rate report (csv or json)
  verify      cross-check published targets against the lattice oracle
  rank        standalone TOPSIS ranking of a CSV decision matrix

Each subcommand writes one text to stdout or to --out: JSON with sorted keys
(for `experiment` and `verify`, the report dataclass's fields), or CSV from
`harness.csv_text`, which quotes cells holding commas such as `(7,6)`.

Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import typing

import numpy as np

from . import harness, pipeline, topsis
from .benchmarks import BENCHMARK_NAMES, benchmark
from .de import DEConfig, VARIANTS

_DE_FIELDS = {f.name for f in dataclasses.fields(DEConfig)}
_HYBRID_FIELDS = {f.name for f in dataclasses.fields(pipeline.HybridConfig)} - {"de"}
_FIELD_TYPES = {
    **typing.get_type_hints(pipeline.HybridConfig),
    **typing.get_type_hints(DEConfig),
}


def _check_type(key: str, value) -> None:
    """A config value must have its field's type; a bool is not an int, and
    an int is accepted for a float."""
    expected = _FIELD_TYPES[key]
    accepted = (int, float) if expected is float else expected
    if isinstance(value, bool) != (expected is bool) or not isinstance(value, accepted):
        raise ValueError(
            f"config key {key} must be {expected.__name__}, not {type(value).__name__} {value!r}"
        )


def load_config(path: str | None, **overrides) -> pipeline.HybridConfig:
    """Hybrid configuration from a flat JSON file; absent keys keep defaults.

    Keys may name any engine field (population_size, crossover_rate, ...) or
    any pipeline field (ts_iterations, alternations, runs, ...).
    """
    data: dict = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
    data.update({k: v for k, v in overrides.items() if v is not None})
    de_kwargs = {k: v for k, v in data.items() if k in _DE_FIELDS}
    hybrid_kwargs = {k: v for k, v in data.items() if k in _HYBRID_FIELDS}
    unknown = set(data) - _DE_FIELDS - _HYBRID_FIELDS
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in data.items():
        _check_type(key, value)
    return pipeline.HybridConfig(de=DEConfig(**de_kwargs), **hybrid_kwargs)


def _seed(text: str) -> int:
    """A ``--seed`` value; numpy seeds its generators with non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moits",
        description="Integer multi-objective optimization via TOPSIS-ranked "
        "differential evolution, tabu search and max-min compromise programming.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--problem", required=True, choices=BENCHMARK_NAMES)
        # None lets --config, then DEConfig's default, choose the variant
        p.add_argument("--variant", default=None, choices=VARIANTS)
        p.add_argument("--seed", type=_seed, default=1)
        p.add_argument("--config", default=None, help="JSON file overriding defaults")
        p.add_argument("--oracle-anchors", action="store_true")

    p_solve = sub.add_parser("solve", help="single run, print the solution archive")
    add_common(p_solve)
    p_solve.add_argument("--format", default="csv", choices=("csv", "json"))
    p_solve.add_argument("--out", default=None)

    p_exp = sub.add_parser("experiment", help="R runs, emit the success-rate report")
    add_common(p_exp)
    p_exp.add_argument("--runs", type=int, default=None)
    p_exp.add_argument("--format", default="csv", choices=("csv", "json"))
    p_exp.add_argument("--out", default=None)
    p_exp.add_argument("--workers", type=int, default=None)

    p_verify = sub.add_parser("verify", help="oracle checks of the published targets")
    p_verify.add_argument("--problem", required=True, choices=BENCHMARK_NAMES)
    p_verify.add_argument("--format", default="csv", choices=("csv", "json"))
    p_verify.add_argument("--out", default=None)

    p_rank = sub.add_parser("rank", help="TOPSIS ranking of a CSV decision matrix")
    p_rank.add_argument("matrix",
                        help="CSV file, one alternative per row, after an optional header row")
    p_rank.add_argument(
        "--senses",
        default=None,
        help="comma-separated benefit/cost per column; overrides the header's "
        "name:benefit / name:cost suffixes (default: those suffixes, cost where a "
        "column has none or there is no header)",
    )
    p_rank.add_argument("--weights", default=None,
                        help="comma-separated, sums to 1 (default: uniform)")
    p_rank.add_argument("--out", default=None)
    return parser


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit(args, record, csv_text: str) -> None:
    """Write ``record`` as JSON with sorted keys, or ``csv_text`` as it is, as
    ``--format`` asks."""
    if args.format == "json":
        _write(args.out, json.dumps(record, indent=2, sort_keys=True) + "\n")
    else:
        _write(args.out, csv_text)


def _config_from_args(args) -> pipeline.HybridConfig:
    overrides = {
        "variant": getattr(args, "variant", None),
        "oracle_anchors": True if args.oracle_anchors else None,
        "runs": getattr(args, "runs", None),
    }
    return load_config(args.config, **overrides)


def _cmd_solve(args) -> int:
    spec = benchmark(args.problem)
    config = _config_from_args(args)
    rng = np.random.default_rng(args.seed)
    archive = pipeline.solve(spec.problem, config, rng)
    senses = [sense for _, sense in spec.problem.objectives]
    rows = []
    for solution in archive.solutions():
        values = archive.entries[solution].evaluation.objectives_min
        raw = [-v if sense == "max" else v for v, sense in zip(values, senses)]
        rows.append({"solution": list(solution), "objectives": raw})
    cells = [[harness.format_solution(row["solution"]), ";".join(map(repr, row["objectives"]))]
             for row in rows]
    # the anchors are in the minimization sense of the violation-augmented problem
    anchors = {**dataclasses.asdict(archive.anchors),
               "active": archive.anchors.active, "dropped": archive.anchors.dropped}
    _emit(args, {"problem": spec.problem.name, "solutions": rows, "anchors": anchors},
          harness.csv_text(["solution", "objectives"], cells))
    return 0


def _cmd_experiment(args) -> int:
    spec = benchmark(args.problem)
    config = _config_from_args(args)
    report = harness.run_experiment(
        spec, config.de.variant, config, args.seed, workers=args.workers
    )
    _emit(args, dataclasses.asdict(report), harness.report_csv(report))
    return 0


def _cmd_verify(args) -> int:
    report = harness.verify_known(benchmark(args.problem))
    cells = [[harness.format_solution(check.solution), check.feasible, check.pareto,
              ";".join(map(harness.format_solution, check.dominated_by))]
             for check in report.checks]
    _emit(args, dataclasses.asdict(report),
          harness.csv_text(["solution", "feasible", "pareto", "dominated_by"], cells))
    return 0


def _read_matrix(path):
    with open(path, encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"matrix file {path!r} is empty")
    for number, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ValueError(f"row {number} of matrix file {path!r} has {len(row)} cells, "
                             f"row 1 has {len(rows[0])}")
    header_senses = None
    try:
        float(rows[0][0])
    except ValueError:
        # header row; cells may carry a :benefit / :cost suffix
        header_senses = []
        for cell in rows[0]:
            _, _, sense = cell.partition(":")
            header_senses.append(sense.strip() or topsis.COST)
        rows = rows[1:]
        if not rows:
            raise ValueError(f"matrix file {path!r} has a header but no rows")
    entries = np.array([[float(cell) for cell in row] for row in rows])
    return entries, header_senses


def _cmd_rank(args) -> int:
    entries, header_senses = _read_matrix(args.matrix)
    ncols = entries.shape[1]
    if args.senses:
        senses = tuple(s.strip() for s in args.senses.split(","))
    elif header_senses:
        senses = tuple(header_senses)
    else:
        senses = (topsis.COST,) * ncols
    if args.weights:
        weights = np.array([float(w) for w in args.weights.split(",")])
    else:
        weights = np.full(ncols, 1.0 / ncols)
    ranking = topsis.rank(topsis.DecisionMatrix(entries, senses, weights))
    position = {alt: pos for pos, alt in enumerate(ranking.order)}
    cells = [[i, float(ranking.closeness[i]), position[i]] for i in range(entries.shape[0])]
    text = harness.csv_text(["alternative", "closeness", "rank"], cells)
    _write(args.out, text)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "experiment": _cmd_experiment,
    "verify": _cmd_verify,
    "rank": _cmd_rank,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moits
from moits import harness, pipeline, topsis
from moits.cli import load_config, main
from moits.pipeline import CompromiseAnchors, HybridConfig

FAST = {
    "population_size": 20,
    "max_iterations": 30,
    "ts_iterations": 100,
    "alternations": 2,
    "runs": 2,
    "oracle_anchors": True,
}


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FAST))
    return str(path)


class TestLoadConfig:
    def test_defaults_without_file(self):
        assert load_config(None) == HybridConfig()

    def test_flat_keys_route_to_engine_and_pipeline(self, fast_config):
        config = load_config(fast_config)
        assert config.de.population_size == 20
        assert config.de.max_iterations == 30
        assert config.ts_iterations == 100
        assert config.runs == 2

    def test_overrides_beat_file(self, fast_config):
        config = load_config(fast_config, runs=7, variant="degl")
        assert config.runs == 7
        assert config.de.variant == "degl"

    def test_none_overrides_ignored(self, fast_config):
        assert load_config(fast_config, runs=None).runs == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"populaton_size": 20}')
        with pytest.raises(ValueError, match="populaton_size"):
            load_config(str(path))

    @pytest.mark.parametrize("command", ["solve", "experiment"])
    def test_config_variant_not_overridden_by_flag_default(
        self, command, tmp_path, monkeypatch
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**FAST, "runs": 1, "variant": "degl"}))
        variants = []

        def spy(problem, config, rng):
            variants.append(config.de.variant)
            return original(problem, config, rng)

        original = pipeline.solve
        monkeypatch.setattr(pipeline, "solve", spy)
        out = tmp_path / "out.csv"
        argv = [command, "--problem", "p3", "--config", str(path), "--out", str(out)]
        assert main(argv + (["--workers", "1"] if command == "experiment" else [])) == 0
        assert variants == ["degl"]

    def test_int_accepted_for_float_field(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"crossover_rate": 1, "scale_factor": 0.5}')
        config = load_config(str(path))
        assert (config.de.crossover_rate, config.de.scale_factor) == (1, 0.5)


class TestUsageErrors:
    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_problem_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--problem", "p9"])
        assert err.value.code == 2

    def test_unknown_variant_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["experiment", "--problem", "p1", "--variant", "pso"])
        assert err.value.code == 2

    def test_bad_config_key_exits_1(self, tmp_path, capsys):
        # an unknown key, and the keys of two options that no longer exist
        path = tmp_path / "bad.json"
        for text, key in [('{"nope": 1}', "nope"),
                          ('{"literal_diversification": false}', "literal_diversification"),
                          ('{"canonical_best": true}', "canonical_best")]:
            path.write_text(text)
            code = main(["solve", "--problem", "p3", "--config", str(path)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("command", ["solve", "experiment"])
    def test_negative_seed_exits_2_naming_the_flag(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--problem", "p3", "--seed", "-1"])
        assert err.value.code == 2
        assert "argument --seed: expected a non-negative integer" in capsys.readouterr().err

    def test_canonical_best_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--problem", "p3", "--canonical-best"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"population_size": "40"}',
            '{"ts_iterations": 1.5, "runs": 1}',
            '[{"runs": 1}]',
            '{"runs": true}',
            '{"crossover_rate": "0.9"}',
            '{"oracle_anchors": 1}',
            '{"alternations": null}',
        ],
    )
    def test_mistyped_config_exits_1(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["solve", "--problem", "p3", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "text, name",
        [('{"scale_factor": NaN}', "scale_factor"), ('{"alpha": Infinity}', "alpha"),
         ('{"beta": -Infinity}', "beta")],
    )
    def test_non_finite_de_weight_exits_1(self, tmp_path, capsys, text, name):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["solve", "--problem", "p1", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    def test_missing_config_file_exits_1(self, capsys):
        assert main(["solve", "--problem", "p3", "--config", "/no/such.json"]) == 1

    def test_zero_workers_exits_1(self, capsys):
        assert main(["experiment", "--problem", "p1", "--workers", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "workers" in err


class TestSolve:
    def test_csv_output(self, fast_config, tmp_path, capsys):
        out = tmp_path / "solutions.csv"
        code = main(
            ["solve", "--problem", "p3", "--seed", "3",
             "--config", fast_config, "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["solution", "objectives"]
        assert any(row[0] == "(9,5)" for row in rows[1:])

    def test_json_output_original_sense(self, fast_config, tmp_path):
        out = tmp_path / "solutions.json"
        assert (
            main(
                ["solve", "--problem", "p3", "--seed", "3", "--format", "json",
                 "--config", fast_config, "--out", str(out)]
            )
            == 0
        )
        data = json.loads(out.read_text())
        assert data["problem"] == "p3"
        by_solution = {tuple(row["solution"]): row["objectives"] for row in data["solutions"]}
        # both objectives are maximized, so the emitted values equal the point
        assert by_solution[(9, 5)] == [9.0, 5.0]

    def test_json_output_carries_the_anchors(self, fast_config, tmp_path):
        out = tmp_path / "solutions.json"
        argv = ["solve", "--problem", "p3", "--seed", "3", "--format", "json",
                "--config", fast_config, "--out", str(out)]
        assert main(argv) == 0
        anchors = json.loads(out.read_text())["anchors"]
        assert set(anchors) == {f.name for f in dataclasses.fields(CompromiseAnchors)} | {
            "active", "dropped"}
        # p3 augmented is (-f1, -f2, G); G's ideal and anti-ideal are 0 once a
        # feasible point is found, so its column is the one dropped
        assert anchors["active"] == [0, 1]
        assert anchors["dropped"] == [2]
        assert anchors["f_star"][2] == anchors["f_minus"][2] == 0.0
        assert anchors["d_pis_star"] <= anchors["d_pis_prime"]
        assert len(anchors["x_p"]) == len(anchors["x_n"]) == 2


class TestExperiment:
    def test_json_report(self, fast_config, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["experiment", "--problem", "p3", "--variant", "degl", "--seed", "5",
             "--format", "json", "--config", fast_config, "--out", str(out),
             "--workers", "1"]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema_version"] == 1
        assert data["runs"] == 2
        assert data["variant"] == "degl"
        assert data["counts"]

    def test_csv_byte_identical_across_invocations(self, fast_config, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main(
                ["experiment", "--problem", "p3", "--seed", "11",
                 "--config", fast_config, "--out", str(out), "--workers", "1"]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].startswith(b"solution,count,rate_percent,variant,problem\n")


class TestCsvOutput:
    @pytest.mark.parametrize("command", ["solve", "experiment", "verify", "rank"])
    def test_rows_as_wide_as_the_header(self, command, fast_config, tmp_path):
        matrix = tmp_path / "matrix.csv"
        matrix.write_text("5,5\n1,1\n3,3\n")
        argv = {
            "solve": ["solve", "--problem", "p3", "--config", fast_config],
            "experiment": ["experiment", "--problem", "p3", "--config", fast_config,
                           "--workers", "1"],
            "verify": ["verify", "--problem", "p2"],
            "rank": ["rank", str(matrix)],
        }[command]
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        header, *rows = csv.reader(out.read_text().splitlines())
        assert rows and all(len(row) == len(header) for row in rows)
        if header[0] == "solution":
            assert all(re.fullmatch(r"\(\d+,\d+\)", row[0]) for row in rows)

    def test_unknown_format_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["experiment", "--problem", "p3", "--format", "xml"])
        assert err.value.code == 2


class TestJsonOutput:
    @pytest.mark.parametrize("command", ["solve", "experiment", "verify"])
    def test_parses_and_reports_carry_their_schema(self, command, fast_config, tmp_path):
        argv = {
            "solve": ["solve", "--problem", "p3", "--config", fast_config],
            "experiment": ["experiment", "--problem", "p3", "--config", fast_config,
                           "--workers", "1"],
            "verify": ["verify", "--problem", "p2"],
        }[command]
        out = tmp_path / "out.json"
        assert main(argv + ["--format", "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["problem"] == argv[2]
        if command != "solve":
            assert data["schema_version"] == harness.SCHEMA_VERSION


class TestVerify:
    def test_csv_flags_infeasible_target(self, tmp_path):
        out = tmp_path / "verify.csv"
        assert main(["verify", "--problem", "p3", "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["solution", "feasible", "pareto", "dominated_by"]
        assert ["(5,7)", "False", "False", ""] in rows
        assert ["(9,5)", "True", "True", ""] in rows

    def test_json_dominators_named(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--problem", "p2", "--format", "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        checks = {tuple(c["solution"]): c for c in data["checks"]}
        assert checks[(10, 1)]["pareto"] is False
        assert [8, 3] in checks[(10, 1)]["dominated_by"]


class TestModuleEntryPoint:
    def test_python_m_moits_runs_the_cli(self):
        # the directory holding the package, as a source checkout's src/ is
        paths = [str(Path(moits.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        done = subprocess.run(
            [sys.executable, "-m", "moits", "verify", "--problem", "p1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        header, *rows = csv.reader(done.stdout.splitlines())
        assert header == ["solution", "feasible", "pareto", "dominated_by"]
        assert rows


class TestRank:
    def write_matrix(self, tmp_path, text):
        path = tmp_path / "matrix.csv"
        path.write_text(text)
        return str(path)

    def read_ranks(self, out):
        lines = out.read_text().splitlines()
        assert lines[0] == "alternative,closeness,rank"
        return {int(r.split(",")[0]): int(r.split(",")[2]) for r in lines[1:]}

    def test_headerless_all_cost(self, tmp_path):
        matrix = self.write_matrix(tmp_path, "5,5\n1,1\n3,3\n")
        out = tmp_path / "rank.csv"
        assert main(["rank", matrix, "--out", str(out)]) == 0
        ranks = self.read_ranks(out)
        assert ranks[1] == 0 and ranks[0] == 2

    def test_header_senses(self, tmp_path):
        matrix = self.write_matrix(tmp_path, "price:cost,quality:benefit\n10,9\n10,2\n")
        out = tmp_path / "rank.csv"
        assert main(["rank", matrix, "--out", str(out)]) == 0
        assert self.read_ranks(out)[0] == 0

    def test_senses_flag_overrides(self, tmp_path):
        matrix = self.write_matrix(tmp_path, "1,5\n5,1\n")
        out = tmp_path / "rank.csv"
        assert main(["rank", matrix, "--senses", "benefit,benefit",
                     "--weights", "1.0,0.0", "--out", str(out)]) == 0
        assert self.read_ranks(out)[1] == 0

    def test_closeness_column_is_the_plain_float(self, tmp_path):
        matrix = self.write_matrix(tmp_path, "5,5\n1,1\n3,3\n")
        out = tmp_path / "rank.csv"
        assert main(["rank", matrix, "--out", str(out)]) == 0
        expected = topsis.rank(topsis.DecisionMatrix(
            np.array([[5.0, 5.0], [1.0, 1.0], [3.0, 3.0]]), (topsis.COST,) * 2, np.full(2, 0.5)))
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(row[1]) for row in rows] == expected.closeness.tolist()

    @pytest.mark.parametrize("text, message", [
        ("", "is empty"),
        ("\n\n", "is empty"),
        ("price:cost,quality:benefit\n", "has a header but no rows"),
    ])
    def test_matrix_without_rows_exits_1(self, tmp_path, capsys, text, message):
        matrix = self.write_matrix(tmp_path, text)
        assert main(["rank", matrix]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("text, flags", [
        ("1,nan\n3,4\n", []),
        ("1,2\ninf,4\n", []),
        ("1,2\n3,4\n", ["--weights", "nan,nan"]),
    ])
    def test_non_finite_input_exits_1(self, tmp_path, capsys, text, flags):
        matrix = self.write_matrix(tmp_path, text)
        assert main(["rank", matrix, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err

    def test_ragged_matrix_exits_1(self, tmp_path, capsys):
        matrix = self.write_matrix(tmp_path, "1,2\n3\n")
        assert main(["rank", matrix]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "row 2" in err and "1 cells, row 1 has 2" in err

    def test_bad_weights_exit_1(self, tmp_path, capsys):
        matrix = self.write_matrix(tmp_path, "1,2\n3,4\n")
        assert main(["rank", matrix, "--weights", "0.9,0.9"]) == 1

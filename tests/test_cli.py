import json
import math
import os
import subprocess
import sys

import pytest

from radstein.cli import main

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out.read_text(encoding="utf-8")


def run_subprocess(args, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra_env or {})
    proc = subprocess.run(
        [sys.executable, "-m", "radstein", *args],
        capture_output=True,
        env=env,
    )
    return proc.returncode, proc.stdout


@pytest.fixture
def bernoulli_spec(tmp_path):
    spec = {
        "model": {"p": [0.1] * 10},
        "functional": {"bernoulli": {}},
        "lambda": "mean",
        "bounds": ["bernoulli", "main", "main_reduced", "second_order", "wasserstein"],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


class TestVerify:
    def test_passes_with_default_seed(self, tmp_path):
        code, text = run_cli(["verify"], tmp_path, "verify.json")
        assert code == 0
        report = json.loads(text)
        assert report["seed"] == 0
        assert report["passed"] is True
        names = [row["name"] for row in report["rows"]]
        assert names == [
            "structure_identity",
            "product_formula",
            "isometry",
            "adjointness",
            "l_equals_minus_delta_d",
            "integration_by_parts",
            "chenstein_equation",
            "stein_factors",
            "mehler_inequality",
            "poincare_inequality",
        ]
        assert all(row["max_residual"] < 1e-10 for row in report["rows"])

    def test_corruption_exits_three_and_names_the_check(self, tmp_path, capsys):
        code, text = run_cli(
            ["verify", "--seed", "0", "--inject-fault", "product_formula"],
            tmp_path,
            "corrupt.json",
        )
        assert code == 3
        report = json.loads(text)
        failing = [row for row in report["rows"] if not row["passed"]]
        assert [row["name"] for row in failing] == ["product_formula"]
        assert failing[0]["witness"] is not None
        assert "product_formula" in capsys.readouterr().err


class TestBound:
    def test_bernoulli_spec_rows(self, bernoulli_spec, tmp_path):
        code, text = run_cli(
            ["bound", str(bernoulli_spec)], tmp_path, "bound.json"
        )
        assert code == 0
        report = json.loads(text)
        rows = {row["method"]: row for row in report["rows"]}
        closed = rows["bernoulli"]
        assert closed["total"] == pytest.approx(
            (1 - math.exp(-closed["lambda"])) / closed["lambda"] * (0.1 + 0.18),
            rel=1e-10,
        )
        for row in report["rows"]:
            assert row["dominates"] is True
            assert row["exact"] <= row["total"]
        assert rows["wasserstein"]["exact_kind"] == "w1"

    def test_json_report_round_trips_bit_for_bit(self, bernoulli_spec, tmp_path):
        code, text = run_cli(["bound", str(bernoulli_spec)], tmp_path, "a.json")
        assert code == 0
        parsed = json.loads(text)
        assert json.dumps(parsed, indent=2) + "\n" == text
        # floats survive a parse/serialize cycle unchanged
        again = json.loads(json.dumps(parsed))
        assert again == parsed

    def test_j2_example_row(self, tmp_path):
        spec = tmp_path / "j2.json"
        spec.write_text(
            json.dumps({"functional": {"j2_example": {"n": 2}}}), encoding="utf-8"
        )
        code, text = run_cli(["bound", str(spec)], tmp_path, "j2.json.out")
        report = json.loads(text)
        row = report["rows"][0]
        assert row["lambda"] == pytest.approx(1.0 / 16.0, rel=1e-15)
        assert row["total"] == pytest.approx(3.0 / 16.0, rel=1e-13)
        # the example's law misses the nonnegative integers entirely, so the
        # honest exact column is 1 and the domination flag trips
        assert row["exact"] == pytest.approx(1.0, abs=1e-12)
        assert row["dominates"] is False
        assert code == 4

    def test_non_integer_functional_is_surfaced(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(
            json.dumps(
                {
                    "model": {"p": [0.3, 0.4]},
                    "functional": {
                        "chaos": {"mean": 0.0, "kernels": [[[1, 2], 0.25]]}
                    },
                    "lambda": 1.0,
                    "bounds": ["main"],
                }
            ),
            encoding="utf-8",
        )
        code = main(["bound", str(spec), "--out", str(tmp_path / "x")])
        assert code == 2

    def test_spec_parse_error_reports_location(self, tmp_path, capsys):
        spec = tmp_path / "bad2.json"
        spec.write_text(
            json.dumps(
                {
                    "model": {"p": [0.3]},
                    "functional": {"chaos": {"kernels": [[[2, 1], 0.5]]}},
                }
            ),
            encoding="utf-8",
        )
        code = main(["bound", str(spec), "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.count("$.functional.chaos.kernels") == 1

    @pytest.mark.parametrize(
        "field,location",
        [
            ({"seed": "abc"}, "$.seed"),
            ({"seed": -1}, "$.seed"),
            ({"functional": {"chaos": {"mean": "x"}}}, "$.functional.chaos.mean"),
            ({"mc_samples": 1.5}, "$.mc_samples"),
            ({"mc_samples": "many"}, "$.mc_samples"),
            ({"model": {"p": "0.1"}}, "$.model.p"),
            ({"model": {"p": [0.5, "0.5"]}}, "$.model.p"),
            ({"bounds": 5}, "$.bounds"),
            ({"lambda": True}, "$.lambda"),
            (
                {
                    "functional": {
                        "chaos": {
                            "mean": 1e308,
                            "kernels": [[[1], 1e308], [[1, 2], 1e308]],
                        }
                    },
                    "bounds": ["main"],
                },
                "$.functional.chaos",
            ),
        ],
    )
    def test_malformed_field_exits_two_at_its_location(
        self, field, location, tmp_path, capsys
    ):
        doc = {
            "model": {"p": [0.5, 0.5]},
            "functional": {"chaos": {"mean": 1.0, "kernels": [[[1], 0.5]]}},
            **field,
        }
        spec = tmp_path / "malformed.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["bound", str(spec), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"spec error at {location}: ")
        assert err.count(location) == 1

    def test_shrink_total_negative_control(self, bernoulli_spec, tmp_path):
        code, text = run_cli(
            ["bound", str(bernoulli_spec), "--inject-fault", "shrink-total"],
            tmp_path,
            "shrunk.json",
        )
        assert code == 4
        report = json.loads(text)
        assert any(row["dominates"] is False for row in report["rows"])

    def test_monte_carlo_path_beyond_enumeration_cap(self, tmp_path):
        spec = tmp_path / "big.json"
        spec.write_text(
            json.dumps(
                {
                    "model": {"p": [0.02] * 30},
                    "functional": {"bernoulli": {}},
                    "lambda": "mean",
                    "bounds": ["bernoulli", "j1"],
                    "seed": 9,
                    "mc_samples": 20000,
                }
            ),
            encoding="utf-8",
        )
        code, text = run_cli(["bound", str(spec)], tmp_path, "big.out")
        assert code == 0
        report = json.loads(text)
        for row in report["rows"]:
            assert row["dominates"] is True
            assert 0.0 <= row["exact"] <= 1.0

    def test_enumeration_method_rejected_beyond_cap(self, tmp_path):
        spec = tmp_path / "toolarge.json"
        spec.write_text(
            json.dumps(
                {
                    "model": {"p": [0.02] * 30},
                    "functional": {"bernoulli": {}},
                    "bounds": ["main"],
                }
            ),
            encoding="utf-8",
        )
        assert main(["bound", str(spec), "--out", str(tmp_path / "x")]) == 2

    def test_rows_follow_requested_order(self, tmp_path):
        def rows_for(methods, name):
            spec = tmp_path / f"{name}.json"
            spec.write_text(
                json.dumps(
                    {
                        "model": {"p": [0.1, 0.2, 0.3, 0.15, 0.25]},
                        "functional": {"bernoulli": {}},
                        "lambda": 0.9,
                        "bounds": methods,
                    }
                ),
                encoding="utf-8",
            )
            code, text = run_cli(["bound", str(spec)], tmp_path, f"{name}.out")
            assert code == 0
            return json.loads(text)["rows"]

        requested = ["wasserstein", "second_order", "main", "wasserstein", "main_reduced"]
        rows = rows_for(requested, "all")
        assert [row["method"] for row in rows] == requested
        for i, row in enumerate(rows):
            assert rows_for([row["method"]], f"one{i}") == [row]

    def test_csv_format_from_spec_document(self, tmp_path):
        spec = tmp_path / "csv_spec.json"
        spec.write_text(
            json.dumps(
                {
                    "model": {"p": [0.2, 0.2]},
                    "functional": {"bernoulli": {}},
                    "lambda": "mean",
                    "bounds": ["bernoulli"],
                    "format": "csv",
                }
            ),
            encoding="utf-8",
        )
        code, text = run_cli(["bound", str(spec)], tmp_path, "rows.csv")
        assert code == 0
        lines = text.splitlines()
        assert lines[0].startswith("method,lambda,")
        assert len(lines) == 2
        # repr round trip: the serialized total parses back to the same float
        total = lines[1].split(",")[5]
        assert repr(float(total)) == total


    HUGE_KERNELS = [[[1, 2], 1e200], [[2, 3], 1e200]]

    def test_huge_monte_carlo_sample_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "model": {"p": [0.3] * 30},
                    "functional": {"chaos": {"mean": 1e202, "kernels": self.HUGE_KERNELS}},
                    "bounds": ["jm"],
                    "mc_samples": 10000,
                    "lambda": 2.0,
                }
            ),
            encoding="utf-8",
        )
        assert main(["bound", str(spec), "--out", str(tmp_path / "rows.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("NonIntegerValue: sampled value ")
        assert "below 2^53" in err

    def test_overflowing_spec_prints_one_stderr_line(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "model": {"p": [0.3] * 6},
                    "functional": {"chaos": {"kernels": self.HUGE_KERNELS}},
                    "bounds": ["jm"],
                }
            ),
            encoding="utf-8",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "radstein", "bound", str(spec)],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 2
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("NonIntegerValue: ")

    @pytest.mark.parametrize(
        "mean,kernels,method",
        [
            (1e202, HUGE_KERNELS, "main"),
            (1e202, HUGE_KERNELS, "second_order"),
            (1e17, [[[1, 2], 1e15], [[2, 3], 1e15]], "main"),
        ],
    )
    def test_values_beyond_2_53_exit_two(self, tmp_path, mean, kernels, method):
        # Every value here is a float integer, but none can be counted into a
        # pmf: the law step rejects the first one instead of wrapping it
        # negative in int64 or sizing a Poisson array by it.
        spec = tmp_path / "spec.json"
        doc = {"model": {"p": [0.3] * 6}, "bounds": [method]}
        doc["functional"] = {"chaos": {"mean": mean, "kernels": kernels}}
        spec.write_text(json.dumps(doc), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "radstein", "bound", str(spec)],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 2
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("NonIntegerValue: value ")
        assert lines[0].endswith(" at outcome 0 is not an integer below 2^53")

    @pytest.mark.parametrize(
        "p,kernels,mc_samples",
        [
            ([0.3] * 6, [[[1, 2], 1e200], [[2, 3], 1e200]], None),
            ([0.5] * 4, [[[1, 2], 0.3]], None),
            ([0.3] * 30, [[[1, 2], 0.3]], 10000),
            ([0.3] * 30, [[[1, 2], -3.0], [[2, 3], 1.0]], 10000),
        ],
    )
    def test_value_errors_print_python_floats(self, tmp_path, capsys, p, kernels, mc_samples):
        spec = tmp_path / "spec.json"
        doc = {"model": {"p": p}, "functional": {"chaos": {"kernels": kernels}}}
        doc.update({"bounds": ["jm"], "lambda": 1.0, "mc_samples": mc_samples})
        spec.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["bound", str(spec), "--out", str(tmp_path / "rows.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("NonIntegerValue: ")
        assert "np.float64(" not in err


class TestJ2Rate:
    def test_rows_and_rate_column(self, tmp_path):
        code, text = run_cli(
            ["j2-rate", "--n-min", "13", "--n-max", "16"], tmp_path, "rate.json"
        )
        assert code == 0
        report = json.loads(text)
        assert [row["n"] for row in report["rows"]] == [13, 14, 15, 16]
        for row in report["rows"]:
            assert row["rate"] <= report["rate_constant"]
            assert row["exact_tv"] is None

    def test_small_n_reports_domination_violation(self, tmp_path):
        code, text = run_cli(
            ["j2-rate", "--n-min", "2", "--n-max", "3"], tmp_path, "rate2.json"
        )
        assert code == 4
        report = json.loads(text)
        for row in report["rows"]:
            assert row["exact_tv"] == pytest.approx(1.0, abs=1e-12)
            assert row["dominates"] is False

    def test_validation(self, tmp_path):
        assert main(["j2-rate", "--n-min", "1", "--n-max", "3"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["j2-rate", "--n-min", "2", "--n-max", "3", "--seed", "1"],
            ["j2-rate", "--n-min", "2", "--n-max", "3", "--mc-samples", "20000"],
            ["verify", "--mc-samples", "20000"],
        ],
    )
    def test_flags_the_command_would_ignore_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestValidationPaths:
    def test_unknown_fault_tag_rejected(self):
        assert main(["verify", "--inject-fault", "nonsense"]) == 2

    def test_missing_spec_file(self, capsys):
        assert main(["bound", "/nonexistent/spec.json"]) == 2
        assert "cannot read spec" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["bound", str(bad)]) == 2

    def test_monte_carlo_bound_reports_are_reproducible(self, tmp_path):
        spec = tmp_path / "mc.json"
        spec.write_text(
            json.dumps(
                {
                    "model": {"p": [0.03] * 28},
                    "functional": {"bernoulli": {}},
                    "bounds": ["bernoulli"],
                    "seed": 4,
                    "mc_samples": 15000,
                }
            ),
            encoding="utf-8",
        )
        texts = []
        for name in ("mc1.json", "mc2.json"):
            code, text = run_cli(["bound", str(spec)], tmp_path, name)
            assert code == 0
            texts.append(text)
        assert texts[0] == texts[1]


class TestBernoulliCommand:
    def test_row_and_domination(self, tmp_path):
        code, text = run_cli(
            ["bernoulli", "--p"] + ["0.1"] * 10 + ["--lambda", "1.0"],
            tmp_path,
            "bern.json",
        )
        assert code == 0
        row = json.loads(text)["rows"][0]
        assert row["total"] == pytest.approx(0.17699375647199617, rel=1e-10)
        assert row["dominates"] is True

    def test_bad_probability(self):
        assert main(["bernoulli", "--p", "1.5"]) == 2

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_key_range_exits_two(self, seed, capsys):
        argv = ["bernoulli", "--p", *["0.1"] * 25, "--mc-samples", "20000"]
        assert main([*argv, "--seed", str(seed)]) == 2
        assert "--seed must be an integer in [0, 2^128)" in capsys.readouterr().err

    def test_parser_reuse_keeps_the_default_seed(self, capsys):
        argv = ["bernoulli", "--p", *["0.1"] * 25, "--mc-samples", "10000"]
        assert main([*argv, "--seed", "5"]) == 0
        seeded = capsys.readouterr().out
        assert main(argv) == 0
        unseeded = capsys.readouterr().out
        code, fresh = run_subprocess(argv)
        assert code == 0
        assert unseeded.encode() == fresh
        assert seeded != unseeded


class TestReproducibility:
    def test_verify_byte_identical_across_runs_and_threads(self):
        runs = [
            run_subprocess(["verify", "--seed", "3"], {"OMP_NUM_THREADS": t})
            for t in ("1", "4", "1")
        ]
        assert all(code == 0 for code, _ in runs)
        assert runs[0][1] == runs[1][1] == runs[2][1]
        assert len(runs[0][1]) > 0

    def test_j2_rate_byte_identical(self):
        runs = [
            run_subprocess(
                ["j2-rate", "--n-min", "2", "--n-max", "8", "--format", "csv"],
                {"OMP_NUM_THREADS": t},
            )
            for t in ("1", "2")
        ]
        assert runs[0][0] == runs[1][0] == 4
        assert runs[0][1] == runs[1][1]
        assert len(runs[0][1]) > 0

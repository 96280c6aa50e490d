import csv
import io
import json
import math
import os
import subprocess
import sys
import types

import pytest

from radstein.cli import main
from radstein.kernels import Kernel
from radstein.model import build_model

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")


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


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture
def table_builds(monkeypatch):
    """Patch ``to_table`` and ``bernoulli_sum_table`` at every module that
    binds them.  The returned record lists the model size of each call;
    setting ``forbid`` makes a call raise."""
    import radstein.bounds
    import radstein.chaos

    record = types.SimpleNamespace(sizes=[], forbid=False)

    def patch(original):
        def patched(model, *args, **kwargs):
            record.sizes.append(model.size)
            if record.forbid:
                raise AssertionError("table built before the spec was validated")
            return original(model, *args, **kwargs)

        return patched

    for original in (radstein.chaos.to_table, radstein.bounds.bernoulli_sum_table):
        patched = patch(original)
        for name, module in list(sys.modules.items()):
            if module is not None and name.split(".")[0] == "radstein":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, patched)
    return record


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

    def test_rate_above_the_constant_exits_three(self, monkeypatch, capsys):
        import radstein.bounds

        monkeypatch.setattr(radstein.bounds, "J2_RATE_CONSTANT", 0.1)
        assert main(["j2-rate", "--n-min", "2", "--n-max", "3"]) == 3
        assert capsys.readouterr().err == "rate constant violated\n"

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", None],
            ["j2-rate", "--n-min", "13", "--n-max", "14"],
            ["bernoulli", "--p", "0.1", "0.2"],
        ],
    )
    def test_unknown_fault_tag_rejected_by_every_command(
        self, argv, bernoulli_spec, capsys
    ):
        argv = [str(bernoulli_spec) if a is None else a for a in argv]
        assert main([*argv, "--inject-fault", "nonsense"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "unknown fault tag 'nonsense'\n"

    def test_missing_spec_file(self, capsys):
        assert main(["bound", "/nonexistent/spec.json"]) == 2
        assert "cannot read spec" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["bound", str(bad)]) == 2

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b'{"seed": ' + b"1" * 5000 + b"}"]
    )
    def test_undecodable_spec_exits_two(self, tmp_path, capsys, content):
        # Bytes that are not UTF-8, and an integer past Python's digit limit.
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["bound", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("spec is not valid JSON: ")

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
        assert capsys.readouterr().err == (
            f"spec error at $.seed: seed must be an integer in [0, 2^128), got {seed}\n"
        )

    @pytest.mark.parametrize(
        "flags, line",
        [
            (["--lambda", "nan"], "spec error at $.lambda: lambda must be a number, "),
            (["--lambda", "inf"], "spec error at $.lambda: lambda must be a number, "),
            (["--seed", "-1"], "spec error at $.seed: seed must be an integer "),
            (["1.5"], "spec error at $.model.p: all probabilities must lie "),
        ],
    )
    def test_bad_flag_exits_two_before_any_table(self, flags, line, table_builds, capsys):
        table_builds.forbid = True
        assert main(["bernoulli", "--p", *["0.2"] * 22, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(line)
        assert captured.err.count("\n") == 1

    def test_mean_is_the_correctly_rounded_sum_of_p(self, tmp_path):
        # Beyond the enumeration cap and without Monte Carlo: no exact distance.
        code, text = run_cli(["bernoulli", "--p", *["0.05"] * 30], tmp_path, "x")
        assert code == 0
        assert sum([0.05] * 30) != 1.5 == math.fsum([0.05] * 30)  # the case bites
        row = json.loads(text)["rows"][0]
        assert row["lambda"] == 1.5
        assert row["term_mean_shift"] == 0.0
        assert row["exact"] is None and row["dominates"] is None

    def test_csv_leaves_a_missing_distance_empty(self, tmp_path):
        argv = ["bernoulli", "--p", *["0.05"] * 30, "--format", "csv"]
        code, text = run_cli(argv, tmp_path, "x.csv")
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(text))
        assert row["exact_kind"] == "tv"
        assert row["exact"] == "" and row["dominates"] == ""

    @pytest.mark.parametrize(
        "p",
        [
            ["0.3458302861451052", "0.48333638608922824", "0.047233024913748506",
             "0.07957203516592601"],
            [repr(0.03 + 0.007 * k) for k in range(30)],
        ],
        ids=["n4", "n30"],
    )
    @pytest.mark.parametrize(
        "policy, term", [("mean", "term_mean_shift"), ("variance", "term_variance_like")]
    )
    def test_lambda_policies_are_the_sums_of_p_and_pq(self, p, policy, term, tmp_path):
        # Over the table (N = 4) E F and Var F are one ulp off these sums,
        # and so is the sum of sigma_k^2 beyond the cap (N = 30).
        code, text = run_cli(["bernoulli", "--p", *p, "--lambda", policy], tmp_path, "x")
        assert code == 0
        model = build_model([float(x) for x in p])
        sums = {"mean": model.p, "variance": model.p * model.q}
        row = json.loads(text)["rows"][0]
        assert row["lambda"] == math.fsum(sums[policy])
        assert row[term] == 0.0

    def test_sampled_sum_is_the_count_of_plus_ones(self, tmp_path):
        # Beyond the cap the sampled Bernoulli sum never evaluates a chaos
        # expansion, and its report is the golden one.
        from unittest import mock

        from radstein import chaos, cli

        p = [repr(0.02 + 0.005 * k) for k in range(30)]
        argv = ["bernoulli", "--p", *p, "--mc-samples", "20000", "--seed", "5"]
        fail = mock.Mock(side_effect=AssertionError("evaluated the expansion"))
        with mock.patch.object(cli, "evaluate_on_signs", fail), mock.patch.object(
            chaos, "evaluate_on_signs", fail
        ):
            code, text = run_cli(argv, tmp_path, "x")
        assert code == 0
        golden = os.path.join(GOLDEN, "bernoulli_n30_mc.out")
        with open(golden, encoding="utf-8") as handle:
            assert text == handle.read()

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

    def test_monte_carlo_byte_identical_across_threads_and_cpus(self):
        args = [
            "bernoulli",
            "--p",
            *(repr(0.02 + 0.005 * k) for k in range(30)),
            "--mc-samples",
            "20000",
            "--seed",
            "5",
        ]
        runs = [run_subprocess(args, {"OMP_NUM_THREADS": t}) for t in ("1", "4")]
        # One CPU before radstein is imported: one sampling thread.
        child = (
            "import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from radstein import cli, distance\n"
            "assert distance._MC_THREADS == 1\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        pinned = subprocess.run(
            [sys.executable, "-c", child, *args], capture_output=True, env=env
        )
        runs.append((pinned.returncode, pinned.stdout))
        assert pinned.stderr == b""
        assert [code for code, _ in runs] == [0, 0, 0]
        assert runs[0][1] == runs[1][1] == runs[2][1]
        assert b'"exact_kind": "tv"' in runs[0][1]



class TestValidationBeforeWork:
    def test_bad_format_exits_before_enumeration(self, tmp_path, table_builds, capsys):
        table_builds.forbid = True
        doc = {"model": {"p": [0.2] * 16}, "functional": {"bernoulli": {}}}
        spec = write_spec(tmp_path, {**doc, "bounds": ["second_order"], "format": "xml"})
        assert main(["bound", str(spec)]) == 2
        assert capsys.readouterr().err.startswith("spec error at $.format: ")

    def test_method_that_does_not_fit_exits_before_enumeration(
        self, tmp_path, table_builds, capsys
    ):
        table_builds.forbid = True
        doc = {"model": {"p": [0.2] * 20}, "functional": {"bernoulli": {}}}
        spec = write_spec(tmp_path, {**doc, "bounds": ["jm"]})
        assert main(["bound", str(spec)]) == 2
        assert capsys.readouterr().err == (
            "spec error at $.bounds: jm needs a single fixed order >= 2\n"
        )

    def test_bernoulli_on_a_chaos_literal_exits_before_enumeration(
        self, tmp_path, table_builds, capsys
    ):
        # F = 2 X_1 has EF = sum p, but the bernoulli bound is that of sum_k X_k.
        table_builds.forbid = True
        doc = {
            "model": {"p": [0.1] + [0.01] * 10},
            "functional": {"chaos": {"mean": 0.2, "kernels": [[[1], 0.6]]}},
            "bounds": ["bernoulli", "j1"],
        }
        assert main(["bound", str(write_spec(tmp_path, doc))]) == 2
        assert capsys.readouterr().err == (
            "spec error at $.bounds: bernoulli needs the bernoulli functional\n"
        )

    MODEL = {"p": [0.2] * 16}

    @pytest.mark.parametrize(
        "doc,line",
        [
            ([1], "$: spec document must be a JSON object"),
            (
                {"model": MODEL, "functional": {"poisson": {}}},
                "$.functional: unknown functional form 'poisson'",
            ),
            (
                {"model": MODEL, "functional": {"chaos": []}},
                "$.functional.chaos: chaos literal must be an object",
            ),
            (
                {"model": MODEL, "functional": {"chaos": {"kernels": {}}}},
                "$.functional.chaos.kernels: kernels must be a list of "
                "[tuple, coefficient]",
            ),
            (
                {"model": MODEL, "functional": {"chaos": {"kernels": [[[1], 0.5, 2]]}}},
                "$.functional.chaos.kernels[0]: expected a [tuple, coefficient] pair",
            ),
            (
                {"model": MODEL, "functional": {"chaos": {"kernels": [[[], 0.5]]}}},
                "$.functional.chaos.kernels[0]: index tuple must be a nonempty list",
            ),
            (
                {"functional": {"j2_example": {"n": 5}}, "bounds": ["main"]},
                "$.bounds: the j2_example functional supports only the j2_example "
                "method",
            ),
            (
                {
                    "model": MODEL,
                    "functional": {"chaos": {"kernels": [[[1, 2], 0.5]]}},
                    "bounds": ["j1"],
                },
                "$.bounds: j1 needs a pure order-1 functional",
            ),
            (
                {
                    "model": MODEL,
                    "functional": {"chaos": {"kernels": [[[1, 2, 3], 0.5]]}},
                    "bounds": ["j2"],
                },
                "$.bounds: j2 needs an order-2 kernel",
            ),
        ],
        ids=[
            "not-an-object", "unknown-form", "chaos-not-an-object", "kernels-not-a-list",
            "not-a-pair", "empty-tuple", "j2-example-method", "j1-order", "j2-order",
        ],
    )
    def test_spec_error_exits_two_with_one_line(
        self, tmp_path, table_builds, capsys, doc, line
    ):
        table_builds.forbid = True
        assert main(["bound", str(write_spec(tmp_path, doc))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"spec error at {line}\n"

    @pytest.mark.parametrize("method", ["j1", "j2", "jm"])
    def test_closed_form_row_builds_the_table_once(self, tmp_path, table_builds, method):
        # sum_k (X_k + 1)/2, and 1 + X_1 X_2 at p = 1/2: both integer-valued
        pair = {"chaos": {"mean": 1.0, "kernels": [[[1, 2], 0.5]]}}
        functional = {"bernoulli": {}} if method == "j1" else pair
        doc = {"model": {"p": [0.5] * 10}, "functional": functional, "bounds": [method]}
        code, _ = run_cli(["bound", str(write_spec(tmp_path, doc))], tmp_path, "x")
        assert code == 0
        assert table_builds.sizes == [10]


class TestRangeLimit:
    LIMIT_ERROR = "EnumerationCapExceeded: lambda = "

    @pytest.mark.parametrize(
        "doc",
        [
            {
                "model": {"p": [0.3, 0.3, 0.3]},
                "functional": {"bernoulli": {}},
                "bounds": ["main"],
                "lambda": 1e17,
            },
            {
                "model": {"p": [0.3, 0.3]},
                "functional": {"chaos": {"mean": 1e9, "kernels": []}},
                "bounds": ["main"],
            },
        ],
    )
    def test_bound_spec_exits_two_with_one_line(self, tmp_path, capsys, doc):
        assert main(["bound", str(write_spec(tmp_path, doc))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(self.LIMIT_ERROR)
        assert captured.err.endswith(" = 2^24 entries\n")
        assert captured.err.count("\n") == 1

    def test_bernoulli_command_exits_two_with_one_line(self, capsys):
        assert main(["bernoulli", "--p", "0.3", "0.3", "--lambda", "1e17"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(self.LIMIT_ERROR + "1e+17 and largest support value 2 ")
        assert err.count("\n") == 1


class TestOverflowingExample:
    def test_j2_example_spec_exits_two(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"functional": {"j2_example": {"n": 10**200}}})
        assert main(["bound", str(spec)]) == 2
        assert capsys.readouterr().err == (
            "spec error at $.functional: j2_example's closed forms overflow at this n\n"
        )

    def test_largest_evaluable_n_still_runs(self, tmp_path):
        spec = write_spec(tmp_path, {"functional": {"j2_example": {"n": 10**38}}})
        code, text = run_cli(["bound", str(spec)], tmp_path, "x")
        assert code == 0
        assert json.loads(text)["rows"][0]["exact"] is None

    def test_j2_rate_sweep_into_overflow_exits_two(self, capsys):
        argv = ["j2-rate", "--n-min", "2", "--n-max", str(10**400)]
        assert main([*argv, "--step", str(10**399)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("the closed forms overflow at n = 9000")


class TestSharedEvaluator:
    @pytest.mark.parametrize("lam", [0.9, "mean", "variance"])
    @pytest.mark.parametrize(
        "n,extra",
        [(10, []), (28, ["--mc-samples", "12000", "--seed", "6"]), (3, []), (30, [])],
    )
    def test_bernoulli_command_equals_bound_on_the_equivalent_spec(
        self, tmp_path, n, extra, lam
    ):
        p = [round(0.02 + 0.011 * k, 3) for k in range(n)]
        doc = {
            "model": {"p": p},
            "functional": {"bernoulli": {}},
            "bounds": ["bernoulli"],
            "lambda": lam,
        }
        spec = write_spec(tmp_path, doc)
        code, bound_text = run_cli(["bound", str(spec), *extra], tmp_path, "b")
        assert code == 0
        argv = ["bernoulli", "--p", *map(repr, p), "--lambda", str(lam), *extra]
        code, bern_text = run_cli(argv, tmp_path, "c")
        assert code == 0
        bound_rows = json.loads(bound_text)["rows"]
        assert bound_rows == json.loads(bern_text)["rows"]
        assert (bound_rows[0]["exact"] is None) == (n > 24 and not extra)


class TestReportWrite:
    def test_missing_out_directory_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["bernoulli", "--p", "0.1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        missing = str(tmp_path / "missing")
        assert captured.err == f"cannot write report: no directory {missing!r}\n"

    def test_missing_out_directory_exits_before_enumeration(
        self, tmp_path, table_builds, capsys
    ):
        table_builds.forbid = True
        doc = {"model": {"p": [0.2] * 16}, "functional": {"bernoulli": {}}}
        spec = write_spec(tmp_path, {**doc, "bounds": ["second_order"]})
        out = tmp_path / "missing" / "rows.json"
        assert main(["bound", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("cannot write report: ")

    def test_failed_write_exits_two_with_one_line(self, tmp_path, capsys):
        # The directory exists, but the path names a directory, not a file.
        assert main(["verify", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot write report: ")
        assert captured.err.count("\n") == 1


class TestWorkLimits:
    def test_monte_carlo_samples_over_the_limit_exit_two(self, capsys):
        argv = ["bernoulli", "--p", *["0.02"] * 30, "--mc-samples", str(10**12)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "TooManySamples: at most 100000000 samples allowed, got 1000000000000\n"
        )

    def test_bound_spec_shares_the_sample_limit(self, tmp_path, capsys):
        doc = {"model": {"p": [0.02] * 30}, "functional": {"bernoulli": {}}}
        spec = write_spec(tmp_path, {**doc, "mc_samples": 10**8 + 1})
        assert main(["bound", str(spec)]) == 2
        assert capsys.readouterr().err.startswith("TooManySamples: at most 100000000 ")

    def test_sweep_over_the_row_limit_exits_two(self, capsys):
        assert main(["j2-rate", "--n-min", "2", "--n-max", str(10**12)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "the sweep has 999999999999 rows, over the limit of 100000\n"
        )

    def test_row_limit_counts_the_rows_of_a_strided_sweep(self, monkeypatch, capsys):
        import radstein.cli

        monkeypatch.setattr(radstein.cli, "MAX_SWEEP_ROWS", 3)
        argv = ["j2-rate", "--n-min", "13", "--step", "2"]
        assert main([*argv, "--n-max", "18"]) == 0  # n = 13, 15, 17
        capsys.readouterr()
        assert main([*argv, "--n-max", "19"]) == 2  # n = 13, 15, 17, 19
        assert capsys.readouterr().err == "the sweep has 4 rows, over the limit of 3\n"


class TestDuplicateEntries:
    # Coordinate 1's coefficient sqrt(p q) is split into three parts that a
    # left-to-right sum rounds one way and a right-to-left sum another.
    P = [0.3, 0.4, 0.2]

    def doc(self, parts):
        sigma = [math.sqrt(p * (1.0 - p)) for p in self.P]
        kernels = [[[1], c] for c in parts] + [[[2], sigma[1]], [[3], sigma[2]]]
        return {
            "model": {"p": self.P},
            "functional": {"chaos": {"mean": sum(self.P), "kernels": kernels}},
            "bounds": ["j1", "main"],
            "lambda": "variance",
        }

    def test_reversed_duplicates_give_identical_output(self, tmp_path):
        s1 = math.sqrt(self.P[0] * (1.0 - self.P[0]))
        parts = [s1 - 0.2 - 0.1, 0.2, 0.1]
        assert (parts[0] + parts[1]) + parts[2] != (parts[2] + parts[1]) + parts[0]
        texts = []
        for i, ordered in enumerate((parts, parts[::-1])):
            spec = write_spec(tmp_path, self.doc(ordered), f"spec{i}.json")
            code, text = run_cli(["bound", str(spec)], tmp_path, f"out{i}.json")
            assert code == 0
            texts.append(text)
        assert texts[0] == texts[1]

    def test_kernel_merges_duplicates_by_their_exact_sum(self):
        pairs = [((1,), 0.1), ((1,), 0.2), ((1,), 0.3)]
        for ordered in (pairs, pairs[::-1]):
            assert Kernel.from_pairs(1, ordered).entries == {(1,): 0.6}

    def test_duplicates_summing_beyond_the_float_range_exit_two(
        self, tmp_path, capsys
    ):
        doc = self.doc([1e308, 1e308])
        code = main(["bound", str(write_spec(tmp_path, doc))])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("spec error at $.functional.chaos.kernels: ")

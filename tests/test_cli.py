import json

import numpy as np
import pytest

from sworgrad import bench, cli, oracle


def _run(argv):
    return cli.run(argv)


# (estimator, k, message) of the toy configs that must exit 1.
SIZE_ERRORS = [
    ("unordered-set-pg-bl", 1, "the built-in baseline needs at least two samples"),
    ("iw-pg", 9, "k=9 outside [1, 8]"),
]


class TestProbset:
    def test_running_example(self, capsys):
        rc = _run(["probset", "--dist", "[0.5,0.3,0.2]", "--set", "0,1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(report["p_set"], 18.0 / 35.0, atol=1e-10)
        np.testing.assert_allclose(report["ratios"], [7.0 / 6.0, 25.0 / 18.0], rtol=1e-10)
        assert report["schema_version"] == 1

    def test_second_order_and_backend_override(self, capsys):
        rc = _run(
            ["probset", "--dist", "[0.5,0.3,0.2]", "--set", "0,1",
             "--order", "2", "--backend", "integral", "--nodes", "2000"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["second_order"]) == 2
        np.testing.assert_allclose(report["second_order"][0][0], 1.0, atol=1e-12)

    def test_factorized_input(self, capsys):
        dims = json.dumps({"dims": [[0.0, 0.0], [0.0, 0.0]]})
        rc = _run(["probset", "--dist", dims, "--set", "0,1,2,3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(report["p_set"], 1.0, atol=1e-12)

    def test_bad_distribution_is_usage_error(self, capsys):
        assert _run(["probset", "--dist", "not json", "--set", "0"]) == 1

    def test_set_out_of_range_is_error(self, capsys):
        assert _run(["probset", "--dist", "[0.5,0.5]", "--set", "0,5"]) == 1

    def test_too_few_nodes_is_error(self, capsys):
        assert _run(["probset", "--dist", "[0.5,0.3,0.2]", "--set", "0,1", "--nodes", "1"]) == 1

    def test_report_keys(self, capsys):
        assert _run(["probset", "--dist", "[0.5,0.3,0.2]", "--set", "0,1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"schema_version", "backend", "nodes", "set", "log_p_set",
                               "p_set", "ratios", "posterior_first_draw"}


class TestCheck:
    def test_passes_and_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        rc = _run(["check", "--n", "4", "--k", "2", "--cases", "3", "--seed", "0",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["all_passed"]
        assert report["config"] == {"n": 4, "k": 2, "cases": 3, "seed": 0}

    def test_failed_check_exits_two(self, monkeypatch, tmp_path):
        def fake_report(n, k, cases, seed, scale):
            return {"schema_version": 1, "checks": [], "all_passed": False}

        monkeypatch.setattr(oracle, "theorem_report", fake_report)
        rc = _run(["check", "--out", str(tmp_path / "r.json")])
        assert rc == 2

    @pytest.mark.parametrize("cases", [0, -3])
    def test_fewer_than_one_case_is_error(self, capsys, cases):
        assert _run(["check", "--n", "4", "--k", "2", "--cases", str(cases)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cases must be at least 1, got {cases}\n"
        assert captured.out == ""

    def test_unit_scale_keeps_the_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["check", "--n", "4", "--k", "2", "--cases", "3", "--seed", "0"]
        assert _run(argv + ["--out", str(a)]) == 0
        assert _run(argv + ["--scale", "1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scale_20_reports_its_scale(self, tmp_path):
        """The low-entropy instances fail identities of ROADMAP items 2 and
        4 (pinned in test_oracle.py::TestScale): exit 2, not 1."""
        out = tmp_path / "report.json"
        argv = ["check", "--n", "4", "--k", "2", "--cases", "3", "--seed", "0", "--scale", "20"]
        assert _run(argv + ["--out", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["config"] == {"n": 4, "k": 2, "cases": 3, "seed": 0, "scale": 20.0}

    @pytest.mark.parametrize("scale", ["0", "-2", "nan", "inf"])
    def test_bad_scale_is_error(self, capsys, scale):
        assert _run(["check", "--cases", "1", "--scale", scale]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: scale must be finite and positive, got {float(scale)}\n"
        assert captured.out == ""

    def test_sample_size_out_of_range_is_error(self, capsys):
        assert _run(["check", "--n", "3", "--k", "0", "--cases", "1"]) == 1
        assert _run(["check", "--n", "3", "--k", "4", "--cases", "1"]) == 1
        assert "outside [1, 3]" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [3, 4])
    def test_whole_domain_conditional_is_exact(self, tmp_path, n):
        """At k = n the set is drawn with probability exactly 1, so the
        importance-weighted estimate given it equals the set estimate."""
        out = tmp_path / "report.json"
        argv = ["check", "--n", str(n), "--k", str(n), "--cases", "10", "--seed", "0"]
        assert _run(argv + ["--out", str(out)]) == 0
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert checks["importance-weighted-conditional"]["max_abs_err"] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_single_sample_passes(self, tmp_path, n):
        """At k = 1 the checks of estimators that need two samples, or a
        domain of two, are left out; the rest pass."""
        out = tmp_path / "report.json"
        argv = ["check", "--n", str(n), "--k", "1", "--cases", "3", "--seed", "0"]
        assert _run(argv + ["--out", str(out)]) == 0
        report = json.loads(out.read_text())
        names = {c["name"] for c in report["checks"]}
        assert report["all_passed"]
        assert "unordered-set-unbiased" in names
        assert "uspg-baseline-unbiased" not in names
        assert ("det-sum-and-sample-unbiased" in names) == (n >= 2)

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["check", "--n", "3", "--k", "2", "--cases", "2", "--seed", "5"]
        assert _run(argv + ["--out", str(a)]) == 0
        assert _run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestVariance:
    def _config(self, tmp_path, **overrides):
        cfg = {
            "estimators": ["unordered-set-pg"],
            "k": [2, 8],
            "eta": [0.0, -4.0],
            "replications": 100,
            "seed": 0,
        }
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_csv_output(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert _run(["variance", "--config", str(cfg), "--out", str(out)]) == 0
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == bench.VARIANCE_CSV_VERSION
        assert lines[1] == "estimator,k,evals,eta,variance,log10_variance,replications,seed"
        report = bench.VarianceReport.from_csv(text)
        assert len(report.rows) == 4
        full = [r for r in report.rows if r.k == 8]
        assert all(r.variance <= 1e-20 for r in full)

    def test_byte_identical_runs(self, tmp_path):
        cfg = self._config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert _run(["variance", "--config", str(cfg), "--out", str(a)]) == 0
        assert _run(["variance", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self._config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert _run(["variance", "--config", str(cfg), "--out", str(a)]) == 0
        assert _run(["variance", "--config", str(cfg), "--out", str(b), "--seed", "9"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_missing_config_is_error(self, tmp_path):
        assert _run(["variance", "--config", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("replications", [1, -5])
    def test_fewer_than_two_replications_is_error(self, tmp_path, capsys, replications):
        cfg = self._config(tmp_path, replications=replications)
        assert _run(["variance", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: replications must be at least 2, got {replications}\n"
        assert captured.out == ""

    def test_malformed_config_is_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"estimators": ["unordered-set-pg"]}')
        assert _run(["variance", "--config", str(path)]) == 1

    def test_builtin_baseline_at_one_sample_is_error(self, tmp_path):
        cfg = self._config(tmp_path, estimators=["unordered-set-pg-bl"], k=[1])
        assert _run(["variance", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("kind, k, message", SIZE_ERRORS)
    def test_sample_size_error_message(self, tmp_path, capsys, kind, k, message):
        cfg = self._config(tmp_path, estimators=[kind], k=[k])
        assert _run(["variance", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestOptimize:
    @pytest.mark.parametrize("kind, k, message", SIZE_ERRORS)
    def test_sample_size_error_message(self, tmp_path, capsys, kind, k, message):
        cfg = tmp_path / "opt.json"
        cfg.write_text(json.dumps({"estimator": kind, "k": k, "eta0": 0.0,
                                   "step_size": 0.1, "steps": 5, "seed": 0}))
        assert _run(["optimize", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_negative_steps_is_error(self, tmp_path, capsys):
        cfg = tmp_path / "opt.json"
        cfg.write_text(json.dumps({"estimator": "exact", "k": 8, "steps": -3}))
        assert _run(["optimize", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: steps must be at least 0, got -3\n"
        assert captured.out == ""

    def test_fractional_k_is_error(self, tmp_path, capsys):
        """``k: 4.5`` used to run at k = 4 and exit 0."""
        cfg = tmp_path / "opt.json"
        cfg.write_text(json.dumps({"estimator": "unordered-set-pg", "k": 4.5, "steps": 5}))
        assert _run(["optimize", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: k must be an integer, got 4.5\n"
        assert captured.out == ""

    def test_csv_output(self, tmp_path):
        cfg = tmp_path / "opt.json"
        cfg.write_text(
            json.dumps(
                {"estimator": "exact", "k": 8, "eta0": 0.0,
                 "step_size": 0.1, "steps": 5, "seed": 0}
            )
        )
        out = tmp_path / "run.csv"
        assert _run(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == bench.OPTIMIZE_CSV_VERSION
        assert lines[1] == "step,eta,loss"
        assert len(lines) == 8
        first = lines[2].split(",")
        assert first[0] == "0" and float(first[1]) == 0.0


class TestUsage:
    def test_unknown_command(self):
        assert _run(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert _run(["probset", "--set", "0"]) == 1

    def test_reused_parser_keeps_no_state(self, capsys):
        """The parser built by the first call serves every later call: a
        usage error, a check and a probset in a row print what each prints
        when it is the process's first call."""
        calls = [
            ["optimize"],
            ["check", "--n", "4", "--k", "2", "--cases", "2", "--seed", "3"],
            ["probset", "--dist", "[0.4,0.3,0.2,0.1]", "--set", "0,2", "--order", "2"],
        ]

        def call(argv):
            code = _run(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        cli._build_parser.cache_clear()
        in_a_row = [call(argv) for argv in calls]
        assert cli._build_parser.cache_info().misses == 1
        alone = []
        for argv in calls:
            cli._build_parser.cache_clear()
            alone.append(call(argv))
        assert in_a_row == alone
        assert [code for code, _, _ in alone] == [1, 0, 0]
        assert alone[0][2].startswith("usage error: ")

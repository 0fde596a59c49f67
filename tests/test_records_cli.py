import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adasamp.cli import (
    ALGORITHMS,
    PROBLEMS,
    ConfigError,
    ExperimentConfig,
    build_parser,
    load_config_file,
    main,
    resolve_config,
    run_experiment,
)
from adasamp.records import (
    CSV_COLUMNS,
    RunRecord,
    compare_runs,
    csv_body,
    read_csv,
    write_csv,
)


def tiny_config(tmp_path, **kw):
    base = dict(
        problem="basic",
        algorithm="spgd",
        alpha=0.025,
        theta=0.5,
        s0=10,
        max_iters=6,
        seed=0,
        output=str(tmp_path / "run.csv"),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestCsvRoundTrip:
    def test_schema_and_values_survive(self, tmp_path):
        records = [
            RunRecord(0, 10, 10, 1.2345678901234567, 0.5, 2.0, None, 3.25),
            RunRecord(1, 20, 30, -7.000000000000001e-12, None, None, -0.25, 0.5),
        ]
        path = tmp_path / "x.csv"
        write_csv(records, path)
        text = path.read_text().splitlines()
        assert text[0] == ",".join(CSV_COLUMNS)
        back = read_csv(path)
        assert back == records  # repr round-trips floats exactly

    def test_empty_fields_parse_as_none(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv([RunRecord(0, 5, 5, 1.0)], path)
        rec = read_csv(path)[0]
        assert rec.error_norm is None and rec.rho is None and rec.t_aux is None

    def test_header_is_the_fixed_schema(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv([RunRecord(0, 5, 5, 1.0)], path)
        assert path.read_text().splitlines()[0] == (
            "iteration,sample_size,cumulative_grad_evals,objective_estimate,"
            "error_norm,rho,t_aux,wall_time_ms"
        )

    def test_blank_lines_between_rows_are_skipped(self, tmp_path):
        records = [RunRecord(0, 5, 5, 1.0), RunRecord(1, 5, 10, 0.5)]
        path = tmp_path / "x.csv"
        write_csv(records, path)
        header, first, second = path.read_text().splitlines()
        path.write_text(f"{header}\n{first}\n\n  \n{second}\n")
        assert read_csv(path) == records

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError):
            read_csv(path)


class TestRunExperiment:
    def test_basic_spgd_writes_csv_and_sidecar(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert run_experiment(cfg) == 0
        records = read_csv(tmp_path / "run.csv")
        assert len(records) == 6
        assert all(r.error_norm is not None for r in records)
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert meta["status"] == "completed"
        assert meta["config"]["problem"] == "basic"
        assert len(meta["problem_params"]["a"]) == 20
        assert len(meta["final_x"]) == 20
        assert meta["stream_version"] == 2

    def test_fixed_mode_constant_sizes_and_empty_rho(self, tmp_path):
        cfg = tiny_config(tmp_path, algorithm="spgd-fixed", fixed_sample_size=1000)
        run_experiment(cfg)
        records = read_csv(tmp_path / "run.csv")
        assert {r.sample_size for r in records} == {1000}
        assert all(r.rho is None for r in records)

    def test_cvar_runs_record_t(self, tmp_path):
        cfg = tiny_config(
            tmp_path, algorithm="cvar-extended", beta=0.5, epsilon=0.1, max_iters=4
        )
        run_experiment(cfg)
        records = read_csv(tmp_path / "run.csv")
        assert all(r.t_aux is not None for r in records)
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert "t0" in meta["extras"]

    def test_sqp_on_portfolio_tracks_sphere_optimum(self, tmp_path):
        cfg = tiny_config(
            tmp_path, problem="portfolio", algorithm="sqp", alpha=0.05,
            theta=1.0, max_iters=10, seed=1,
        )
        run_experiment(cfg)
        records = read_csv(tmp_path / "run.csv")
        assert all(r.error_norm is not None for r in records)

    def test_sqp_on_basic_has_no_error_column(self, tmp_path):
        cfg = tiny_config(tmp_path, algorithm="sqp", alpha=0.05, max_iters=8)
        run_experiment(cfg)
        records = read_csv(tmp_path / "run.csv")
        assert all(r.error_norm is None for r in records)

    def test_determinism_modulo_wall_time(self, tmp_path):
        a = tiny_config(tmp_path, output=str(tmp_path / "a.csv"))
        b = tiny_config(tmp_path, output=str(tmp_path / "b.csv"))
        run_experiment(a)
        run_experiment(b)
        assert csv_body(tmp_path / "a.csv") == csv_body(tmp_path / "b.csv")


class TestValidation:
    def test_bad_problem_names_field(self):
        cfg = tiny_config_dirless(problem="sde")
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert err.value.field == "problem"

    def test_cvar_needs_positive_beta(self):
        cfg = tiny_config_dirless(algorithm="cvar-nested", beta=0.0)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert err.value.field == "beta"

    def test_fixed_size_requires_fixed_algorithm(self):
        cfg = tiny_config_dirless(fixed_sample_size=50)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert err.value.field == "fixed_sample_size"

    def test_spgd_fixed_requires_size(self):
        cfg = tiny_config_dirless(algorithm="spgd-fixed")
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert err.value.field == "fixed_sample_size"

    @pytest.mark.parametrize("kw, field", [
        ({"s0": 1}, "s0"),
        ({"max_iters": 0}, "max_iters"),
        ({"seed": -1}, "seed"),
        ({"s0": 20, "max_sample_size": 19}, "max_sample_size"),
    ], ids=["s0", "max_iters", "seed", "max_sample_size"])
    def test_out_of_range_value_names_its_field(self, kw, field):
        with pytest.raises(ConfigError) as err:
            tiny_config_dirless(**kw).validate()
        assert err.value.field == field


def tiny_config_dirless(**kw):
    base = dict(problem="basic", algorithm="spgd", max_iters=3)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfigFileAndFlags:
    def test_key_value_file_parses(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("problem = portfolio\nmax-iters = 9 # comment\n\n# full line\ntheta=2.0\n")
        values = load_config_file(path)
        assert values == {"problem": "portfolio", "max_iters": "9", "theta": "2.0"}

    def test_flags_win_over_config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("theta = 2.0\nmax_iters = 9\n")
        args = make_args(config=str(path), theta=0.5)
        cfg = resolve_config(args)
        assert cfg.theta == 0.5
        assert cfg.max_iters == 9

    def test_run_flags_are_the_config_fields(self):
        kinds = dict(problem=str, algorithm=str, alpha=float, theta=float, beta=float,
                     epsilon=float, s0=int, max_iters=int, seed=int, max_sample_size=int,
                     fixed_sample_size=int, output=str, config=str)
        run = build_parser()._subparsers._group_actions[0].choices["run"]
        actions = [a for a in run._actions if a.dest != "help"]
        names = [f.name for f in dataclasses.fields(ExperimentConfig)] + ["config"]
        assert [a.dest for a in actions] == names == list(kinds)
        for a in actions:
            assert a.option_strings == ["--" + a.dest.replace("_", "-")]
            assert a.type is kinds[a.dest]
            assert a.choices == {"problem": PROBLEMS, "algorithm": ALGORITHMS}.get(a.dest)

    def test_config_file_values_take_their_field_types(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("fixed_sample_size = 40\noutput = 7\nalpha = 1\n")
        cfg = resolve_config(make_args(config=str(path)))
        assert (cfg.fixed_sample_size, cfg.output, cfg.alpha) == (40, "7", 1.0)
        assert type(cfg.fixed_sample_size) is int and type(cfg.alpha) is float

    # methods and dunder attributes of the config are no keys: setting them
    # replaced validate or output_path with a string
    @pytest.mark.parametrize("key", ["bogus", "validate", "output_path", "__class__"])
    def test_unknown_key_rejected(self, tmp_path, key):
        path = tmp_path / "exp.cfg"
        path.write_text(f"{key} = 1\n")
        with pytest.raises(ConfigError, match="unknown configuration key") as info:
            resolve_config(make_args(config=str(path)))
        assert info.value.field == key


def make_args(**overrides):
    import argparse

    fields = dict(
        problem=None, algorithm=None, alpha=None, theta=None, beta=None,
        epsilon=None, s0=None, max_iters=None, seed=None, max_sample_size=None,
        fixed_sample_size=None, output=None, config=None,
    )
    fields.update(overrides)
    return argparse.Namespace(**fields)


class TestCompareRuns:
    def test_file_vs_itself_is_zero_delta(self, tmp_path):
        cfg = tiny_config(tmp_path)
        run_experiment(cfg)
        report = compare_runs(tmp_path / "run.csv", tmp_path / "run.csv")
        assert report.final_objective_delta == 0.0
        assert report.grid.size and np.all(report.objective_b - report.objective_a == 0.0)
        assert report.passed
        # every aligned row is four plain floats, not numpy reprs
        rows = report.to_text().splitlines()[1 : 1 + report.grid.size]
        assert [list(map(float, row.split(","))) for row in rows] == [
            [g, o, o, 0.0] for g, o in zip(report.grid, report.objective_a)
        ]

    def test_adaptive_beats_fixed_ten(self, tmp_path):
        fixed = tiny_config(
            tmp_path, algorithm="spgd-fixed", fixed_sample_size=10,
            max_iters=80, output=str(tmp_path / "fixed.csv"),
        )
        adaptive = tiny_config(tmp_path, max_iters=80, output=str(tmp_path / "ad.csv"))
        run_experiment(fixed)
        run_experiment(adaptive)
        report = compare_runs(
            tmp_path / "fixed.csv", tmp_path / "ad.csv", expect_b_error_smaller=True
        )
        assert report.passed, report.failures

    def test_expected_smaller_error_fails_without_an_error_column(self, tmp_path):
        # a run without a known optimum leaves error_norm empty
        for name in ("a.csv", "b.csv"):
            write_csv([RunRecord(0, 5, 5, 1.0), RunRecord(1, 5, 10, 0.5)], tmp_path / name)
        report = compare_runs(tmp_path / "a.csv", tmp_path / "b.csv", expect_b_error_smaller=True)
        assert report.failures == ("error_norm missing; cannot compare final errors",)
        assert not report.passed and report.to_text().endswith("FAIL\n")


class TestCommandLine:
    def test_run_and_compare_end_to_end(self, tmp_path):
        out = tmp_path / "cli.csv"
        rc = main([
            "run", "--problem", "basic", "--algorithm", "spgd", "--alpha", "0.025",
            "--theta", "0.5", "--s0", "10", "--max-iters", "5", "--seed", "0",
            "--output", str(out),
        ])
        assert rc == 0 and out.exists()
        rc = main(["compare", str(out), str(out)])
        assert rc == 0

    def test_invalid_config_exits_nonzero(self, capsys):
        rc = main(["run", "--problem", "basic", "--algorithm", "cvar-extended",
                   "--beta", "0.0", "--max-iters", "2"])
        assert rc == 2
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, field",
        [("validate = 1", "validate"), ("s0 = abc", "s0"), ("algorithm = sgd", "algorithm"),
         ("max_iters 3", "config")],
        ids=["method", "number", "unknown-algorithm", "no-equals"],
    )
    def test_bad_config_file_line_exits_with_an_error_line(self, tmp_path, capsys, line, field):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        rc = main(["run", "--config", str(path), "--max-iters", "2",
                   "--output", str(tmp_path / "run.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: invalid configuration field '{field}'")
        assert not (tmp_path / "run.csv").exists()

    def test_a_theta_whose_square_underflows_exits_with_an_error_line(self, tmp_path, capsys):
        # its square is 0.0: the variance tests would divide by zero. The
        # error line lacked the field prefix that every other bad flag gets
        for theta in ("1e-170", "1e-200"):
            rc = main(["run", "--problem", "basic", "--algorithm", "spgd", "--theta", theta,
                       "--max-iters", "2", "--output", str(tmp_path / "run.csv")])
            assert rc == 2
            assert capsys.readouterr().err == (
                "error: invalid configuration field 'theta': "
                "must be positive and finite, with a square in (0, inf)\n"
            )
            assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["alpha", "theta"])
    def test_a_non_finite_step_or_theta_exits_with_an_error_line(self, tmp_path, capsys, flag, value):
        # --theta nan used to run with every set at the cap, and --theta inf
        # with the test off
        rc = main(["run", "--problem", "basic", "--algorithm", "spgd", f"--{flag}={value}",
                   "--max-iters", "2", "--output", str(tmp_path / "run.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: invalid configuration field '{flag}': must be positive and finite"
        )
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("algorithm", ["cvar-extended", "cvar-nested"])
    def test_a_non_finite_epsilon_exits_with_an_error_line(self, tmp_path, capsys, algorithm, value):
        # --epsilon inf used to complete with every objective estimate inf,
        # and --epsilon nan to fail as a non-finite sampled gradient
        rc = main(["run", "--problem", "basic", "--algorithm", algorithm, f"--epsilon={value}",
                   "--max-iters", "3", "--output", str(tmp_path / "run.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: invalid configuration field 'epsilon': must be positive and finite"
        )
        assert not (tmp_path / "run.csv").exists()

    def test_a_step_too_large_to_project_exits_with_an_error_line(self, tmp_path, capsys):
        # the simplex projection used to end this run in an IndexError
        # traceback with exit code 1, and its scan's overflow in a
        # RuntimeWarning traceback under python -W error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", "--problem", "portfolio", "--algorithm", "spgd", "--alpha", "1e308",
                       "--max-iters", "2", "--output", str(tmp_path / "run.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: cannot project onto the simplex: entries of magnitude up to"
        )

    def test_overflowing_sqp_directions_are_named_without_a_moment_warning(
        self, tmp_path, capsys
    ):
        # the moment kernel warned "invalid value encountered in subtract"
        # before the error line, which blamed a sampled gradient
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["run", "--problem", "portfolio", "--algorithm", "sqp", "--alpha", "1e307",
                       "--max-iters", "3", "--output", str(tmp_path / "run.csv")])
        assert rc == 2
        assert "a sampled gradient or SQP direction is not finite" in capsys.readouterr().err
        assert not [w for w in caught if w.filename.endswith("model.py")]

    def test_a_fixed_run_has_no_sample_cap(self, tmp_path):
        # a fixed run has no test, so --max-sample-size below --s0 is unused
        rc = main(["run", "--problem", "basic", "--algorithm", "spgd-fixed",
                   "--fixed-sample-size", "5", "--max-sample-size", "3", "--max-iters", "2",
                   "--output", str(tmp_path / "run.csv")])
        assert rc == 0
        assert {r.sample_size for r in read_csv(tmp_path / "run.csv")} == {5}

    @pytest.mark.parametrize("algorithm, alpha", [("spgd", "1e308"), ("sqp", "1e307"),
                                                  ("spgd", "1.7e308")])
    def test_a_huge_step_exits_with_an_error_line_under_w_error(self, tmp_path, algorithm, alpha):
        # these ended in RuntimeWarning tracebacks with exit code 1: overflow
        # in the simplex scan, in sqp_directions and in the projected step
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "adasamp", "run", "--problem", "portfolio",
             "--algorithm", algorithm, "--alpha", alpha, "--max-iters", "3",
             "--output", str(tmp_path / "run.csv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_a_theta_whose_growth_overflows_runs_at_the_cap(self, tmp_path):
        # rho * n overflowed to inf, and its ceil ended the run in an
        # OverflowError traceback with exit code 1
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "adasamp", "run", "--problem", "basic",
             "--algorithm", "spgd", "--theta", "4.477795572719686e-156",
             "--max-sample-size", "1000", "--max-iters", "2",
             "--output", str(tmp_path / "run.csv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert [r.sample_size for r in read_csv(tmp_path / "run.csv")] == [10, 1000]

    @pytest.mark.parametrize(
        "flags, sizes, status",
        [
            # 1e-322 * ||R||^2 underflows from the first iteration on
            (["--algorithm", "spgd", "--theta", "1e-161", "--max-sample-size", "1000",
              "--max-iters", "300"], [10] + [1000] * 299, "completed"),
            # an SQP step that moves x: at alpha = 2.5317685913286994e-113 and
            # theta = 1.1156778113415024e-137, x + mean direction rounds to x
            # and the run now ends step-too-small before the test
            (["--algorithm", "sqp", "--alpha", "1e-10", "--theta", "1e-160", "--s0", "20",
              "--max-sample-size", "601", "--max-iters", "2", "--seed", "1"], [601],
             "sample-budget-exhausted"),
        ],
    )
    def test_a_test_bound_that_underflows_grows_the_set_to_the_cap(
        self, tmp_path, flags, sizes, status
    ):
        # theta^2 * ||R||^2 underflowed to 0.0, and the norm test's division
        # ended the run in a ZeroDivisionError traceback with exit code 1
        out = tmp_path / "run.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "adasamp", "run", "--problem", "basic", *flags,
             "--output", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        records = read_csv(out)
        assert [r.sample_size for r in records] == sizes
        assert records[-1].rho == float("inf")
        assert json.loads(out.with_name("run.csv.meta.json").read_text())["status"] == status

    @pytest.mark.parametrize("problem", ["basic", "portfolio"])
    def test_an_overflowing_projected_step_writes_one_error_line(self, tmp_path, problem):
        # a RuntimeWarning from x - alpha * mean gradient came first, and the
        # basic run then reported a stationary stop with exit code 0
        proc = subprocess.run(
            [sys.executable, "-m", "adasamp", "run", "--problem", problem, "--algorithm", "spgd",
             "--alpha", "1.7e308", "--max-iters", "3", "--output", str(tmp_path / "run.csv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [
            "error: the projected step x - alpha * mean gradient overflows at alpha=1.7e+308"
        ]

    def test_overflowing_sqp_directions_write_one_error_line(self, tmp_path):
        # a RuntimeWarning from the directions' products came before the
        # error line when warnings were not errors
        proc = subprocess.run(
            [sys.executable, "-m", "adasamp", "run", "--problem", "portfolio", "--algorithm",
             "sqp", "--alpha", "1e307", "--max-iters", "3", "--output", str(tmp_path / "run.csv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [
            "error: norm test got a non-finite variance statistic (nan) from 10 samples: "
            "a sampled gradient or SQP direction is not finite or overflows"
        ]

    def test_compare_failure_exit_code(self, tmp_path, capsys):
        # a log compared with itself: b's final error is not smaller than a's
        run_experiment(tiny_config(tmp_path, max_iters=3))
        log = str(tmp_path / "run.csv")
        capsys.readouterr()
        assert main(["compare", log, log, "--expect-b-error-smaller"]) == 1
        assert "FAIL: final error of b" in capsys.readouterr().out

    def test_compare_has_no_final_objective_tolerance(self, tmp_path, capsys):
        run_experiment(tiny_config(tmp_path, max_iters=3))
        log = str(tmp_path / "run.csv")
        with pytest.raises(SystemExit) as info:
            main(["compare", log, log, "--final-objective-rel-tol", "1e-3"])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "problem, flags",
        [("basic", ["--alpha", "1e-20", "--max-iters", "50"]),
         ("portfolio", ["--alpha", "1e-20", "--theta", "1.5", "--max-iters", "3"]),
         ("portfolio", ["--alpha", "1.2173085604029835e-243", "--s0", "222", "--max-iters", "1",
                        "--seed", "3"])],
        ids=["basic", "portfolio", "portfolio-1e-243"],
    )
    def test_a_step_below_the_rounding_of_x_ends_step_too_small(
        self, tmp_path, capsys, problem, flags
    ):
        # the step x - alpha * mean gradient rounds to x: the basic run read
        # "stationary", the portfolio run passed its tests on rounding, and
        # the last one overflowed the norm test's ||R||^2 with a warning
        out = tmp_path / "run.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", "--problem", problem, "--algorithm", "spgd", *flags,
                       "--output", str(out)])
        assert rc == 0
        assert "step-too-small after 1 iterations" in capsys.readouterr().out
        assert json.loads((tmp_path / "run.csv.meta.json").read_text())["status"] == "step-too-small"
        assert len(read_csv(out)) == 1

    def test_a_projection_that_does_not_converge_exits_with_an_error_line(self, tmp_path, capsys):
        # Dykstra takes more than its 10,000 cycles on this packaged
        # portfolio set: a ProjectionError traceback and exit 1
        rc = main(["run", "--problem", "portfolio", "--algorithm", "spgd", "--alpha", "1.0",
                   "--s0", "2", "--max-sample-size", "2", "--max-iters", "1", "--seed", "2",
                   "--output", str(tmp_path / "run.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Dykstra did not converge") and err.count("\n") == 1

    @pytest.mark.parametrize("alpha", ["1e-200", "1e-20"])
    def test_an_sqp_step_below_the_rounding_of_x_ends_step_too_small(self, tmp_path, capsys, alpha):
        # x + mean direction rounds to x: at 1e-200 the norm test squared
        # the mean direction to 0.0 and the run exited 2 with no CSV; at
        # 1e-20 it completed with x never moved
        out = tmp_path / "run.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", "--problem", "basic", "--algorithm", "sqp", "--alpha", alpha,
                       "--max-iters", "5", "--output", str(out)])
        assert rc == 0
        assert "step-too-small after 1 iterations" in capsys.readouterr().out
        assert json.loads((tmp_path / "run.csv.meta.json").read_text())["status"] == "step-too-small"
        assert len(read_csv(out)) == 1

    @pytest.mark.parametrize("row", ["3,10", "3,10,40,1.5,,,,0.25,7"])
    def test_compare_rejects_a_row_of_the_wrong_width(self, tmp_path, capsys, row):
        # a truncated (or overlong) log is a usage error (exit 2), not an
        # IndexError traceback with the comparison-failure exit code 1
        run_experiment(tiny_config(tmp_path, max_iters=3))
        log = tmp_path / "run.csv"
        with open(log, "a") as fh:
            fh.write(row + "\n")
        capsys.readouterr()
        assert main(["compare", str(log), str(log)]) == 2
        err = capsys.readouterr().err
        assert f"{log}, line 5" in err
        assert f"expected {len(CSV_COLUMNS)} fields, got {len(row.split(','))}" in err

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADASAMP_OUTPUT_DIR", str(tmp_path))
        cfg = ExperimentConfig(problem="basic", algorithm="spgd", max_iters=2)
        run_experiment(cfg)
        assert (tmp_path / "basic_spgd_seed0.csv").exists()

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "m.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "adasamp", "run", "--problem", "basic",
             "--algorithm", "spgd", "--max-iters", "3", "--output", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))


@st.composite
def cli_numeric_flags(draw):
    """The run subcommand's flags for either problem and any algorithm,
    with every numeric flag drawn over a wide range: alpha log-uniform in
    [1e-300, 1.6e308], theta log-uniform in [1e-160, 1e150], s0 from 2 to 20
    (the fixed size of spgd-fixed), a cap from s0 to 3000, 1 to 3 iterations,
    seeds 0 to 5, beta in (0.01, 0.99) and epsilon log-uniform in [1e-3, 1]."""
    algorithm = draw(st.sampled_from(ALGORITHMS))
    s0 = draw(st.integers(2, 20))
    flags = {
        "problem": draw(st.sampled_from(PROBLEMS)),
        "algorithm": algorithm,
        "alpha": draw(_log_uniform(1e-300, 1.6e308)),
        "theta": draw(_log_uniform(1e-160, 1e150)),
        "max-sample-size": draw(st.integers(s0, 3000)),
        "max-iters": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 5)),
        "beta": draw(st.floats(0.01, 0.99, exclude_min=True, exclude_max=True)),
        "epsilon": draw(_log_uniform(1e-3, 1.0)),
        ("fixed-sample-size" if algorithm == "spgd-fixed" else "s0"): s0,
    }
    return [arg for key, value in flags.items() for arg in (f"--{key}", str(value))]


@settings(max_examples=300, deadline=None)
@given(cli_numeric_flags())
def test_every_numeric_flag_setting_exits_0_or_2_and_never_raises(flags):
    # with every warning an error, main returns 0 with a CSV of one row per
    # iteration that the sidecar reports and an empty stderr, or 2 with one
    # stderr line that starts with "error:"
    with tempfile.TemporaryDirectory() as tmp:
        out, stdout, stderr = Path(tmp) / "run.csv", io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            rc = main(["run", *flags, "--output", str(out)])
        err = stderr.getvalue()
        assert rc in (0, 2), (rc, err)
        if rc == 0:
            meta = json.loads(Path(str(out) + ".meta.json").read_text())
            assert len(read_csv(out)) == meta["iterations"] >= 1
            assert err == ""
        else:
            assert err.startswith("error:") and err.count("\n") == 1, err

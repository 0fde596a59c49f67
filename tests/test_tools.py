"""The statistics of the distributional gate in ``tools/csv_fingerprints.py``,
its per-column report and its ``compare_runs`` figure."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from adasamp.cli import main
from adasamp.records import RunRecord, write_csv

TOOL = Path(__file__).resolve().parents[1] / "tools" / "csv_fingerprints.py"


@pytest.fixture(scope="module")
def fingerprints():
    spec = importlib.util.spec_from_file_location("csv_fingerprints", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("case", range(6))
def test_mann_whitney_p_matches_scipy(fingerprints, case):
    rng = np.random.default_rng(case)
    a = rng.integers(0, 12, size=40).tolist()  # many ties
    b = (rng.integers(0, 12, size=40) + case % 3).tolist()
    if case >= 3:
        a, b = rng.normal(size=40).tolist(), rng.normal(0.4 * case, size=40).tolist()
    want = mannwhitneyu(a, b, alternative="two-sided", method="asymptotic").pvalue
    assert fingerprints.mann_whitney_p(a, b) == pytest.approx(want, rel=1e-9, abs=1e-15)


def test_mann_whitney_p_is_one_when_every_value_ties(fingerprints):
    assert fingerprints.mann_whitney_p([5] * 40, [5] * 40) == 1.0


def rows(sizes, objective=1.0, rho=0.5):
    """A run's rows of the report's columns: iteration, sample_size,
    cumulative_grad_evals, objective_estimate, error_norm, rho, t_aux."""
    evals = 0
    out = []
    for k, size in enumerate(sizes):
        evals += size
        out.append([k, size, evals, objective / (k + 1), None, rho, None])
    return out


def test_column_report_of_identical_runs(fingerprints):
    text, worst, rho_diff, diverges = fingerprints.column_report(rows([10, 20]), rows([10, 20]))
    assert text == "sizes agree; grad_evals ratio 1; identical: all columns"
    assert worst == 0.0 and rho_diff == 0.0 and not diverges


def test_column_report_of_a_last_bits_change(fingerprints):
    new = rows([10, 20], rho=0.5 * (1 + 2**-52))
    text, worst, rho_diff, diverges = fingerprints.column_report(rows([10, 20]), new)
    assert "identical: iteration,sample_size,cumulative_grad_evals,objective_estimate," in text
    assert text.endswith("rho abs=1.11e-16 rel=2.22e-16")
    # rho is outside the 1e-9 verdict, and compared against max(|rho|, 1)
    assert worst == 0.0 and rho_diff == pytest.approx(2**-53) and not diverges


def test_column_report_measures_a_tiny_rho_against_one(fingerprints):
    # rows that agree to rounding give a rho of rounding noise: 100% apart
    # relative to itself, 1e-28 relative to the test's threshold
    text, worst, rho_diff, _ = fingerprints.column_report(rows([10, 20], rho=1e-28),
                                                          rows([10, 20], rho=2e-28))
    assert text.endswith("rho abs=1e-28 rel=0.5")
    assert worst == 0.0 and rho_diff == pytest.approx(1e-28)


def test_column_report_compares_rows_before_the_sizes_diverge(fingerprints):
    old, new = rows([10, 20, 40]), rows([10, 30, 60], objective=2.0)
    text, worst, _, diverges = fingerprints.column_report(old, new)
    assert text.startswith("sizes diverge at iteration 1; grad_evals ratio 1.42857;")
    assert "objective_estimate abs=1 rel=0.5" in text  # row 0 only
    assert worst == 0.5 and diverges


def test_column_report_flags_a_field_empty_or_nan_on_one_side(fingerprints):
    new = rows([10, 20])
    new[1][4] = 0.25
    new[0][5] = float("nan")
    text, worst, rho_diff, _ = fingerprints.column_report(rows([10, 20]), new)
    assert "error_norm abs=inf rel=inf; rho abs=inf rel=inf" in text and worst == float("inf")
    assert rho_diff == float("inf")


def test_final_objective_rel_delta_is_that_of_adasamp_compare(fingerprints, tmp_path, capsys):
    old, new = rows([10, 20]), rows([10, 30], objective=3.0)
    assert fingerprints.final_objective_rel_delta(old, old) == 0.0
    got = fingerprints.final_objective_rel_delta(old, new)
    assert got == pytest.approx(2.0 / 3.0)  # final objectives 0.5 and 1.5
    for name, run in (("old", old), ("new", new)):
        write_csv([RunRecord(*row) for row in run], tmp_path / f"{name}.csv")
    assert main(["compare", str(tmp_path / "old.csv"), str(tmp_path / "new.csv")]) == 0
    assert f"final_objective_rel_delta = {got!r}" in capsys.readouterr().out

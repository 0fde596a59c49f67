"""The statistics of the distributional gate in ``tools/csv_fingerprints.py``."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

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

"""A-posteriori sample-size tests.

The norm test compares the gradient estimator's variance statistic against
theta^2 times the squared reduced-gradient norm; the ratio rho of those two
quantities drives the sample-size update |S_next| = ceil(rho * |S|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GradientStats, SettingError, gradient_stats

__all__ = [
    "TestConfig",
    "TestOutcome",
    "norm_test",
    "sqp_norm_test",
]


@dataclass(frozen=True)
class TestConfig:
    """The variance test's settings. Their rules live here, and a breach
    raises ``SettingError``."""

    # not a pytest class, despite the name
    __test__ = False

    theta: float
    max_sample_size: int = 10**6

    def __post_init__(self):
        if not (self.theta > 0 and 0.0 < self.theta * self.theta < math.inf):  # NaN fails too
            raise SettingError("theta", "must be positive and finite, with a square in (0, inf)")
        if self.max_sample_size < 2:
            raise SettingError(
                "max_sample_size", "must be >= 2 (the variance test needs two samples)"
            )


@dataclass(frozen=True)
class TestOutcome:
    passed: bool
    rho: float
    next_size: int


def norm_test(stats: GradientStats, reduced_grad, cfg: TestConfig) -> TestOutcome:
    """Test whether the current sample size controls the gradient error.

    rho = variance_stat / (theta^2 ||R||^2); the test passes iff rho <= 1,
    in which case the sample size is kept, otherwise it grows to
    ceil(min(rho * n, cap)) for the configured maximum cap, which an
    overflowing rho * n gives too. A denominator that underflows to 0.0
    gives rho = inf (the cap) over a positive statistic and 0 over a zero
    one. The drivers stop on a (numerically) zero reduced gradient before
    testing; an exactly zero one, which leaves rho undefined, is rejected,
    and so is a non-finite variance statistic or squared reduced-gradient
    norm, which would otherwise read as a failed test and grow the set to
    the cap; a squared norm that overflows raises that error without a
    warning.
    """
    if stats.n < 2:
        raise ValueError("norm test needs at least two samples (variance undefined)")
    if not math.isfinite(stats.variance_stat):
        raise ValueError(
            f"norm test got a non-finite variance statistic ({stats.variance_stat}) from "
            f"{stats.n} samples: a sampled gradient or SQP direction is not finite or overflows"
        )
    reduced_grad = np.asarray(reduced_grad, dtype=float)
    with np.errstate(over="ignore"):
        r_sq = float(reduced_grad @ reduced_grad)
    if not math.isfinite(r_sq):
        raise ValueError(
            f"norm test got a non-finite squared reduced-gradient norm ({r_sq}): "
            f"the step is not finite or overflows"
        )
    if r_sq == 0.0:
        raise ValueError("norm test needs a nonzero reduced gradient")
    bound = cfg.theta**2 * r_sq  # the statistic's bound, 0.0 where it underflows
    rho = stats.variance_stat / bound if bound else (math.inf if stats.variance_stat else 0.0)
    if rho <= 1.0:
        return TestOutcome(True, rho, stats.n)
    return TestOutcome(False, rho, math.ceil(min(rho * stats.n, cfg.max_sample_size)))


def sqp_norm_test(per_sample_dirs, mean_dir, cfg: TestConfig) -> TestOutcome:
    """Direction-variance test for the SQP step: ``norm_test`` on the
    statistics of the per-sample directions, with ``mean_dir`` as the
    reduced gradient, so rho = sum_i ||d_i - d_mean||^2 / (theta^2 (n-1) n
    ||mean_dir||^2) about the directions' own mean d_mean. rho does not
    change when both are scaled alike, so directions and reduced gradients
    (the directions times -1/alpha) give the same outcome. No driver calls
    it: the SQP step runs ``norm_test`` on the ``gradient_stats`` of the
    directions it keeps, through the drivers' one step rule
    (``algorithms._tested``), which is this test. ``per_sample_dirs`` is
    only read.
    """
    return norm_test(gradient_stats(per_sample_dirs), mean_dir, cfg)

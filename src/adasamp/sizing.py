"""A-posteriori sample-size tests and Monte-Carlo diagnostics.

The norm test compares the gradient estimator's variance statistic against
theta^2 times the squared reduced-gradient norm; the ratio rho of those two
quantities drives the sample-size update |S_next| = ceil(rho * |S|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import project
from .model import GradientStats, batch_grads, draw_samples

__all__ = [
    "TestConfig",
    "TestOutcome",
    "StationaryGradientError",
    "norm_test",
    "sqp_norm_test",
    "DiagnosticEstimate",
    "DiagnosticReport",
    "condition_diagnostic",
]


class StationaryGradientError(ValueError):
    """The reduced gradient is (numerically) zero: declare convergence
    instead of evaluating the test ratio."""


@dataclass(frozen=True)
class TestConfig:
    # not a pytest class, despite the name
    __test__ = False

    theta: float
    max_sample_size: int = 10**6
    stationarity_tol: float = 1e-8

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.max_sample_size < 2:
            raise ValueError("max_sample_size must be >= 2 (the variance test needs two samples)")
        if self.stationarity_tol <= 0:
            raise ValueError("stationarity_tol must be positive")


@dataclass(frozen=True)
class TestOutcome:
    passed: bool
    rho: float
    next_size: int


def _outcome(rho: float, current: int, cfg: TestConfig) -> TestOutcome:
    if rho <= 1.0:
        return TestOutcome(True, rho, current)
    if math.isfinite(rho):
        grown = math.ceil(rho * current)
    else:
        grown = cfg.max_sample_size
    return TestOutcome(False, rho, min(grown, cfg.max_sample_size))


def norm_test(stats: GradientStats, reduced_grad, cfg: TestConfig) -> TestOutcome:
    """Test whether the current sample size controls the gradient error.

    rho = variance_stat / (theta^2 ||R||^2); the test passes iff rho <= 1,
    in which case the sample size is kept, otherwise it grows to
    ceil(rho * n) clamped to the configured maximum.
    """
    if stats.n < 2:
        raise ValueError("norm test needs at least two samples (variance undefined)")
    if not math.isfinite(stats.variance_stat):
        raise ValueError(
            f"norm test got a non-finite variance statistic ({stats.variance_stat}) "
            f"from {stats.n} samples: a sampled gradient is not finite or overflows"
        )
    reduced_grad = np.asarray(reduced_grad, dtype=float)
    r_sq = float(reduced_grad @ reduced_grad)
    if math.sqrt(r_sq) <= cfg.stationarity_tol:
        raise StationaryGradientError(
            "reduced gradient is numerically zero; declare convergence before testing"
        )
    rho = stats.variance_stat / (cfg.theta**2 * r_sq)
    return _outcome(rho, stats.n, cfg)


def sqp_norm_test(per_sample_dirs, mean_dir, cfg: TestConfig) -> TestOutcome:
    """Direction-variance test for the SQP step.

    rho = sum_i ||d_i - d_mean||^2 / (theta^2 (n-1) n ||d_mean||^2). Because
    the per-sample reduced gradients are the directions scaled by -1/alpha,
    the ratio is identical whether directions or reduced gradients are passed.
    """
    dirs = np.asarray(per_sample_dirs, dtype=float)
    mean_dir = np.asarray(mean_dir, dtype=float)
    n = dirs.shape[0]
    if n < 2:
        raise ValueError("direction-variance test needs at least two samples")
    m_sq = float(mean_dir @ mean_dir)
    if math.sqrt(m_sq) <= cfg.stationarity_tol:
        raise StationaryGradientError(
            "mean direction is numerically zero; declare convergence before testing"
        )
    if np.all(dirs == dirs[0]):
        return _outcome(0.0, n, cfg)
    dev = dirs - mean_dir
    num = float(np.einsum("ij,ij->", dev, dev))
    rho = num / (cfg.theta**2 * (n - 1) * n * m_sq)
    return _outcome(rho, n, cfg)


@dataclass(frozen=True)
class DiagnosticEstimate:
    name: str
    estimate: float
    std_error: float


@dataclass(frozen=True)
class DiagnosticReport:
    """Monte-Carlo estimates, at a fixed point, of the quantities the
    sample-size theory controls, plus the parameter values they imply."""

    reduced_grad_sq: DiagnosticEstimate       # E ||R_S||^2
    projection_bias: DiagnosticEstimate       # ||E[Q_S - Q]||
    grad_err_sq: DiagnosticEstimate           # E ||grad F_S - grad F||^2
    reduced_grad_err_sq: DiagnosticEstimate   # E ||R_S - R||^2
    ref_reduced_grad_norm: float
    implied_theta: float
    implied_nu_sq: float
    implied_gamma_sq: float
    norm_bound_holds: bool
    sample_size: int
    resamples: int

    def estimates(self):
        return (
            self.reduced_grad_sq,
            self.projection_bias,
            self.grad_err_sq,
            self.reduced_grad_err_sq,
        )

    def to_csv(self) -> str:
        lines = ["quantity,estimate,std_error"]
        for e in self.estimates():
            lines.append(f"{e.name},{e.estimate!r},{e.std_error!r}")
        lines.append(f"implied_theta,{self.implied_theta!r},")
        lines.append(f"implied_nu_sq,{self.implied_nu_sq!r},")
        lines.append(f"implied_gamma_sq,{self.implied_gamma_sq!r},")
        lines.append(f"norm_bound_holds,{int(self.norm_bound_holds)},")
        return "\n".join(lines) + "\n"


def _mean_se(values: np.ndarray):
    m = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(values.shape[0]))
    return m, se


def condition_diagnostic(
    problem,
    cset,
    x,
    n: int,
    M: int,
    alpha: float,
    ref_size: int,
    seed: int,
) -> DiagnosticReport:
    """Estimate, over M fresh size-n sample sets at fixed x, the moments of
    the subsampled reduced gradient and gradient map against a ref_size-sample
    surrogate for the exact quantities.

    The surrogate must dominate the resample size (ref_size >= 100 n) or the
    report would mostly measure its own noise.
    """
    if M < 100:
        raise ValueError("diagnostic needs M >= 100 resamples")
    if ref_size < 100 * n:
        raise ValueError("ref_size must be >= 100 * n (surrogate too noisy)")
    x = np.asarray(x, dtype=float)

    # surrogate truth from one large set (stream coordinate 0)
    ref_set = draw_samples(problem, ref_size, 0, seed)
    ref_grad = batch_grads(problem, x, ref_set.realizations).mean(axis=0)
    ref_q = project(cset, x - alpha * ref_grad).point
    ref_r = (x - ref_q) / alpha
    ref_r_norm = float(np.linalg.norm(ref_r))

    rs_sq = np.empty(M)
    grad_err_sq = np.empty(M)
    r_err_sq = np.empty(M)
    q_diff = np.empty((M, x.shape[0]))
    for m in range(M):
        s = draw_samples(problem, n, m + 1, seed)
        g = batch_grads(problem, x, s.realizations).mean(axis=0)
        q = project(cset, x - alpha * g).point
        r = (x - q) / alpha
        rs_sq[m] = r @ r
        grad_err_sq[m] = float((g - ref_grad) @ (g - ref_grad))
        r_err_sq[m] = float((r - ref_r) @ (r - ref_r))
        q_diff[m] = q - ref_q

    rs_mean, rs_se = _mean_se(rs_sq)
    ge_mean, ge_se = _mean_se(grad_err_sq)
    re_mean, re_se = _mean_se(r_err_sq)
    bias_vec = q_diff.mean(axis=0)
    bias = float(np.linalg.norm(bias_vec))
    bias_se = float(np.linalg.norm(np.std(q_diff, axis=0, ddof=1) / math.sqrt(M)))

    r_sq = ref_r_norm**2
    theta_hat = math.sqrt(ge_mean / r_sq) if r_sq > 0 else math.inf
    nu_sq_hat = rs_mean / r_sq - 1.0 if r_sq > 0 else math.inf
    step_sq = float((ref_q - x) @ (ref_q - x))
    gamma_sq_hat = 2.0 * bias / step_sq if step_sq > 0 else math.inf
    # ||E R_S||^2 <= (1 + theta)^2 ||R||^2 is the implication the theory
    # predicts; check it within Monte-Carlo error.
    bound_holds = rs_mean <= (1.0 + theta_hat) ** 2 * r_sq + 3.0 * rs_se

    return DiagnosticReport(
        reduced_grad_sq=DiagnosticEstimate("reduced_grad_sq", rs_mean, rs_se),
        projection_bias=DiagnosticEstimate("projection_bias", bias, bias_se),
        grad_err_sq=DiagnosticEstimate("grad_err_sq", ge_mean, ge_se),
        reduced_grad_err_sq=DiagnosticEstimate("reduced_grad_err_sq", re_mean, re_se),
        ref_reduced_grad_norm=ref_r_norm,
        implied_theta=theta_hat,
        implied_nu_sq=nu_sq_hat,
        implied_gamma_sq=gamma_sq_hat,
        norm_bound_holds=bool(bound_holds),
        sample_size=n,
        resamples=M,
    )

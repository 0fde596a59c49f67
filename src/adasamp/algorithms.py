"""Optimization drivers: adaptive-sampling stochastic projected gradient
descent, the SQP variant for functional equality constraints, and the two
smoothed-CVaR drivers (extended (x, t) formulation and per-iteration nested
quantile estimation).

All drivers run one loop and differ only in its step. Each iteration draws a
fresh i.i.d. sample set from the stream keyed by (seed, iteration),
estimates, runs a variance test, and sizes the next set from its outcome.
The SQP step is the one exception within an iteration: when its test fails,
the current set is augmented in place (samples appended, never redrawn) and
the step is recomputed before the iterate advances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .geometry import ConstraintSet, ProductWithFree, project
from .model import (
    GradientStats,
    Rows,
    SampleSet,
    ScaledRows,
    SettingError,
    _as_rows,
    _blocked_matmul,
    _reading_ahead,
    batch_grads,
    batch_values,
    draw_samples,
    extend_samples,
    gradient_stats,
    sample_gradient,
    sample_objective,
)
from .records import RunRecord
from .risk import ExtendedProblem, expit, smoothed_cvar
from .sizing import TestConfig, norm_test

__all__ = [
    "OptimizerConfig",
    "OptimizerState",
    "RunResult",
    "EqualityConstraint",
    "run_spgd_adaptive",
    "sqp_directions",
    "run_sqp_adaptive",
    "run_cvar_extended",
    "run_nested_quantile",
]

STATUS_COMPLETED = "completed"
STATUS_STATIONARY = "stationary"
STATUS_SAMPLE_BUDGET = "sample-budget-exhausted"
STATUS_STEP_TOO_SMALL = "step-too-small"


@dataclass(frozen=True)
class OptimizerConfig:
    """Driver configuration.

    ``test`` is required: None is the fixed-size baseline, which runs no
    sample-size test and keeps ``initial_sample_size`` throughout (the rho
    column stays empty).
    Stopping: always after ``max_iters``; early on stationarity (reduced
    gradient norm at most STATIONARITY_TOL * (1 + ||x||)) or on a projected
    or SQP step that rounds to x (``_tested``).
    The rules of these fields are checked here and those of ``test``'s
    fields in ``TestConfig``; a breach raises ``SettingError``.
    """

    alpha: float
    max_iters: int
    test: Optional[TestConfig]
    initial_sample_size: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise SettingError("alpha", "must be positive and finite")
        if self.max_iters < 1:
            raise SettingError("max_iters", "must be >= 1")
        if self.seed < 0:
            raise SettingError("seed", "must be non-negative")
        if self.test is not None and self.initial_sample_size < 2:
            raise SettingError(
                "initial_sample_size", "must be >= 2 (the variance test needs two samples)"
            )
        if self.initial_sample_size < 1:
            raise SettingError("initial_sample_size", "must be >= 1")
        if self.test is not None and self.initial_sample_size > self.test.max_sample_size:
            raise SettingError(
                "max_sample_size",
                "must be >= the initial sample size (a failed test would shrink the set to it)",
            )


@dataclass
class OptimizerState:
    x: np.ndarray
    t: Optional[float]
    sample_size: int
    cumulative_grad_evals: int
    iteration: int


@dataclass
class RunResult:
    records: List[RunRecord]
    status: str
    state: OptimizerState
    iterates: List[np.ndarray] = field(default_factory=list)
    extras: dict = field(default_factory=dict)


@dataclass
class _Step:
    """One iteration's step, as the driver loop consumes it."""

    x_next: np.ndarray
    reduced_grad: np.ndarray
    n: int  # samples used, one gradient evaluation each
    objective: float = math.nan
    t: Optional[float] = None
    rho: Optional[float] = None
    next_n: Optional[int] = None  # size of the next set; None keeps n
    status: Optional[str] = None  # the run stops after this iteration
    extras: dict = field(default_factory=dict)


STATIONARITY_TOL = 1e-8


def _tested(step: _Step, x, point, stats: GradientStats, against, cfg: OptimizerConfig):
    """The one a-posteriori rule of every step, on the step's unprojected
    point: a nonzero mean gradient (SQP: mean direction) whose ``point``
    equals x bitwise ends the run as "step-too-small", untested, since its
    reduced gradient would be rounding over alpha, a false stationary point
    or a false passed test. Otherwise the stationarity guard on
    ``step.reduced_grad``, then, unless it trips or ``cfg.test`` is None,
    the norm test of ``stats`` against ``against``: sets the step's status,
    or its rho and next size; returns the outcome. A norm that overflows is
    inf, above any guard, and warns nothing."""
    if np.array_equal(point, x) and stats.mean_grad.any():
        step.status = STATUS_STEP_TOO_SMALL
        return None
    with np.errstate(over="ignore"):
        norm_x, norm_r = (float(np.linalg.norm(v)) for v in (x, step.reduced_grad))
    if norm_r <= STATIONARITY_TOL * (1.0 + norm_x):
        step.status = STATUS_STATIONARY
    elif cfg.test is not None:
        outcome = norm_test(stats, against, cfg.test)
        step.rho, step.next_n = outcome.rho, outcome.next_size
        return outcome
    return None


def _projected_step(cset: ConstraintSet, x, stats: GradientStats, cfg: OptimizerConfig) -> _Step:
    """The step x_next = P(x - alpha * mean gradient) and its reduced
    gradient (x - x_next) / alpha, with alpha from ``cfg``, ruled by
    ``_tested`` on the unprojected point x - alpha * mean gradient and
    against that reduced gradient. ``ValueError`` if a finite mean gradient
    gives a non-finite point.
    """
    alpha = cfg.alpha
    with np.errstate(over="ignore", invalid="ignore"):
        point = x - alpha * stats.mean_grad
    if not np.isfinite(point).all() and np.isfinite(stats.mean_grad).all():
        raise ValueError(f"the projected step x - alpha * mean gradient overflows at alpha={alpha}")
    x_next = project(cset, point).point
    step = _Step(x_next, (x - x_next) / alpha, stats.n)
    _tested(step, x, point, stats, step.reduced_grad, cfg)
    return step


def _error_norm(x, known_optimum) -> Optional[float]:
    if known_optimum is None:
        return None
    return float(np.linalg.norm(np.asarray(x, dtype=float) - known_optimum))


def _drive(
    problem,
    step: Callable[[np.ndarray, SampleSet, int], _Step],
    cfg: OptimizerConfig,
    x: np.ndarray,
    known_optimum=None,
) -> RunResult:
    """The iteration all drivers share.

    Each iteration draws the set of n samples keyed by (seed, k), and
    ``step(x, sample_set, k)`` estimates, tests and sizes on it. The loop
    counts the gradient evaluations, times and records each iteration,
    collects the step's extras into per-key lists, and stops on the step's
    status or after ``max_iters``. A set stays referenced until the next one
    is drawn: freed at the end of its step, it let glibc's allocator trim
    the heap between iterations, and a basic spgd run (seed 0, cap 2e5) took
    69-97k minor page faults instead of 26-28k, on one CPU or with the
    large passes split across two. The loop reads ahead (``_reading_ahead``).
    """
    n = cfg.initial_sample_size
    cum = 0
    records: List[RunRecord] = []
    iterates: List[np.ndarray] = []
    extras: dict = {}
    status = STATUS_COMPLETED

    with _reading_ahead():  # the next set is drawn while this one is used
        for k in range(cfg.max_iters):
            tic = time.perf_counter()
            sample_set = draw_samples(problem, n, k, cfg.seed)
            s = step(x, sample_set, k)
            cum += s.n
            err = _error_norm(x, known_optimum)
            wall = (time.perf_counter() - tic) * 1e3
            records.append(RunRecord(k, s.n, cum, s.objective, err, s.rho, s.t, wall))
            iterates.append(x)
            for key, value in s.extras.items():
                extras.setdefault(key, []).append(value)
            if s.status is not None:
                status = s.status
                break
            x = s.x_next
            n = s.next_n or s.n

    state = OptimizerState(x, None, n, cum, len(records))
    return RunResult(records, status, state, iterates, extras)


def _expectation_step(problem, cset: ConstraintSet, cfg: OptimizerConfig, aux_t: bool = False):
    """The projected step on the sample-average gradient of ``problem``;
    with ``aux_t`` the last coordinate of the iterate is recorded as t."""

    def step(x, sample_set, k):
        stats = sample_gradient(problem, x, sample_set)
        s = _projected_step(cset, x, stats, cfg)
        s.objective = sample_objective(problem, x, sample_set)
        if aux_t:
            s.t = float(x[-1])
        return s

    return step


def run_spgd_adaptive(problem, cset: ConstraintSet, cfg: OptimizerConfig, x0) -> RunResult:
    """Adaptive-sampling projected gradient descent.

    Per iteration: draw a fresh sample set, take the projected step, run the
    norm test on the same set, and size the next set from its outcome. An
    infeasible x0 is projected once before iteration 0. The error column
    measures the distance to the problem's ``known_optimum`` and stays empty
    when the problem has none.
    """
    x = project(cset, np.asarray(x0, dtype=float)).point
    step = _expectation_step(problem, cset, cfg)
    return _drive(problem, step, cfg, x, getattr(problem, "known_optimum", None))


def sqp_directions(grads, grad_G, G_val: float, alpha: float) -> np.ndarray:
    """Closed-form solutions of the equality-linearized step subproblem
    min <g_i, d> + ||d||^2 / (2 alpha) s.t. <grad_G, d> + G_val = 0, one per
    row g_i of ``grads``.

    KKT gives lambda_i = (G_val - alpha <grad_G, g_i>) / (alpha ||grad_G||^2)
    and d_i = -alpha (g_i + lambda_i grad_G); each d_i satisfies the
    linearized constraint exactly. A zero grad_G is the vacuous constraint
    0 = 0 when G_val is 0 and inconsistent otherwise. ``grads`` is an array
    or ``Rows``, read as ``_as_rows``. One ``Rows`` pass takes each part's
    gradient rows from their write (rows an array holds, or rows written
    into the directions), takes their products with grad_G by
    ``_blocked_matmul`` (the same bits at any BLAS thread or CPU count) and
    forms the directions in place; an overflow is left to the norm test,
    without a warning.
    """
    grad_G = np.asarray(grad_G, dtype=float)
    g_sq = float(grad_G @ grad_G)
    if g_sq == 0.0 and G_val != 0.0:
        raise ValueError("inconsistent linearization: zero constraint gradient")
    grads = _as_rows(grads)

    def write(part, out):
        g = grads.write(part, out)
        with np.errstate(over="ignore", invalid="ignore"):
            if g_sq:
                products = _blocked_matmul(g, grad_G, np.empty(len(out)))
                lams = (G_val - alpha * products) / (alpha * g_sq)
                g = np.add(g, lams[:, None] * grad_G, out=out)
            return np.multiply(g, -alpha, out=out)

    return np.asarray(Rows(grads.shape, write))


@dataclass(frozen=True)
class EqualityConstraint:
    """Smooth scalar equality constraint G(x) = 0 given by value and gradient
    evaluators."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]


def run_sqp_adaptive(
    problem,
    constraint: EqualityConstraint,
    cfg: OptimizerConfig,
    x0,
    known_optimum=None,
) -> RunResult:
    """Adaptive-sampling SQP for min E[f(x; xi)] s.t. G(x) = 0.

    Each iteration linearizes G at x_k, forms per-sample step directions in
    closed form (``sqp_directions``), and rules the step x + mean direction
    by the projected steps' one rule (``_tested``: step-too-small, the
    stationarity guard, the norm test) on their ``gradient_stats``, with the
    mean direction as the reduced gradient. On failure the same sample set
    is augmented with the ceil(rho' |S|) - |S| draws that follow it on its
    stream (by prefix stability, the set a fresh draw of that size would
    give); only the new rows are evaluated, their directions appended, and
    the step recomputed. Only once the test
    passes does the iterate advance. If the sample cap is reached while the
    test still fails, the run terminates with status
    "sample-budget-exhausted".
    """

    def step(x, sample_set, k):
        # the linearization is fixed within the iteration, so each row's
        # direction is formed once and its gradient is not kept
        G_val = float(constraint.value(x))
        grad_G = np.asarray(constraint.grad(x), dtype=float)

        def directions(xis):
            return sqp_directions(batch_grads(problem, x, xis), grad_G, G_val, cfg.alpha)

        dirs = directions(sample_set.realizations)
        s = _Step(x, x, len(sample_set), extras={"augment_rounds": 0})  # filled in each round
        while True:
            stats = gradient_stats(dirs)
            d_mean = stats.mean_grad
            # the guard reads the directions scaled by -1/alpha, the projected
            # steps' scale (rho is the same on either); a rule that stops the
            # run after a round keeps the last test's rho
            s.x_next, s.reduced_grad, s.n = x + d_mean, -d_mean / cfg.alpha, stats.n
            outcome = _tested(s, x, s.x_next, stats, d_mean, cfg)
            if outcome is None or outcome.passed:
                break
            if outcome.next_size <= stats.n:
                s.status = STATUS_SAMPLE_BUDGET  # already at the cap, test still failing
                break
            sample_set = extend_samples(problem, sample_set, outcome.next_size)
            dirs = np.concatenate([dirs, directions(sample_set.realizations[stats.n:])])
            s.extras["augment_rounds"] += 1

        s.objective = sample_objective(problem, x, sample_set)
        s.extras.update(lin_residuals=abs(float(grad_G @ d_mean) + G_val), constraint_values=G_val)
        return s

    return _drive(problem, step, cfg, np.asarray(x0, dtype=float), known_optimum)


def run_cvar_extended(
    problem,
    cset: ConstraintSet,
    beta: float,
    epsilon: float,
    cfg: OptimizerConfig,
    x0,
) -> RunResult:
    """Smoothed-CVaR minimization over (x, t) with the product set C x R.

    t0 defaults to the sample mean of f(x0; xi) over the initial sample set
    and is recorded in the result extras.
    """
    extended = ExtendedProblem(problem, beta, epsilon)
    x_start = project(cset, np.asarray(x0, dtype=float)).point
    s0 = draw_samples(problem, cfg.initial_sample_size, 0, cfg.seed)
    t0 = sample_objective(problem, x_start, s0)
    product = ProductWithFree(cset)
    z = project(product, np.concatenate([x_start, [t0]])).point
    result = _drive(extended, _expectation_step(extended, product, cfg, aux_t=True), cfg, z)
    z = result.state.x
    result.state.x, result.state.t = z[:-1], float(z[-1])
    result.extras["t0"] = t0
    return result


def run_nested_quantile(
    problem,
    cset: ConstraintSet,
    beta: float,
    epsilon: float,
    cfg: OptimizerConfig,
    x0,
) -> RunResult:
    """Smoothed-CVaR minimization by per-iteration quantile estimation.

    Each iteration solves the scalar problem for t on the current sample
    values, freezes it, and takes a projected step in x on the gradient
    (1/|S|) sum_i sigma((f_i - t)/epsilon) grad f_i. The norm test on that
    gradient's statistics drives the sample size exactly as in the
    risk-neutral driver. The logged t and objective estimate are
    ``smoothed_cvar`` of the sample values.
    """

    def step(x, sample_set, k):
        fs = batch_values(problem, x, sample_set.realizations)
        t_k, objective = smoothed_cvar(fs, beta, epsilon)
        grads = batch_grads(problem, x, sample_set.realizations)
        weights = expit((fs - t_k) / epsilon)
        s = _projected_step(cset, x, gradient_stats(ScaledRows(grads, weights)), cfg)
        s.objective, s.t = objective, t_k
        return s

    x = project(cset, np.asarray(x0, dtype=float)).point
    result = _drive(problem, step, cfg, x)
    result.state.t = result.records[-1].t_aux
    return result

"""Optimization drivers: adaptive-sampling stochastic projected gradient
descent, the SQP variant for functional equality constraints, and the two
smoothed-CVaR drivers (extended (x, t) formulation and per-iteration nested
quantile estimation).

All drivers share the same sampling discipline: a fresh i.i.d. sample set per
iteration, drawn from the stream keyed by (seed, iteration). The SQP driver
is the one exception within an iteration: when its test fails, the current
set is augmented in place (samples appended, never redrawn) and the step is
recomputed before the iterate advances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .geometry import ConstraintSet, ProductWithFree, project
from .model import (
    SampleSet,
    batch_grads,
    batch_values,
    draw_samples,
    gradient_stats,
    sample_gradient,
    sample_objective,
)
from .records import RunRecord
from .risk import expit, extend_problem, quantile_solve, smooth_plus
from .sizing import TestConfig, TestOutcome, norm_test, sqp_norm_test

__all__ = [
    "OptimizerConfig",
    "OptimizerState",
    "RunResult",
    "EqualityConstraint",
    "spgd_step",
    "run_spgd_adaptive",
    "sqp_direction",
    "run_sqp_adaptive",
    "run_cvar_extended",
    "run_nested_quantile",
]

STATUS_COMPLETED = "completed"
STATUS_STATIONARY = "stationary"
STATUS_BUDGET = "budget-exhausted"
STATUS_SAMPLE_BUDGET = "sample-budget-exhausted"


@dataclass(frozen=True)
class OptimizerConfig:
    """Driver configuration.

    With ``adaptive`` False the sample-size test is disabled entirely and the
    size stays at ``initial_sample_size`` (the rho column stays empty).
    Stopping: always after ``max_iters``; early on stationarity (reduced
    gradient below test.stationarity_tol * (1 + ||x||)); early once
    ``grad_eval_budget`` cumulative gradient evaluations are spent.
    """

    alpha: float
    max_iters: int
    test: TestConfig
    initial_sample_size: int = 10
    seed: int = 0
    adaptive: bool = True
    grad_eval_budget: Optional[int] = None

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.adaptive and self.initial_sample_size < self.test.min_sample_size:
            raise ValueError(
                "initial_sample_size must be >= test.min_sample_size "
                "(the variance test needs at least two samples)"
            )
        if self.initial_sample_size < 1:
            raise ValueError("initial_sample_size must be >= 1")


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


def spgd_step(problem, cset: ConstraintSet, x, sample_set: SampleSet, alpha: float):
    """One projected gradient step on a sample-average gradient.

    Returns (x_next, reduced_grad, stats) with x_next = P(x - alpha * mean
    gradient) and reduced_grad = (x - x_next) / alpha.
    """
    x = np.asarray(x, dtype=float)
    stats = sample_gradient(problem, x, sample_set)
    x_next = project(cset, x - alpha * stats.mean_grad).point
    reduced_grad = (x - x_next) / alpha
    return x_next, reduced_grad, stats


def _stationary(reduced_grad, x, test: TestConfig) -> bool:
    guard = test.stationarity_tol * (1.0 + float(np.linalg.norm(x)))
    return float(np.linalg.norm(reduced_grad)) <= guard


def _error_norm(x, known_optimum) -> Optional[float]:
    if known_optimum is None:
        return None
    return float(np.linalg.norm(np.asarray(x, dtype=float) - known_optimum))


_UNSET = object()


def run_spgd_adaptive(
    problem,
    cset: ConstraintSet,
    cfg: OptimizerConfig,
    x0,
    known_optimum=_UNSET,
) -> RunResult:
    """Adaptive-sampling projected gradient descent.

    Per iteration: draw a fresh sample set, take the projected step, run the
    norm test on the same set, and size the next set from its outcome. An
    infeasible x0 is projected once before iteration 0.
    """
    if known_optimum is _UNSET:
        known_optimum = getattr(problem, "known_optimum", None)
    return _projected_driver(
        problem, cset, cfg, x0, known_optimum=known_optimum, aux_t=False
    )


def _projected_driver(problem, cset, cfg, x0, known_optimum, aux_t: bool) -> RunResult:
    x = project(cset, np.asarray(x0, dtype=float)).point
    n = cfg.initial_sample_size
    cum = 0
    records: List[RunRecord] = []
    iterates: List[np.ndarray] = []
    status = STATUS_COMPLETED

    for k in range(cfg.max_iters):
        tic = time.perf_counter()
        sample_set = draw_samples(problem, n, k, cfg.seed)
        x_next, reduced_grad, stats = spgd_step(problem, cset, x, sample_set, cfg.alpha)
        cum += len(sample_set)
        obj = sample_objective(problem, x, sample_set)
        err = _error_norm(x[:-1] if aux_t else x, known_optimum)
        t_val = float(x[-1]) if aux_t else None

        rho = None
        next_n = n
        stationary = _stationary(reduced_grad, x, cfg.test)
        if cfg.adaptive and not stationary:
            outcome = norm_test(stats, reduced_grad, cfg.test)
            rho = outcome.rho
            next_n = outcome.next_size

        wall = (time.perf_counter() - tic) * 1e3
        records.append(RunRecord(k, n, cum, obj, err, rho, t_val, wall))
        iterates.append(x)
        if stationary:
            status = STATUS_STATIONARY
            break
        x = x_next
        n = next_n
        if cfg.grad_eval_budget is not None and cum >= cfg.grad_eval_budget:
            status = STATUS_BUDGET
            break

    state = OptimizerState(
        x=x if not aux_t else x[:-1],
        t=float(x[-1]) if aux_t else None,
        sample_size=n,
        cumulative_grad_evals=cum,
        iteration=len(records),
    )
    return RunResult(records, status, state, iterates)


def sqp_direction(grad_F, grad_G, G_val: float, alpha: float) -> np.ndarray:
    """Closed-form solution of the equality-linearized step subproblem
    min <grad_F, d> + ||d||^2 / (2 alpha) s.t. <grad_G, d> + G_val = 0.

    KKT gives lambda = (G_val - alpha <grad_G, grad_F>) / (alpha ||grad_G||^2)
    and d = -alpha (grad_F + lambda grad_G); d satisfies the linearized
    constraint exactly.
    """
    grad_F = np.asarray(grad_F, dtype=float)
    grad_G = np.asarray(grad_G, dtype=float)
    g_sq = float(grad_G @ grad_G)
    if g_sq == 0.0:
        if G_val != 0.0:
            raise ValueError("inconsistent linearization: zero constraint gradient")
        return -alpha * grad_F  # vacuous constraint 0 = 0
    lam = (float(G_val) - alpha * float(grad_G @ grad_F)) / (alpha * g_sq)
    return -alpha * (grad_F + lam * grad_G)


def _sqp_directions(grads: np.ndarray, grad_G: np.ndarray, G_val: float, alpha: float):
    g_sq = float(grad_G @ grad_G)
    if g_sq == 0.0:
        if G_val != 0.0:
            raise ValueError("inconsistent linearization: zero constraint gradient")
        return -alpha * grads
    lams = (G_val - alpha * (grads @ grad_G)) / (alpha * g_sq)
    return -alpha * (grads + lams[:, None] * grad_G)


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
    closed form, and runs the direction-variance test. On failure the same
    sample set is augmented with ceil(rho' |S|) - |S| additional i.i.d. draws
    (the stream's prefix stability makes this an exact append) and the step
    is recomputed; only once the test passes does the iterate advance. If the
    sample cap is reached while the test still fails, the run terminates with
    status "sample-budget-exhausted".
    """
    x = np.asarray(x0, dtype=float)
    n = cfg.initial_sample_size
    cum = 0
    records: List[RunRecord] = []
    iterates: List[np.ndarray] = []
    lin_residuals: List[float] = []
    constraint_values: List[float] = []
    augment_rounds: List[int] = []
    status = STATUS_COMPLETED

    for k in range(cfg.max_iters):
        tic = time.perf_counter()
        sample_set = draw_samples(problem, n, k, cfg.seed)
        grads = batch_grads(problem, x, sample_set.realizations)
        cum += len(sample_set)
        G_val = float(constraint.value(x))
        grad_G = np.asarray(constraint.grad(x), dtype=float)

        rounds = 0
        outcome: Optional[TestOutcome] = None
        stationary = False
        exhausted = False
        while True:
            dirs = _sqp_directions(grads, grad_G, G_val, cfg.alpha)
            d_mean = dirs.mean(axis=0)
            if _stationary(-d_mean / cfg.alpha, x, cfg.test):
                stationary = True
                break
            if not cfg.adaptive:
                break
            # per-sample reduced gradients are the directions scaled by
            # -1/alpha; testing them keeps the stationarity guard on the
            # same scale as the driver's
            outcome = sqp_norm_test(-dirs / cfg.alpha, -d_mean / cfg.alpha, cfg.test)
            if outcome.passed:
                break
            if outcome.next_size <= grads.shape[0]:
                exhausted = True  # already at the cap, test still failing
                break
            bigger = draw_samples(problem, outcome.next_size, k, cfg.seed)
            new_tail = bigger.realizations[grads.shape[0]:]
            grads = np.vstack([grads, batch_grads(problem, x, new_tail)])
            cum += new_tail.shape[0]
            sample_set = bigger
            rounds += 1

        obj = sample_objective(problem, x, sample_set)
        err = _error_norm(x, known_optimum)
        rho = outcome.rho if outcome is not None else None
        lin_res = abs(float(grad_G @ d_mean) + G_val)
        wall = (time.perf_counter() - tic) * 1e3
        records.append(RunRecord(k, len(sample_set), cum, obj, err, rho, None, wall))
        iterates.append(x)
        lin_residuals.append(lin_res)
        constraint_values.append(G_val)
        augment_rounds.append(rounds)

        if exhausted:
            status = STATUS_SAMPLE_BUDGET
            break
        if stationary:
            status = STATUS_STATIONARY
            break
        x = x + d_mean
        n = len(sample_set)
        if cfg.grad_eval_budget is not None and cum >= cfg.grad_eval_budget:
            status = STATUS_BUDGET
            break

    state = OptimizerState(x, None, n, cum, len(records))
    extras = {
        "lin_residuals": lin_residuals,
        "constraint_values": constraint_values,
        "augment_rounds": augment_rounds,
    }
    return RunResult(records, status, state, iterates, extras)


def run_cvar_extended(
    problem,
    cset: ConstraintSet,
    beta: float,
    epsilon: float,
    cfg: OptimizerConfig,
    x0,
) -> RunResult:
    """Smoothed-CVaR minimization over (x, t) with the product set C x R.

    beta = 0 is plain expectation and dispatches to the risk-neutral driver.
    t0 defaults to the sample mean of f(x0; xi) over the initial sample set
    and is recorded in the result extras.
    """
    if beta == 0.0:
        return run_spgd_adaptive(problem, cset, cfg, x0)
    extended = extend_problem(problem, beta, epsilon)
    x_start = project(cset, np.asarray(x0, dtype=float)).point
    s0 = draw_samples(problem, cfg.initial_sample_size, 0, cfg.seed)
    t0 = float(np.mean(batch_values(problem, x_start, s0.realizations)))
    z0 = np.concatenate([x_start, [t0]])
    result = _projected_driver(
        extended,
        ProductWithFree(cset, 1),
        cfg,
        z0,
        known_optimum=None,
        aux_t=True,
    )
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
    risk-neutral driver. The logged objective estimate is the smoothed CVaR
    value t + mean(smooth_plus(f_i - t, epsilon))/(1 - beta).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly in (0, 1)")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    x = project(cset, np.asarray(x0, dtype=float)).point
    n = cfg.initial_sample_size
    cum = 0
    records: List[RunRecord] = []
    iterates: List[np.ndarray] = []
    status = STATUS_COMPLETED

    for k in range(cfg.max_iters):
        tic = time.perf_counter()
        sample_set = draw_samples(problem, n, k, cfg.seed)
        fs = batch_values(problem, x, sample_set.realizations)
        t_k = quantile_solve(fs, beta, epsilon)
        grads = batch_grads(problem, x, sample_set.realizations)
        cum += len(sample_set)
        weights = expit((fs - t_k) / epsilon)
        stats = gradient_stats(weights[:, None] * grads)
        x_next = project(cset, x - cfg.alpha * stats.mean_grad).point
        reduced_grad = (x - x_next) / cfg.alpha
        obj = float(t_k + np.mean(smooth_plus(fs - t_k, epsilon)) / (1.0 - beta))

        rho = None
        next_n = n
        stationary = _stationary(reduced_grad, x, cfg.test)
        if cfg.adaptive and not stationary:
            outcome = norm_test(stats, reduced_grad, cfg.test)
            rho = outcome.rho
            next_n = outcome.next_size

        wall = (time.perf_counter() - tic) * 1e3
        records.append(RunRecord(k, n, cum, obj, None, rho, t_k, wall))
        iterates.append(x)
        if stationary:
            status = STATUS_STATIONARY
            break
        x = x_next
        n = next_n
        if cfg.grad_eval_budget is not None and cum >= cfg.grad_eval_budget:
            status = STATUS_BUDGET
            break

    state = OptimizerState(x, records[-1].t_aux if records else None, n, cum, len(records))
    return RunResult(records, status, state, iterates)

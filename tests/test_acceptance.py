"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import expit

from adasamp.algorithms import (
    EqualityConstraint,
    OptimizerConfig,
    run_cvar_extended,
    run_nested_quantile,
    run_spgd_adaptive,
    run_sqp_adaptive,
    sqp_directions,
)
from adasamp.cli import ExperimentConfig, run_experiment
from adasamp.geometry import project
from adasamp.model import (
    StochasticProblem,
    batch_grads,
    batch_values,
    draw_samples,
    fill_rows,
    sample_gradient,
)
from adasamp.problems import make_basic_example, make_portfolio
from adasamp.records import csv_body
from adasamp.risk import ExtendedProblem, quantile_solve, smooth_plus, smoothed_cvar
from adasamp.sizing import TestConfig, norm_test
from oracles import (
    central_diff,
    cvar_empirical,
    kkt_sqp_oracle,
    qp_projection_oracle,
    random_sets,
    rel_err,
    spgd_step,
)

BASIC_SEED = 7
PORTFOLIO_SEED = 11
EVAL_SEED = 424242


def report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def basic():
    return make_basic_example(BASIC_SEED)


@pytest.fixture(scope="module")
def portfolio():
    return make_portfolio(PORTFOLIO_SEED)


@pytest.fixture(scope="module")
def basic_runs(basic):
    """Adaptive theta=0.5 vs fixed |S|=10, both 150 iterations at
    alpha=0.025 from x0 = ones. The sample cap (not pinned by the criteria)
    is lowered to 2e5 to stay inside the runtime budget."""
    problem, cset = basic
    x0 = np.ones(20)
    t0 = time.perf_counter()
    adaptive = run_spgd_adaptive(
        problem, cset,
        OptimizerConfig(
            alpha=0.025, max_iters=150,
            test=TestConfig(theta=0.5, max_sample_size=200_000),
            initial_sample_size=10, seed=0,
        ),
        x0,
    )
    adaptive_elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    fixed = run_spgd_adaptive(
        problem, cset,
        OptimizerConfig(
            alpha=0.025, max_iters=150, test=None,
            initial_sample_size=10, seed=0,
        ),
        x0,
    )
    fixed_elapsed = time.perf_counter() - t0
    return adaptive, fixed, adaptive_elapsed, fixed_elapsed


@pytest.fixture(scope="module")
def portfolio_eval_set(portfolio):
    problem, _ = portfolio
    return draw_samples(problem, 100_000, 0, EVAL_SEED)


@pytest.fixture(scope="module")
def portfolio_runs(portfolio):
    """Risk sweep (beta = 0, 0.5, 0.9, each <= 100 iterations) plus the
    nested-quantile run at beta = 0.9. The sampling-rate parameter shrinks
    as beta grows for the extended runs (2.0, 2.0, 1.5) and is larger (4.0)
    for the nested run, whose step gradient is (1 - beta) times smaller."""
    problem, cset = portfolio
    x0 = np.full(100, 0.01)
    t0 = time.perf_counter()
    runs = {}
    runs[0.0] = run_spgd_adaptive(
        problem, cset,
        OptimizerConfig(alpha=0.02, max_iters=100, test=TestConfig(theta=2.0),
                        initial_sample_size=10, seed=5),
        x0,
    )
    for beta, theta in ((0.5, 2.0), (0.9, 1.5)):
        runs[beta] = run_cvar_extended(
            problem, cset, beta, 0.1,
            OptimizerConfig(alpha=0.02, max_iters=100, test=TestConfig(theta=theta),
                            initial_sample_size=10, seed=5),
            x0,
        )
    nested = run_nested_quantile(
        problem, cset, 0.9, 0.1,
        OptimizerConfig(alpha=0.2, max_iters=150, test=TestConfig(theta=4.0),
                        initial_sample_size=10, seed=5),
        x0,
    )
    elapsed = time.perf_counter() - t0
    return runs, nested, elapsed


def test_criterion_01_basic_convergence(basic_runs):
    adaptive, _, elapsed, _ = basic_runs
    errs = np.array([r.error_norm for r in adaptive.records])
    two_orders = errs[-1] <= 1e-2 * errs[0]
    ks = np.array([r.iteration for r in adaptive.records])
    window = (ks >= 10) & (ks <= 150)
    slope = np.polyfit(ks[window], np.log(errs[window]), 1)[0]
    report(1, "basic-example convergence", two_orders and slope < 0 and elapsed < 30.0)


def test_criterion_02_fixed_vs_adaptive(basic_runs):
    adaptive, fixed, t_a, t_f = basic_runs
    sizes = [r.sample_size for r in adaptive.records]
    monotone = all(b >= a for a, b in zip(sizes, sizes[1:]))
    grew = any(b > a for a, b in zip(sizes, sizes[1:]))
    separated = fixed.records[-1].error_norm > adaptive.records[-1].error_norm
    same_iters = len(fixed.records) == len(adaptive.records) == 150
    report(2, "fixed-vs-adaptive separation",
           separated and monotone and grew and same_iters and t_a + t_f < 30.0)


def test_criterion_03_projection_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    cases = 0
    while cases < 500:
        dim = int(rng.integers(2, 7))
        for cset in random_sets(dim, rng):
            y = rng.normal(size=dim) * 2.0
            got = project(cset, y).point
            want = qp_projection_oracle(cset, y)
            worst = max(worst, float(np.linalg.norm(got - want)))
            cases += 1
    elapsed = time.perf_counter() - t0
    report(3, "projection oracle equivalence", worst <= 1e-8 and elapsed < 10.0)


def test_criterion_04_gradient_correctness(basic, portfolio):
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    ok = True

    def fd_check(grad_vec, fun, point):
        return rel_err(central_diff(fun, point), grad_vec) <= 1e-6

    for problem, _ in (basic, portfolio):
        s = draw_samples(problem, 30, 0, 77)
        for _ in range(5):
            x = rng.normal(size=problem.dim) * 0.5 + 0.5
            stats = sample_gradient(problem, x, s)
            ok &= fd_check(
                stats.mean_grad,
                lambda z: float(np.mean(batch_values(problem, z, s.realizations))),
                x,
            )

    base, _ = basic
    extended = ExtendedProblem(base, 0.9, 0.1)
    s = draw_samples(extended, 30, 0, 78)
    for _ in range(5):
        z = np.concatenate([rng.normal(size=20) * 0.5 + 0.5, [rng.normal() * 2 + 3]])
        mean_grad = np.asarray(extended.grad_many(z, s.realizations)).mean(axis=0)
        ok &= fd_check(
            mean_grad,
            lambda w: float(np.mean(extended.value_many(w, s.realizations))),
            z,
        )

    # nested-quantile objective: t is solved once at the base point, then
    # frozen while x varies
    beta, eps = 0.9, 0.1
    s = draw_samples(base, 30, 0, 79)
    for _ in range(5):
        x = rng.normal(size=20) * 0.5 + 0.5
        fs = batch_values(base, x, s.realizations)
        t_frozen = quantile_solve(fs, beta, eps)
        grads = batch_grads(base, x, s.realizations)
        grad_tilde = (expit((fs - t_frozen) / eps)[:, None] * grads).mean(axis=0)
        ok &= fd_check(
            grad_tilde,
            lambda z: float(np.mean(smooth_plus(
                batch_values(base, z, s.realizations) - t_frozen, eps))),
            x,
        )

    elapsed = time.perf_counter() - t0
    report(4, "gradient correctness", ok and elapsed < 5.0)


def test_criterion_05_smoothing_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    violations = 0
    for _ in range(100):
        vals = rng.normal(size=int(rng.integers(1, 60))) * rng.uniform(0.2, 4.0)
        for beta in (0.5, 0.9):
            bound = math.log(2.0) / (1.0 - beta)
            for eps in (0.1, 0.01):
                gap = abs(smoothed_cvar(vals, beta, eps)[1] - cvar_empirical(vals, beta))
                if gap > bound * eps + 1e-10:
                    violations += 1
    elapsed = time.perf_counter() - t0
    report(5, "smoothing bound", violations == 0 and elapsed < 5.0)


def test_criterion_06_quantile_solver():
    t0 = time.perf_counter()
    ok = True
    # constant list closed form
    for c, beta, eps in ((1.7, 0.8, 0.05), (-3.0, 0.5, 0.1), (0.2, 0.95, 0.01)):
        want = c - eps * math.log((1.0 - beta) / beta)
        ok &= abs(quantile_solve([c] * 7, beta, eps) - want) <= 1e-8
    # root residual on random lists
    rng = np.random.default_rng(66)
    for _ in range(50):
        vals = rng.normal(size=int(rng.integers(2, 300))) * 3.0
        beta = float(rng.uniform(0.05, 0.95))
        eps = float(rng.choice([0.1, 0.01]))
        t = quantile_solve(vals, beta, eps)
        ok &= abs(float(np.mean(expit((vals - t) / eps))) - (1.0 - beta)) <= 1e-10
    # large-sample normal quantile
    draws = np.random.default_rng(12345).standard_normal(100_000)
    ok &= abs(quantile_solve(draws, 0.9, 0.01) - 1.2815515655446004) <= 0.02
    elapsed = time.perf_counter() - t0
    report(6, "quantile solver", ok and elapsed < 10.0)


def test_criterion_07_sqp_step():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(500):
        dim = int(rng.integers(2, 9))
        grad_F = rng.normal(size=dim) * 3.0
        grad_G = rng.normal(size=dim)
        grad_G[0] += np.sign(grad_G[0] or 1.0)
        G_val = float(rng.normal())
        alpha = float(rng.uniform(0.01, 1.0))
        d = sqp_directions(np.atleast_2d(grad_F), grad_G, G_val, alpha)[0]
        worst = max(worst, float(np.linalg.norm(d - kkt_sqp_oracle(grad_F, grad_G, G_val, alpha))))

    # linearized feasibility along a full run
    c = np.array([1.0, 0.5, -0.3, 0.8, 0.2])
    problem_dim = 5
    problem = StochasticProblem(
        dim=problem_dim,
        sampler=lambda s, n: fill_rows(
            s, n, problem_dim, lambda g, out: np.add(c, 0.05 * g.standard_normal(out.shape), out=out)
        ),
        value_many=lambda x, xis: -(xis @ x),
        grad_many=lambda x, xis: -xis,
    )
    sphere = EqualityConstraint(
        value=lambda x: float(x @ x) - 1.0, grad=lambda x: 2.0 * np.asarray(x, float)
    )
    run = run_sqp_adaptive(
        problem, sphere,
        OptimizerConfig(alpha=0.1, max_iters=100,
                        test=TestConfig(theta=1.0, max_sample_size=20_000),
                        initial_sample_size=8, seed=2),
        np.full(problem_dim, 0.7),
    )
    lin_ok = max(run.extras["lin_residuals"]) <= 1e-10
    elapsed = time.perf_counter() - t0
    report(7, "sqp step", worst <= 1e-10 and lin_ok and elapsed < 10.0)


def test_criterion_08_descent_in_expectation(basic):
    t0 = time.perf_counter()
    problem, cset = basic
    a, b = problem.params["a"], problem.params["b"]
    alpha, theta = 0.025, 0.5
    x = np.full(20, 0.5)  # fixed non-stationary point

    # size the sample set the way the norm test would at this point
    n = 10
    test_cfg = TestConfig(theta=theta)
    for pilot in range(30):
        s = draw_samples(problem, n, pilot, 900)
        _, reduced, stats = spgd_step(problem, cset, x, s, alpha)
        outcome = norm_test(stats, reduced, test_cfg)
        if outcome.passed:
            break
        n = outcome.next_size

    # common 1e5-sample estimate of F; for this quadratic the sample average
    # reduces exactly to the eval set's first two moments
    eval_xis = draw_samples(problem, 100_000, 0, EVAL_SEED).realizations
    m1 = eval_xis.mean(axis=0)
    m2 = (eval_xis**2).mean(axis=0)

    def f_hat(z):
        return float(np.sum(a * (z**2 - 2.0 * z * b * m1 + b**2 * m2)))

    base_val = f_hat(x)
    deltas = np.empty(1000)
    for m in range(1000):
        s = draw_samples(problem, n, m, 901)
        x_next, _, _ = spgd_step(problem, cset, x, s, alpha)
        deltas[m] = f_hat(x_next) - base_val
    mean = deltas.mean()
    se = deltas.std(ddof=1) / math.sqrt(deltas.size)
    elapsed = time.perf_counter() - t0
    report(8, "descent in expectation", mean < 0 and mean + 3.0 * se < 0 and elapsed < 120.0)


def test_criterion_09_portfolio_risk_monotonicity(portfolio_runs, portfolio, portfolio_eval_set):
    runs, _, elapsed = portfolio_runs
    problem, _ = portfolio
    finals = {}
    for beta, run in runs.items():
        vals = batch_values(problem, run.state.x, portfolio_eval_set.realizations)
        finals[beta] = cvar_empirical(vals, beta)
    ordered = finals[0.0] <= finals[0.5] <= finals[0.9]
    iters_ok = all(len(r.records) <= 100 for r in runs.values())
    report(9, "portfolio risk monotonicity", ordered and iters_ok and elapsed < 180.0)


def test_criterion_10_extended_vs_nested_agreement(portfolio_runs, portfolio, portfolio_eval_set):
    runs, nested, elapsed = portfolio_runs
    problem, _ = portfolio
    extended = runs[0.9]
    cv = {}
    for name, run in (("extended", extended), ("nested", nested)):
        vals = batch_values(problem, run.state.x, portfolio_eval_set.realizations)
        cv[name] = cvar_empirical(vals, 0.9)
    rel = abs(cv["extended"] - cv["nested"]) / max(abs(cv["extended"]), abs(cv["nested"]))
    fewer_samples = nested.records[-1].sample_size <= extended.records[-1].sample_size
    report(10, "extended vs nested agreement", rel <= 0.02 and fewer_samples and elapsed < 180.0)


def test_criterion_11_statistical_estimators(basic):
    t0 = time.perf_counter()
    problem, _ = basic
    a, b = problem.params["a"], problem.params["b"]
    x = np.full(20, 0.7)
    grad_true = 2.0 * a * (x - b / 2.0)  # E grad f = 2a(x - b E[xi])

    # gradient unbiasedness: average of 1e4 size-8 sample-mean gradients vs
    # a 1e6-sample reference
    M, n = 10_000, 8
    mean_grads = np.empty((M, 20))
    for m in range(M):
        s = draw_samples(problem, n, m, 500)
        mean_grads[m] = np.asarray(batch_grads(problem, x, s.realizations)).mean(axis=0)
    avg = mean_grads.mean(axis=0)
    se_avg = mean_grads.std(axis=0, ddof=1) / math.sqrt(M)

    ref_n, chunk = 1_000_000, 100_000
    acc = np.zeros(20)
    acc_sq = np.zeros(20)
    for c in range(ref_n // chunk):
        xis = draw_samples(problem, chunk, c, 501).realizations
        g = 2.0 * a * (x - b * xis)
        acc += g.sum(axis=0)
        acc_sq += (g**2).sum(axis=0)
    ref = acc / ref_n
    ref_var = acc_sq / ref_n - ref**2
    se_ref = np.sqrt(ref_var / ref_n)
    grad_unbiased = np.all(np.abs(avg - ref) <= 4.0 * np.sqrt(se_avg**2 + se_ref**2))

    # variance-statistic unbiasedness: paired against the squared deviation
    # of the same sets' mean gradients from the exact gradient
    M2 = 4000
    diffs = np.empty(M2)
    for m in range(M2):
        s = draw_samples(problem, n, m, 502)
        stats = sample_gradient(problem, x, s)
        dev = stats.mean_grad - grad_true
        diffs[m] = stats.variance_stat - float(dev @ dev)
    var_unbiased = abs(diffs.mean()) <= 4.0 * diffs.std(ddof=1) / math.sqrt(M2)

    elapsed = time.perf_counter() - t0
    report(11, "statistical estimator checks", grad_unbiased and var_unbiased and elapsed < 120.0)


def test_criterion_12_determinism(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        for algo, extra in (("spgd", {}), ("cvar-nested", {"beta": 0.9, "epsilon": 0.1})):
            cfg = ExperimentConfig(
                problem="basic", algorithm=algo, alpha=0.025, theta=2.0,
                s0=10, max_iters=6, seed=0,
                output=str(tmp_path / f"{algo}_{tag}.csv"), **extra,
            )
            run_experiment(cfg)
            outputs.append((algo, tag))
    ok = True
    for algo in ("spgd", "cvar-nested"):
        body_a = csv_body(tmp_path / f"{algo}_first.csv")
        body_b = csv_body(tmp_path / f"{algo}_second.csv")
        ok &= body_a == body_b
    report(12, "determinism", ok)

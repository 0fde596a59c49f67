import os
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from adasamp import model, problems
from adasamp.algorithms import EqualityConstraint, OptimizerConfig, run_sqp_adaptive, sqp_directions
from adasamp.geometry import Intersection, NonNegativeOrthant, project
from adasamp.model import (
    ScaledRows,
    Stream,
    batch_grads,
    draw_samples,
    gradient_stats,
    sample_gradient,
    sample_objective,
)
from adasamp.problems import (
    BasicExample,
    PortfolioProblem,
    _max_return_infeasible,
    basic_optimum,
    make_basic_example,
    make_portfolio,
)
from adasamp.risk import ExtendedProblem
from adasamp.sizing import TestConfig
from oracles import blocked_product, central_diff, keyed_rows, rel_err, set_workers


@pytest.fixture(scope="module")
def basic():
    return make_basic_example(7)


@pytest.fixture(scope="module")
def portfolio():
    return make_portfolio(11)


class TestBasicExample:
    def test_parameter_ranges(self):
        ex = BasicExample.generate(3)
        assert np.all((1.0 <= ex.a) & (ex.a <= 2.0))
        assert np.all((-1.0 <= ex.b) & (ex.b <= 1.0))

    def test_same_seed_same_parameters(self):
        x = BasicExample.generate(5)
        y = BasicExample.generate(5)
        np.testing.assert_array_equal(x.a, y.a)
        np.testing.assert_array_equal(x.b, y.b)

    def test_constraint_is_orthant(self, basic):
        _, cset = basic
        assert isinstance(cset, NonNegativeOrthant) and cset.dim == 20

    def test_gradient_matches_finite_differences(self, basic):
        problem, _ = basic
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.normal(size=20)
            xi = rng.random(20)
            fd = central_diff(lambda z: np.asarray(problem.value_many(z, xi[None]))[0], x, h=1e-6)
            assert rel_err(fd, np.asarray(problem.grad_many(x, xi[None]))[0]) <= 1e-8

    def test_values_nonnegative(self, basic):
        problem, _ = basic
        s = draw_samples(problem, 200, 0, 1)
        x = problem.known_optimum
        assert np.all((x - problem.params["b"] * s.realizations) ** 2 @ problem.params["a"] >= 0)

    @pytest.mark.parametrize("n", [1, 7, 511, 512, 513, 1000, 1025])
    def test_batched_evaluators_match_reference_expressions_exactly(self, basic, n):
        # the values' product in zero-padded 128-row blocks
        problem, _ = basic
        a, b = problem.params["a"], problem.params["b"]
        xis = draw_samples(problem, n, 0, 12).realizations
        before = xis.copy()
        for x in (np.zeros(20), np.random.default_rng(n).normal(size=20)):
            want = blocked_product((x - b * xis) ** 2, a)
            assert np.array_equal(problem.value_many(x, xis), want)
            assert np.array_equal(problem.grad_many(x, xis), 2.0 * a * (x - b * xis))
        assert np.array_equal(xis, before)

    def test_strong_convexity_of_sampled_gradients(self, basic):
        # grad f(x) - grad f(y) = 2 a (x - y) regardless of xi, and a >= 1
        problem, _ = basic
        s = draw_samples(problem, 500, 0, 6)
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=20), rng.normal(size=20)
        gx = np.asarray(batch_grads(problem, x, s.realizations)).mean(axis=0)
        gy = np.asarray(batch_grads(problem, y, s.realizations)).mean(axis=0)
        assert (gx - gy) @ (x - y) >= 2.0 * float((x - y) @ (x - y)) - 1e-9


class TestBasicOptimum:
    def test_paper_pair(self):
        np.testing.assert_allclose(
            basic_optimum(np.array([1.0, 1.0]), np.array([1.0, -1.0])), [0.5, 0.0]
        )

    def test_zero_b(self):
        np.testing.assert_array_equal(basic_optimum(np.ones(4), np.zeros(4)), np.zeros(4))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            basic_optimum(np.ones(3), np.ones(4))

    def test_stationarity_by_monte_carlo(self, basic):
        # projected gradient of a large sample average at the optimum is zero
        # up to sampling noise
        problem, cset = basic
        x_star = problem.known_optimum
        s = draw_samples(problem, 1_000_000, 0, 314)
        grads = np.asarray(batch_grads(problem, x_star, s.realizations))
        g = grads.mean(axis=0)
        alpha = 0.025
        x_next = project(cset, x_star - alpha * g).point
        reduced = (x_star - x_next) / alpha
        se_norm = np.sqrt(np.sum(grads.var(axis=0, ddof=1)) / len(s))
        assert np.linalg.norm(reduced) <= 3.0 * se_norm


class TestPortfolio:
    def test_gradient_is_minus_xi_everywhere(self, portfolio):
        problem, _ = portfolio
        xi = np.random.default_rng(0).normal(size=100)
        for x in (np.zeros(100), np.full(100, 0.01), np.random.default_rng(1).normal(size=100)):
            np.testing.assert_array_equal(np.asarray(problem.grad_many(x, xi[None]))[0], -xi)

    def test_objective_is_linear(self, portfolio):
        problem, _ = portfolio
        rng = np.random.default_rng(3)
        x, z, xi = rng.normal(size=100), rng.normal(size=100), rng.normal(size=100)
        lam = 0.3
        def value(point):
            return np.asarray(problem.value_many(point, xi[None]))[0]

        left = value(lam * x + (1 - lam) * z)
        right = lam * value(x) + (1 - lam) * value(z)
        assert left == pytest.approx(right, rel=1e-12)

    def test_mean_of_xi_is_A(self, portfolio):
        problem, _ = portfolio
        A, B = problem.params["A"], problem.params["B"]
        n = 100_000
        xis = draw_samples(problem, n, 0, 2718).realizations
        se = np.sqrt(np.diag(B @ B.T) / n)
        assert np.all(np.abs(xis.mean(axis=0) - A) <= 4.0 * se)

    def test_uniform_portfolio_feasibility_is_checked_not_assumed(self, portfolio):
        problem, cset = portfolio
        A = problem.params["A"]
        x = np.full(100, 0.01)
        claimed_feasible = float(A @ x) >= 1.05
        resid = np.linalg.norm(x - project(cset, x).point)
        assert claimed_feasible == (resid <= 1e-8)

    def test_constraint_structure(self, portfolio):
        _, cset = portfolio
        assert isinstance(cset, Intersection) and cset.dim == 100

    def test_feasibility_witness_logic(self):
        assert _max_return_infeasible(np.full(100, 1.0))
        assert not _max_return_infeasible(np.concatenate([np.full(99, 1.0), [1.06]]))

    def test_generate_records_redraws(self, portfolio):
        params = PortfolioProblem.generate(11)
        assert params.redraws == 0  # max(A) < 1.05 has probability 2^-100

    def test_sampler_prefix_stability(self, portfolio):
        # a bigger draw from the same stream must extend a smaller one
        # bitwise; a naive matmul breaks this at the last ulp because BLAS
        # accumulation order varies with the operand shape
        problem, _ = portfolio
        for n_small, n_big in ((7, 500), (511, 512), (512, 513)):
            small = draw_samples(problem, n_small, 3, 42)
            big = draw_samples(problem, n_big, 3, 42)
            np.testing.assert_array_equal(big.realizations[:n_small], small.realizations)

    # 1, 129, 513, 1025, 1537, 2049 and 4097 end in a one-row block of 128
    # rows, which is zero-padded; 2049 and 4097 also end in a one-row keyed
    # block
    @pytest.mark.parametrize(
        "n", [1, 127, 128, 129, 511, 512, 513, 1023, 1024, 1025, 1500, 1537, 2049, 4097, 20003]
    )
    def test_sampler_matches_reference_block_product_exactly(self, monkeypatch, portfolio, n):
        # each keyed block's normals, correlated per 128-row block of that
        # keyed block (a truncated block ends in a zero-padded one)
        problem, _ = portfolio
        A, B = problem.params["A"], problem.params["B"]
        want = keyed_rows(
            5, n, n, lambda g, rows: A + blocked_product(g.standard_normal((rows, 100)), B.T)
        )
        for workers in (1, 2, 3):
            set_workers(monkeypatch, workers)
            assert np.array_equal(problem.sampler(Stream(5, n), n), want), workers

    def test_sampler_matches_reference_when_the_correlate_falls_behind(self, monkeypatch, portfolio):
        # every correlate sleeps, so several keyed blocks are in flight at
        # once on the pool; all have returned with the sampler
        problem, _ = portfolio
        A, B = problem.params["A"], problem.params["B"]
        n = 5 * model._STREAM_BLOCK_ROWS + 700
        want = keyed_rows(
            5, 0, n, lambda g, rows: A + blocked_product(g.standard_normal((rows, 100)), B.T)
        )
        lock = threading.Lock()
        started, finished = [], []
        product = problems._blocked_matmul

        def slow(u, w, out):
            with lock:
                started.append(u.shape[0])
            threading.Event().wait(0.005)
            product(u, w, out)
            with lock:
                finished.append(u.shape[0])

        pool = ThreadPoolExecutor(3)
        monkeypatch.setattr(model, "_pool", (os.getpid(), pool))
        monkeypatch.setattr(problems, "_blocked_matmul", slow)
        set_workers(monkeypatch, 4)
        try:
            got = problem.sampler(Stream(5, 0), n)
            with lock:
                at_return = (len(started), len(finished))
            threading.Event().wait(0.05)
            assert (len(started), len(finished)) == at_return == (6, 6)
        finally:
            pool.shutdown()
        assert sum(finished) == n
        assert np.array_equal(got, want)


# sizes on both sides of the 128-row blocks of the per-row products and of
# the 2048-row keyed blocks; 4097 and 20003 split their blocks across two
# workers on
ROW_LOCAL_SIZES = (1, 2, 127, 128, 129, 255, 257, 511, 513, 2049, 4097, 20003)


class TestRowLocalProducts:
    """Row i of the value pass and of the SQP directions over n rows equals
    row i over any other number of rows, at one, two and three workers:
    every per-row product runs in full-shape BLAS calls, the partial block
    zero-padded."""

    @pytest.fixture(scope="class", params=["basic", "portfolio"])
    def case(self, request):
        make = make_basic_example if request.param == "basic" else make_portfolio
        problem, _ = make(3)
        xis = draw_samples(problem, max(ROW_LOCAL_SIZES), 1, 6).realizations
        x = np.linspace(0.5, 1.5, problem.dim) / problem.dim
        return problem, xis, x

    def assert_row_local(self, monkeypatch, fn):
        set_workers(monkeypatch, 1)
        want = fn(max(ROW_LOCAL_SIZES))
        for workers in (1, 2, 3):
            set_workers(monkeypatch, workers)
            for n in ROW_LOCAL_SIZES:
                assert np.array_equal(fn(n), want[:n]), (workers, n)

    def test_value_rows(self, monkeypatch, case):
        problem, xis, x = case
        self.assert_row_local(monkeypatch, lambda n: np.asarray(problem.value_many(x, xis[:n])))

    def test_sqp_direction_rows(self, monkeypatch, case):
        problem, xis, x = case
        grads = np.asarray(batch_grads(problem, x, xis))
        grad_G = 2.0 * x
        self.assert_row_local(monkeypatch, lambda n: sqp_directions(grads[:n], grad_G, 0.25, 0.025))


# sizes around four keyed blocks of ``Rows`` (8192 rows) and eight blocks and a row
FOLD_EDGES = (8191, 8192, 8193, 16385)


class TestRows:
    """The packaged evaluators' ``Rows`` give the bits of the arrays that the
    evaluators formed before, at any row count and at one, two and three
    workers, and the moments of ``Rows`` are those of their array."""

    @pytest.fixture(scope="class", params=["basic", "portfolio"])
    def case(self, request):
        make = make_basic_example if request.param == "basic" else make_portfolio
        problem, _ = make(3)
        xis = draw_samples(problem, max(ROW_LOCAL_SIZES), 1, 6).realizations
        x = np.linspace(0.5, 1.5, problem.dim) / problem.dim
        if request.param == "basic":
            a, b = problem.params["a"], problem.params["b"]
            want = blocked_product((x - b * xis) ** 2, a), 2.0 * a * (x - b * xis)
        else:
            want = blocked_product(xis, -x), -xis
        return problem, xis, x, want

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_values_and_gradients_give_the_formed_bits(self, monkeypatch, case, workers):
        problem, xis, x, (values, grads) = case
        set_workers(monkeypatch, workers)
        for n in ROW_LOCAL_SIZES + FOLD_EDGES:
            assert np.array_equal(np.asarray(problem.value_many(x, xis[:n])), values[:n]), n
            assert np.array_equal(np.asarray(problem.grad_many(x, xis[:n])), grads[:n]), n

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_scaled_rows_over_rows_give_the_bits_over_the_array(self, monkeypatch, case, workers):
        problem, xis, x, _ = case
        scale = np.random.default_rng(5).random(xis.shape[0]) * 10.0
        set_workers(monkeypatch, workers)
        for n in ROW_LOCAL_SIZES + FOLD_EDGES:
            rows = problem.grad_many(x, xis[:n])
            for tail in (None, 1.0 - scale[:n]):
                over_rows = ScaledRows(rows, scale[:n], tail)
                over_array = ScaledRows(np.asarray(rows), scale[:n], tail)
                assert np.array_equal(np.asarray(over_rows), np.asarray(over_array)), n
                got, want = gradient_stats(over_rows), gradient_stats(over_array)
                assert np.array_equal(got.mean_grad, want.mean_grad), n
                np.testing.assert_equal(got.variance_stat, want.variance_stat)  # NaN at n = 1

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_moments_of_rows_equal_the_moments_of_their_array(self, monkeypatch, case, workers):
        problem, xis, x, _ = case
        set_workers(monkeypatch, workers)
        for n in (2, 3) + FOLD_EDGES:
            rows = problem.grad_many(x, xis[:n])
            mean, m2 = model._moments(rows)
            want_mean, want_m2 = model._moments(np.asarray(rows))
            assert np.array_equal(mean, want_mean) and m2 == want_m2, n


class TestSqpDirectionRows:
    """``sqp_directions`` forms its directions in one pass over the packaged
    ``Rows`` or over their formed arrays, with the bits of the formula over
    the gradient array: lambda from the padded block product, then
    lams * grad_G, + grads and * -alpha, at any row count and at one, two
    and three workers."""

    @pytest.fixture(scope="class", params=["basic", "portfolio"])
    def case(self, request):
        make = make_basic_example if request.param == "basic" else make_portfolio
        problem, _ = make(3)
        xis = draw_samples(problem, max(ROW_LOCAL_SIZES + FOLD_EDGES), 1, 6).realizations
        x = np.linspace(0.5, 1.5, problem.dim) / problem.dim
        return problem, xis, x

    @staticmethod
    def formula(grads, grad_G, G_val, alpha):
        if not grad_G.any():
            return -alpha * grads
        lams = (G_val - alpha * blocked_product(grads, grad_G)) / (alpha * float(grad_G @ grad_G))
        return (lams[:, None] * grad_G + grads) * -alpha

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("grad_G_scale, G_val", [(2.0, 0.25), (0.0, 0.0)])
    def test_one_pass_gives_the_formula_bits(self, monkeypatch, case, workers, grad_G_scale, G_val):
        problem, xis, x = case
        grad_G = grad_G_scale * x
        want = self.formula(np.asarray(problem.grad_many(x, xis)), grad_G, G_val, 0.025)
        set_workers(monkeypatch, workers)
        for n in ROW_LOCAL_SIZES + FOLD_EDGES:
            rows = problem.grad_many(x, xis[:n])
            assert np.array_equal(sqp_directions(rows, grad_G, G_val, 0.025), want[:n]), n
            got = sqp_directions(np.asarray(rows), grad_G, G_val, 0.025)
            assert np.array_equal(got, want[:n]), n


class TestOneIterationPeak:
    """One iteration (draw, ``sample_gradient``, ``sample_objective``) at a
    sample cap holds the sample set and no per-sample gradient array: the
    traced peak stays near one n x d array. Forming the gradients took it
    to 2.05x (basic) and 2.07x (extended). One SQP iteration at its cap
    holds the sample set and the directions, without the gradient array
    beside them that took it to 3.05x (basic) and 3.01x (portfolio)."""

    @staticmethod
    def peak(problem, x, n, d):
        tracemalloc.start()
        try:
            s = draw_samples(problem, n, 0, 0)
            sample_gradient(problem, x, s)
            sample_objective(problem, x, s)
            return tracemalloc.get_traced_memory()[1] / (n * d * 8)
        finally:
            tracemalloc.stop()

    def test_basic_at_2e5_rows(self, monkeypatch):
        set_workers(monkeypatch, 2)
        problem, _ = make_basic_example(0)
        assert self.peak(problem, np.full(20, 0.3), 200_000, 20) < 1.3

    def test_extended_at_1e5_rows(self, monkeypatch):
        set_workers(monkeypatch, 2)
        base, _ = make_portfolio(0)
        extended = ExtendedProblem(base, 0.9, 0.1)
        z = np.concatenate([np.full(100, 0.01), [0.0]])
        assert self.peak(extended, z, 100_000, 100) < 1.2

    @staticmethod
    def sqp_peak(problem, n):
        # one iteration with the cap at n, so without an augmentation round
        sphere = EqualityConstraint(value=lambda x: float(x @ x) - 1.0, grad=lambda x: 2.0 * x)
        cfg = OptimizerConfig(alpha=0.025, max_iters=1, test=TestConfig(0.5, max_sample_size=n),
                              initial_sample_size=n)
        x0 = np.full(problem.dim, problem.dim**-0.5)
        tracemalloc.start()
        try:
            result = run_sqp_adaptive(problem, sphere, cfg, x0)
            assert result.records[0].sample_size == n
            return tracemalloc.get_traced_memory()[1] / (n * problem.dim * 8)
        finally:
            tracemalloc.stop()

    def test_sqp_basic_at_2e5_rows(self, monkeypatch):
        set_workers(monkeypatch, 2)
        assert self.sqp_peak(make_basic_example(0)[0], 200_000) < 2.4

    def test_sqp_portfolio_at_1e5_rows(self, monkeypatch):
        set_workers(monkeypatch, 2)
        assert self.sqp_peak(make_portfolio(0)[0], 100_000) < 2.4

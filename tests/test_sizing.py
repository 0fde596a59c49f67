import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adasamp.algorithms import EqualityConstraint, OptimizerConfig, run_sqp_adaptive
from adasamp.model import GradientStats, StochasticProblem, fill_rows
from adasamp.problems import make_basic_example
from adasamp.sizing import TestConfig, norm_test, sqp_norm_test
from oracles import Hyperplane, condition_diagnostic, full_space, set_workers

CFG = TestConfig(theta=0.5)


def stats(variance_stat, n=10, dim=3):
    return GradientStats(np.zeros(dim), variance_stat, n)


class TestNormTest:
    def test_zero_variance_passes_with_zero_rho(self):
        out = norm_test(stats(0.0), np.array([1.0, 0.0, 0.0]), CFG)
        assert out.passed and out.rho == 0.0 and out.next_size == 10

    def test_boundary_rho_one_passes(self):
        r = np.array([2.0, 1.0, 2.0])
        var = CFG.theta**2 * float(r @ r)
        out = norm_test(stats(var), r, CFG)
        assert out.rho == pytest.approx(1.0) and out.passed
        assert out.next_size == 10

    def test_rho_two_doubles_size(self):
        r = np.array([1.0, 2.0, 2.0])
        var = 2.0 * CFG.theta**2 * float(r @ r)
        out = norm_test(stats(var, n=10), r, CFG)
        assert not out.passed
        assert out.rho == pytest.approx(2.0)
        assert out.next_size == 20

    def test_growth_clamped_to_cap(self):
        cfg = TestConfig(theta=0.5, max_sample_size=64)
        out = norm_test(stats(1e9, n=10), np.array([1e-2, 0.0, 0.0]), cfg)
        assert out.next_size == 64

    def test_growth_that_overflows_is_clamped_to_cap(self):
        # rho = 1e308 is finite, but ceil(rho * n) raised OverflowError
        out = norm_test(GradientStats(np.zeros(1), 1.0, 10), np.array([1e-4]), TestConfig(1e-150))
        assert not out.passed and out.rho == pytest.approx(1e308)
        assert out.next_size == TestConfig(1e-150).max_sample_size

    @pytest.mark.parametrize("variance, rho, passed, size", [(1e-300, math.inf, False, 1000),
                                                             (0.0, 0.0, True, 10)])
    def test_a_denominator_that_underflows_gives_rho_inf_or_zero(self, variance, rho, passed, size):
        # theta^2 * ||R||^2 = 1e-322 * 1e-20 underflows to 0.0, and the
        # division raised ZeroDivisionError
        cfg = TestConfig(1e-161, max_sample_size=1000)
        out = norm_test(stats(variance), np.array([1e-10, 0.0, 0.0]), cfg)
        assert (out.rho, out.passed, out.next_size) == (rho, passed, size)

    def test_near_zero_reduced_gradient_signals_convergence(self):
        # the drivers stop before testing; the test itself only refuses to
        # divide by a zero reduced gradient
        with pytest.raises(ValueError, match="nonzero reduced gradient"):
            norm_test(stats(1.0), np.zeros(3), CFG)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            norm_test(GradientStats(np.zeros(3), float("nan"), 1), np.ones(3), CFG)

    def test_non_finite_statistic_is_not_reported_as_too_few_samples(self):
        with pytest.raises(ValueError, match="non-finite") as info:
            norm_test(stats(float("nan"), n=10), np.ones(3), CFG)
        assert "two samples" not in str(info.value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e200])
    def test_non_finite_reduced_gradient_is_rejected(self, bad):
        # a NaN rho would read as a failed test and grow the set to the cap
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="non-finite squared reduced-gradient norm"
        ):
            norm_test(stats(1.0), np.array([1.0, bad, 0.0]), CFG)

    def test_a_squared_norm_that_overflows_is_the_named_error_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"reduced-gradient norm \(inf\)"):
                norm_test(stats(1.0, dim=2), np.array([1e200, 1e200]), CFG)


class TestSqpNormTest:
    def test_identical_directions_pass_with_zero_rho(self):
        dirs = np.tile(np.array([1.0, -2.0]), (6, 1))
        out = sqp_norm_test(dirs, dirs.mean(axis=0), CFG)
        assert out.passed and out.rho == 0.0

    def test_two_sample_symmetric_spread(self):
        mean = np.array([3.0, 0.0])
        v = np.array([0.0, 1.5])
        out = sqp_norm_test(np.stack([mean + v, mean - v]), mean, CFG)
        want = float(v @ v) / (CFG.theta**2 * float(mean @ mean))
        assert out.rho == pytest.approx(want, rel=1e-12)

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(3)
        dirs = rng.normal(size=(9, 4))
        mean = dirs.mean(axis=0)
        out = sqp_norm_test(dirs.copy(), mean, CFG)
        # written out directly from the definition
        n = dirs.shape[0]
        num = sum(float((d - mean) @ (d - mean)) for d in dirs)
        want = num / (CFG.theta**2 * (n - 1) * n * float(mean @ mean))
        assert out.rho == pytest.approx(want, abs=1e-12)

    def test_zero_mean_direction_rejected(self):
        dirs = np.array([[1.0, -2.0], [-1.0, 2.0]])
        with pytest.raises(ValueError, match="nonzero reduced gradient"):
            sqp_norm_test(dirs, dirs.mean(axis=0), CFG)

    def test_non_finite_mean_direction_is_rejected(self):
        dirs = np.array([[1.0, 2.0], [float("nan"), 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite variance statistic"):
            sqp_norm_test(dirs, dirs.mean(axis=0), CFG)

    def test_non_finite_statistic_is_rejected(self):
        # finite directions whose squared deviations overflow
        dirs = np.array([[1e200, 1.0], [-1e200, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite variance statistic"):
            sqp_norm_test(dirs, np.array([0.0, 1.0]), CFG)

    def test_a_nan_direction_stops_the_sqp_driver_with_an_error(self):
        # one NaN per-sample gradient used to push the set to the cap and end
        # the run as sample-budget-exhausted
        def grad_many(x, xis):
            grads = np.tile(x, (xis.shape[0], 1)) - xis
            grads[-1, 0] = np.nan
            return grads

        problem = StochasticProblem(
            dim=2,
            sampler=lambda s, n: fill_rows(s, n, 2, lambda g, out: g.random(out=out)),
            value_many=lambda x, xis: 0.5 * np.sum((x - xis) ** 2, axis=1),
            grad_many=grad_many,
        )
        sphere = EqualityConstraint(
            value=lambda x: float(x @ x) - 1.0, grad=lambda x: 2.0 * np.asarray(x, float)
        )
        cfg = OptimizerConfig(alpha=0.1, max_iters=5, test=CFG, initial_sample_size=8)
        with pytest.raises(ValueError, match="non-finite"):
            run_sqp_adaptive(problem, sphere, cfg, np.array([0.6, 0.8]))

    def test_scale_invariance_between_dirs_and_reduced_grads(self):
        rng = np.random.default_rng(5)
        dirs = rng.normal(size=(7, 3))
        alpha = 0.3
        a = sqp_norm_test(dirs.copy(), dirs.mean(axis=0), CFG)
        b = sqp_norm_test(-dirs / alpha, -dirs.mean(axis=0) / alpha, CFG)
        assert a.rho == pytest.approx(b.rho, rel=1e-12)

    def test_only_reads_its_argument(self):
        # the moment kernel works in scratch blocks of its own
        dirs = np.random.default_rng(6).normal(size=(40, 5)) + 0.5
        mean = dirs.mean(axis=0)
        work = dirs.copy()
        want = sqp_norm_test(dirs.copy(), mean, CFG)
        assert sqp_norm_test(work, mean, CFG) == want
        assert np.array_equal(work, dirs)
        # a read-only argument too
        frozen = dirs.copy()
        frozen.setflags(write=False)
        assert sqp_norm_test(frozen, mean, CFG) == want
        assert np.array_equal(frozen, dirs)

    @pytest.mark.parametrize("n", [4097, 12289])
    def test_same_outcome_at_any_worker_count(self, monkeypatch, n):
        # the moment kernel's blocks are split across CPUs
        dirs = np.random.default_rng(n).normal(size=(n, 6)) + 0.2
        mean = dirs.mean(axis=0)
        outcomes = []
        for workers in (1, 2, 3):
            set_workers(monkeypatch, workers)
            work = dirs.copy()
            outcomes.append(sqp_norm_test(work, mean, CFG))
            assert np.array_equal(work, dirs), workers
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


@settings(max_examples=80, deadline=None)
@given(
    var=st.floats(min_value=1e-6, max_value=1e3),
    theta=st.floats(min_value=1e-2, max_value=10.0),
    rnorm=st.floats(min_value=1e-3, max_value=1e3),
    n=st.integers(min_value=2, max_value=1000),
)
def test_rho_monotonicity_and_ratchet(var, theta, rnorm, n):
    cfg = TestConfig(theta=theta)
    r = np.array([rnorm, 0.0])
    out = norm_test(GradientStats(np.zeros(2), var, n), r, cfg)
    # strictly decreasing in theta and ||R||, strictly increasing in variance
    assert norm_test(GradientStats(np.zeros(2), var, n), r, TestConfig(theta=theta * 2)).rho < out.rho
    assert norm_test(GradientStats(np.zeros(2), var, n), 2 * r, cfg).rho < out.rho
    assert norm_test(GradientStats(np.zeros(2), var * 2, n), r, cfg).rho > out.rho
    # the update never shrinks the sample size, equality only on a pass
    assert out.next_size >= n
    assert out.passed == (out.next_size == n)


class TestConfigValidation:
    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError):
            TestConfig(theta=0.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, 1e200])
    def test_rejects_non_finite_theta_or_square(self, theta):
        # a NaN theta sent every set to the cap, an infinite one turned the
        # test off, and 1e200 ** 2 overflowed inside the test
        with pytest.raises(ValueError, match="theta must be positive and finite"):
            TestConfig(theta=theta)

    def test_rejects_min_below_two(self):
        with pytest.raises(ValueError):
            TestConfig(theta=1.0, max_sample_size=1)


@pytest.fixture(scope="module")
def basic():
    return make_basic_example(7)


class TestConditionDiagnostic:
    def test_unconstrained_reduced_grad_error_equals_grad_error(self, basic):
        problem, _ = basic
        x = np.full(20, 0.8)
        rep = condition_diagnostic(
            problem, full_space(20), x, n=8, M=150, alpha=0.025, ref_size=1600, seed=10
        )
        # with C = R^n the reduced gradient is the gradient itself
        assert rep.reduced_grad_err_sq.estimate == pytest.approx(
            rep.grad_err_sq.estimate, rel=1e-9
        )

    def test_doubling_n_halves_gradient_error(self, basic):
        problem, cset = basic
        x = np.full(20, 0.8)
        common = dict(alpha=0.025, seed=10, M=3000)
        r1 = condition_diagnostic(problem, cset, x, n=4, ref_size=1600, **common)
        r2 = condition_diagnostic(problem, cset, x, n=8, ref_size=1600, **common)
        ratio = r2.grad_err_sq.estimate / r1.grad_err_sq.estimate
        assert ratio == pytest.approx(0.5, rel=0.05)

    def test_affine_set_has_no_projection_bias(self, basic):
        problem, _ = basic
        cset = Hyperplane(np.ones(20), 8.0)
        x = np.full(20, 0.4)
        rep = condition_diagnostic(
            problem, cset, x, n=8, M=400, alpha=0.025, ref_size=1600, seed=10
        )
        assert rep.projection_bias.estimate <= 4.0 * rep.projection_bias.std_error

    def test_norm_bound_chain_holds(self, basic):
        problem, cset = basic
        rng = np.random.default_rng(0)
        x = np.abs(rng.normal(size=20))
        rep = condition_diagnostic(
            problem, cset, x, n=8, M=400, alpha=0.025, ref_size=1600, seed=11
        )
        assert rep.norm_bound_holds
        lhs = rep.reduced_grad_sq.estimate / rep.ref_reduced_grad_norm**2
        assert lhs <= (1.0 + rep.implied_theta) ** 2 + 3 * rep.reduced_grad_sq.std_error

    def test_rejects_small_resample_count(self, basic):
        problem, cset = basic
        with pytest.raises(ValueError):
            condition_diagnostic(
                problem, cset, np.ones(20), n=4, M=10, alpha=0.025, ref_size=1600, seed=0
            )

    def test_rejects_noisy_surrogate(self, basic):
        problem, cset = basic
        with pytest.raises(ValueError):
            condition_diagnostic(
                problem, cset, np.ones(20), n=8, M=200, alpha=0.025, ref_size=100, seed=0
            )

    def test_csv_serialization(self, basic):
        problem, cset = basic
        rep = condition_diagnostic(
            problem, cset, np.ones(20), n=4, M=150, alpha=0.025, ref_size=400, seed=0
        )
        text = rep.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "quantity,estimate,std_error"
        assert len(lines) == 9
        name, est, se = lines[1].split(",")
        assert name == "reduced_grad_sq"
        assert float(est) == rep.reduced_grad_sq.estimate
        assert float(se) == rep.reduced_grad_sq.std_error

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adasamp import risk
from adasamp.algorithms import OptimizerConfig, run_nested_quantile
from adasamp.model import ScaledRows, SettingError, draw_samples, gradient_stats, sample_gradient
from adasamp.problems import make_basic_example, make_portfolio
from adasamp.risk import (
    ExtendedProblem,
    check_cvar,
    quantile_solve,
    smooth_plus,
    smoothed_cvar,
)
from adasamp.sizing import TestConfig
from oracles import central_diff, cvar_empirical, rel_err, set_workers, var_empirical

RNG = np.random.default_rng(99)

value_lists = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=40
)


class TestSmoothPlus:
    def test_at_zero(self):
        assert smooth_plus(0.0, 0.1) == pytest.approx(0.1 * math.log(2.0))

    def test_positive_asymptote(self):
        assert smooth_plus(10.0, 0.1) == pytest.approx(10.0, abs=1e-15)

    def test_negative_asymptote_uses_safe_branch(self):
        out = smooth_plus(-10.0, 0.1)
        assert 0.0 <= out <= 1e-40

    def test_no_overflow_far_out(self):
        assert np.isfinite(smooth_plus(-1e6, 0.01))
        assert smooth_plus(1e6, 0.01) == pytest.approx(1e6)

    def test_vectorized(self):
        y = np.array([-1.0, 0.0, 2.0])
        out = smooth_plus(y, 0.5)
        assert out.shape == y.shape

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            smooth_plus(1.0, 0.0)


class TestSmoothPlusDeriv:
    # the derivative of smooth_plus(y, eps) in y is expit(y / eps), the
    # identity the extended gradient uses

    def test_logistic_symmetry_at_zero(self):
        assert risk.expit(0.0 / 0.3) == 0.5
        fd = (smooth_plus(1e-6, 0.3) - smooth_plus(-1e-6, 0.3)) / 2e-6
        assert fd == pytest.approx(0.5, rel=1e-7)

    def test_matches_finite_differences(self):
        for y in (-1.0, 0.3, 2.0):
            fd = (smooth_plus(y + 1e-6, 0.25) - smooth_plus(y - 1e-6, 0.25)) / 2e-6
            assert abs(fd - risk.expit(y / 0.25)) / abs(fd) <= 1e-7

    def test_saturates(self):
        eps = 0.1
        assert risk.expit(30 * eps / eps) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < risk.expit(-30 * eps / eps) < 1e-12


@settings(max_examples=100, deadline=None)
@given(y=st.floats(min_value=-100, max_value=100), eps=st.floats(min_value=1e-3, max_value=10))
def test_smoothing_envelope(y, eps):
    plus = max(y, 0.0)
    val = smooth_plus(y, eps)
    assert plus <= val <= plus + eps * math.log(2.0) + 1e-12


class TestVarEmpirical:
    def test_four_values_median_quantile(self):
        assert var_empirical([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0

    def test_beta_zero_is_minimum(self):
        vals = RNG.normal(size=17)
        assert var_empirical(vals, 0.0) == vals.min()

    def test_constant_list(self):
        for beta in (0.0, 0.3, 0.9):
            assert var_empirical([2.5] * 6, beta) == 2.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            var_empirical([], 0.5)


class TestCvarEmpirical:
    def test_beta_zero_is_mean(self):
        vals = RNG.normal(size=23)
        assert cvar_empirical(vals, 0.0) == pytest.approx(vals.mean())

    def test_two_point_list(self):
        # piecewise-linear dual objective minimized by hand: t + 2*mean((v-t)+)
        # equals 1 on both breakpoints of {0, 1}
        assert cvar_empirical([0.0, 1.0], 0.5) == pytest.approx(1.0)

    def test_dominates_var(self):
        for _ in range(100):
            vals = RNG.normal(size=int(RNG.integers(1, 30))) * RNG.uniform(0.5, 3)
            for beta in (0.5, 0.9):
                assert cvar_empirical(vals, beta) >= var_empirical(vals, beta) - 1e-12

    def test_matches_slow_scan(self):
        # independent re-evaluation of the dual objective on a dense t grid
        vals = RNG.normal(size=40)
        beta = 0.7
        grid = np.sort(vals)
        slow = min(
            float(t + np.mean(np.maximum(vals - t, 0.0)) / (1.0 - beta)) for t in grid
        )
        assert cvar_empirical(vals, beta) == pytest.approx(slow, rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(values=value_lists, c=st.floats(min_value=-10, max_value=10), lam=st.floats(min_value=0.1, max_value=5))
def test_cvar_coherence_slice(values, c, lam):
    vals = np.array(values)
    base = cvar_empirical(vals, 0.5)
    # monotone nondecreasing in beta
    assert cvar_empirical(vals, 0.9) >= base - 1e-9
    # translation equivariance and positive homogeneity
    assert cvar_empirical(vals + c, 0.5) == pytest.approx(base + c, abs=1e-9)
    assert cvar_empirical(lam * vals, 0.5) == pytest.approx(lam * base, rel=1e-9, abs=1e-9)


class TestLazyExpit:
    def test_within_ulps_of_scipy(self):
        from scipy.special import expit

        edges = [0.0, 1e-300, 30.0, 745.0, 1e3, np.inf]
        grid = np.concatenate([edges, np.negative(edges), np.linspace(-40.0, 40.0, 8001)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # exp(745) and exp(1e3) overflow silently
            got = risk.expit(grid)
            exact = [risk.expit(v) for v in (-np.inf, 0.0, np.inf, np.nan)]
        assert got.dtype == np.float64
        want = expit(grid)
        # 1/(1 + exp(-x)) differs from scipy's branch formula by at most 2
        # ulps on this grid, and by 4 on a dense grid over [-60, 60]
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
        assert exact[:3] == [0.0, 0.5, 1.0] and math.isnan(exact[3])

    def test_module_global_is_looked_up_at_call_time(self, monkeypatch):
        # replacing adasamp.risk.expit must reach every caller that evaluates
        # the logistic in the quantile solve and the extended gradient
        calls = []
        original = risk.expit

        def counted(x):
            calls.append(1)
            return original(x)

        monkeypatch.setattr(risk, "expit", counted)
        quantile_solve(np.arange(10.0), 0.9, 0.1)
        assert len(calls) > 0
        calls.clear()
        base, _ = make_basic_example(7)
        s = draw_samples(base, 4, 0, 5)
        ExtendedProblem(base, 0.5, 0.1).grad_many(np.full(21, 0.3), s.realizations)
        assert len(calls) == 1  # one logistic pass per gradient pass
        calls.clear()
        problem, cset = make_portfolio(0)
        cfg = OptimizerConfig(alpha=0.2, max_iters=2, test=TestConfig(theta=4.0),
                              initial_sample_size=10, seed=0)
        run_nested_quantile(problem, cset, 0.9, 0.1, cfg, np.full(100, 0.01))
        assert len(calls) > 0


class TestQuantileSolve:
    def test_constant_list_beta_half(self):
        assert quantile_solve([3.0] * 5, 0.5, 0.2) == pytest.approx(3.0, abs=1e-10)

    def test_constant_list_closed_form(self):
        c, beta, eps = 1.7, 0.8, 0.05
        want = c - eps * math.log((1 - beta) / beta)
        assert quantile_solve([c] * 4, beta, eps) == pytest.approx(want, abs=1e-8)

    def test_root_residual(self):
        from scipy.special import expit

        for _ in range(25):
            vals = RNG.normal(size=int(RNG.integers(2, 200))) * 3
            beta = float(RNG.uniform(0.05, 0.95))
            eps = float(RNG.choice([0.1, 0.01]))
            t = quantile_solve(vals, beta, eps)
            resid = abs(float(np.mean(expit((vals - t) / eps))) - (1 - beta))
            assert resid <= 1e-10

    def test_normal_quantile(self):
        vals = np.random.default_rng(12345).standard_normal(100_000)
        t = quantile_solve(vals, 0.9, 0.01)
        assert abs(t - 1.2815515655446004) <= 0.02

    def test_rejects_boundary_beta(self):
        with pytest.raises(ValueError):
            quantile_solve([1.0, 2.0], 0.0, 0.1)

    def test_rejects_an_empty_value_list(self):
        with pytest.raises(ValueError, match="empty value list"):
            quantile_solve([], 0.5, 0.1)

    def test_stops_once_the_bracket_reaches_floating_point_resolution(self, monkeypatch):
        # near 1e6 the spacing of floats (1.2e-10) exceeds QUANTILE_TOL, so
        # the width test never ends the bisection: the midpoint rounding to
        # an end of the bracket does, after 35 passes instead of all 200
        calls = []
        original = risk.expit

        def counted(x):
            calls.append(1)
            return original(x)

        monkeypatch.setattr(risk, "expit", counted)
        values = 1e6 + np.random.default_rng(0).standard_normal(50)
        t = quantile_solve(values, 0.9, 0.1)
        assert len(calls) == 35
        assert values.min() < t < values.max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values_before_any_pass(self, monkeypatch, bad):
        # a NaN used to run all 200 bisection passes and return NaN, and an
        # infinite value returned an infinite t after none
        calls = []
        original = risk.expit

        def counted(x):
            calls.append(1)
            return original(x)

        monkeypatch.setattr(risk, "expit", counted)
        values = np.array([0.5, bad, 2.0])
        with pytest.raises(ValueError, match="finite"):
            quantile_solve(values, 0.9, 0.1)
        with pytest.raises(ValueError, match="finite"):
            smoothed_cvar(values, 0.9, 0.1)
        assert calls == []


class TestSmoothedCvar:
    def test_constant_list_within_bound(self):
        for beta in (0.3, 0.5, 0.9):
            eps = 0.1
            _, out = smoothed_cvar([4.0] * 6, beta, eps)
            assert abs(out - 4.0) <= eps * math.log(2.0) / (1.0 - beta) + 1e-12

    def test_small_epsilon_limits_to_exact_cvar(self):
        assert smoothed_cvar([0.0, 1.0], 0.5, 1e-6)[1] == pytest.approx(1.0, abs=1e-5)

    def test_returns_the_quantile_root(self):
        vals = RNG.normal(size=50)
        t, value = smoothed_cvar(vals, 0.9, 0.1)
        assert t == quantile_solve(vals, 0.9, 0.1)
        want = t + np.mean(smooth_plus(vals - t, 0.1)) / (1.0 - 0.9)
        assert value == want

    def test_bound_on_random_lists(self):
        for _ in range(100):
            vals = RNG.normal(size=int(RNG.integers(1, 60))) * RNG.uniform(0.2, 4)
            for beta in (0.5, 0.9):
                for eps in (0.1, 0.01):
                    gap = abs(smoothed_cvar(vals, beta, eps)[1] - cvar_empirical(vals, beta))
                    assert gap <= eps * math.log(2.0) / (1.0 - beta) + 1e-10


@pytest.fixture(scope="module")
def extended():
    problem, _ = make_basic_example(7)
    return ExtendedProblem(problem, 0.5, 0.1)


class TestExtendProblem:
    def test_value_when_f_equals_t(self, extended):
        xi = np.full(20, 0.5)
        x = extended.base.known_optimum + 0.1
        t = np.asarray(extended.base.value_many(x, xi[None]))[0]
        z = np.concatenate([x, [t]])
        want = t + 0.1 * math.log(2.0) / (1.0 - 0.5)
        assert extended.value_many(z, xi[None])[0] == pytest.approx(want)

    def test_gradient_matches_finite_differences(self, extended):
        problem = extended.base
        s = draw_samples(problem, 12, 0, 5)
        rng = np.random.default_rng(8)
        for _ in range(5):
            z = np.concatenate([np.abs(rng.normal(size=20)), [rng.normal()]])
            grads = np.asarray(extended.grad_many(z, s.realizations))
            mean_grad = grads.mean(axis=0)
            fd = central_diff(
                lambda w: float(np.mean(extended.value_many(w, s.realizations))), z
            )
            assert rel_err(fd, mean_grad) <= 1e-6

    def test_t_derivative_saturates(self, extended):
        xi = np.full(20, 0.5)
        x = np.ones(20)
        f = np.asarray(extended.base.value_many(x, xi[None]))[0]
        z = np.concatenate([x, [f - 100.0]])  # f >> t
        g = np.asarray(extended.grad_many(z, xi[None]))[0]
        assert g[-1] == pytest.approx(1.0 - 1.0 / (1.0 - 0.5), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 2049, 65537])
    def test_sample_gradient_has_the_bits_of_the_gradient_array(self, monkeypatch, extended, n):
        # the statistics read the scaled rows a block at a time, with the
        # bits of the (n, 21) array np.asarray forms
        s = draw_samples(extended, n, 0, 5)
        z = np.concatenate([np.full(20, 0.3), [0.8]])
        rows = extended.grad_many(z, s.realizations)
        assert isinstance(rows, ScaledRows) and len(rows) == n
        want = gradient_stats(np.asarray(rows))
        for workers in (1, 2, 3):
            set_workers(monkeypatch, workers)
            stats = sample_gradient(extended, z, s)
            assert np.array_equal(stats.mean_grad, want.mean_grad)
            assert stats.variance_stat == want.variance_stat

    def test_one_gradient_step_peaks_below_one_point_15_gradient_arrays(self):
        # at 2*10^5 rows and d = 100 the base gradients are 160 MB; the
        # (n, d + 1) array of the weighted rows took the peak to 2.03 times that
        base, _ = make_portfolio(0)
        extended = ExtendedProblem(base, 0.9, 0.1)
        n, d = 200_000, base.dim
        s = draw_samples(extended, n, 0, 0)
        z = np.concatenate([np.full(d, 1.0 / d), [0.0]])
        tracemalloc.start()
        try:
            sample_gradient(extended, z, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.15 * n * d * 8

    def test_dim_and_validation(self, extended):
        assert extended.dim == 21
        with pytest.raises(ValueError):
            ExtendedProblem(extended.base, 1.0, 0.1)
        with pytest.raises(ValueError):
            ExtendedProblem(extended.base, 0.5, 0.0)

    def test_grad_many_agrees_with_per_sample(self, extended):
        s = draw_samples(extended.base, 4, 0, 5)
        z = np.concatenate([np.full(20, 0.3), [0.8]])
        many = extended.grad_many(z, s.realizations)
        # the per-sample formula: s_i = sigma((f_i - t)/eps)/(1 - beta) scales
        # grad f_i = 2a(x - b xi_i) in x, and the t component is 1 - s_i
        from scipy.special import expit

        a, b = extended.base.params["a"], extended.base.params["b"]
        x, t = z[:-1], z[-1]
        single = []
        for xi in s.realizations:
            f = float(np.sum(a * (x - b * xi) ** 2))
            weight = expit((f - t) / 0.1) / (1.0 - 0.5)
            single.append(np.concatenate([weight * 2.0 * a * (x - b * xi), [1.0 - weight]]))
        np.testing.assert_allclose(many, np.array(single), rtol=1e-12)


@pytest.mark.parametrize("beta, epsilon, field", [
    (0.0, 0.1, "beta"), (1.0, 0.1, "beta"), (math.nan, 0.1, "beta"),
    (0.5, 0.0, "epsilon"), (0.5, math.inf, "epsilon"), (None, math.nan, "epsilon"),
])
def test_check_cvar_names_the_setting_it_rejects(beta, epsilon, field):
    with pytest.raises(SettingError) as err:
        check_cvar(beta, epsilon)
    assert err.value.field == field
    assert str(err.value) == f"{field} {err.value.reason}"


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_every_entry_point_rejects_a_non_finite_epsilon(eps):
    # an infinite epsilon used to run to completion with every objective
    # estimate inf, and a NaN one to fail as a non-finite gradient
    problem, cset = make_basic_example(7)
    cfg = OptimizerConfig(alpha=0.025, max_iters=2, test=TestConfig(theta=1.0))
    entry_points = [
        lambda: smooth_plus(np.array([-1.0, 2.0]), eps),
        lambda: quantile_solve(np.array([1.0, 2.0, 3.0]), 0.5, eps),
        lambda: ExtendedProblem(problem, 0.5, eps),
        lambda: run_nested_quantile(problem, cset, 0.5, eps, cfg, np.ones(20)),
    ]
    for call in entry_points:
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            call()

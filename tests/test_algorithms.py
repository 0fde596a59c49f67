import dataclasses
import math
import warnings

import numpy as np
import pytest

from adasamp import algorithms
from adasamp.algorithms import (
    EqualityConstraint,
    OptimizerConfig,
    run_cvar_extended,
    run_nested_quantile,
    run_spgd_adaptive,
    run_sqp_adaptive,
    sqp_directions,
)
from adasamp.geometry import NonNegativeOrthant, project
from adasamp.model import StochasticProblem, batch_values, draw_samples, fill_rows, sample_gradient
from adasamp.problems import make_basic_example, make_portfolio
from adasamp.records import csv_body, write_csv
from adasamp.risk import ExtendedProblem, smoothed_cvar
from adasamp.sizing import TestConfig
from oracles import (
    central_diff,
    feasibility_residual,
    full_space,
    kkt_sqp_oracle,
    reference_extended,
    reference_nested,
    reference_spgd,
    reference_sqp,
    rel_err,
    rowwise_problem,
    set_workers,
    spgd_step,
)

RNG = np.random.default_rng(515)


@pytest.fixture(scope="module")
def basic():
    return make_basic_example(7)


@pytest.fixture(scope="module")
def portfolio():
    return make_portfolio(11)


def quadratic_deterministic(c):
    """f(x; xi) = ||x - c||^2 / 2, independent of the sample."""
    c = np.asarray(c, dtype=float)
    return rowwise_problem(
        c.size,
        lambda s, n: fill_rows(s, n, 1, lambda g, out: g.random(out=out)),
        lambda x, xi: 0.5 * float((x - c) @ (x - c)),
        lambda x, xi: np.asarray(x - c, dtype=float),
    )


def noisy_linear(c, spread):
    """f(x; xi) = -<xi, x> with xi ~ N(c, spread^2 I)."""
    c = np.asarray(c, dtype=float)
    return StochasticProblem(
        dim=c.size,
        sampler=lambda s, n: fill_rows(
            s, n, c.size, lambda g, out: np.add(c, spread * g.standard_normal(out.shape), out=out)
        ),
        value_many=lambda x, xis: -(xis @ x),
        grad_many=lambda x, xis: -xis,
    )


def linear_returning(grad_many):
    """f(x; xi) = <x, xi> with grad_many supplied by the caller."""
    return StochasticProblem(
        dim=3,
        sampler=lambda s, n: fill_rows(s, n, 3, lambda g, out: np.add(0.5, g.random(out.shape), out=out)),
        value_many=lambda x, xis: xis @ x,
        grad_many=grad_many,
    )


def cfg(alpha=0.025, iters=40, theta=0.5, s0=10, seed=0, test_kw=None, **kw):
    """A driver configuration; ``test=None`` gives the fixed-size run."""
    kw.setdefault("test", TestConfig(theta=theta, **(test_kw or {})))
    return OptimizerConfig(alpha=alpha, max_iters=iters, initial_sample_size=s0, seed=seed, **kw)


class TestSpgdStep:
    def test_unconstrained_step_is_gradient_step(self, basic):
        problem, _ = basic
        s = draw_samples(problem, 20, 0, 1)
        x = np.full(20, 0.7)
        alpha = 0.025
        x_next, reduced, stats = spgd_step(problem, full_space(20), x, s, alpha)
        np.testing.assert_allclose(x_next, x - alpha * stats.mean_grad, rtol=1e-12)
        np.testing.assert_allclose(reduced, stats.mean_grad, rtol=1e-9, atol=1e-12)

    def test_zero_gradient_is_fixed_point(self):
        problem = quadratic_deterministic(np.zeros(3))
        s = draw_samples(problem, 5, 0, 0)
        x_next, reduced, _ = spgd_step(problem, full_space(3), np.zeros(3), s, 0.1)
        np.testing.assert_array_equal(x_next, np.zeros(3))
        np.testing.assert_array_equal(reduced, np.zeros(3))

    def test_hand_computed_single_sample_step(self, basic):
        problem, cset = basic
        a, b = problem.params["a"], problem.params["b"]
        s = draw_samples(problem, 1, 0, 9)
        xi = s.realizations[0]
        alpha = 0.025
        x0 = np.zeros(20)
        x_next, reduced, _ = spgd_step(problem, cset, x0, s, alpha)
        # by hand: grad at 0 is -2 a b xi, clamp the step at the orthant
        manual_next = np.maximum(0.0, 2.0 * alpha * a * b * xi)
        np.testing.assert_allclose(x_next, manual_next, atol=1e-12)
        np.testing.assert_allclose(reduced, (x0 - manual_next) / alpha, atol=1e-12)


class TestRunSpgdAdaptive:
    def test_error_decays_and_sizes_ratchet(self, basic):
        problem, cset = basic
        res = run_spgd_adaptive(problem, cset, cfg(iters=80), np.ones(20))
        errs = [r.error_norm for r in res.records]
        sizes = [r.sample_size for r in res.records]
        assert errs[-1] < 0.1 * errs[0]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))
        assert res.status == "completed"

    def test_iterates_stay_feasible(self, basic):
        problem, cset = basic
        res = run_spgd_adaptive(problem, cset, cfg(iters=30), -np.ones(20))
        for x in res.iterates + [res.state.x]:
            assert feasibility_residual(cset, x) <= 1e-10

    def test_infeasible_start_projected_once(self, basic):
        problem, cset = basic
        res = run_spgd_adaptive(problem, cset, cfg(iters=3), -np.ones(20))
        np.testing.assert_array_equal(res.iterates[0], np.zeros(20))

    def test_gradient_eval_accounting(self, basic):
        problem, cset = basic
        res = run_spgd_adaptive(problem, cset, cfg(iters=60), np.ones(20))
        assert res.records[-1].cumulative_grad_evals == sum(
            r.sample_size for r in res.records
        )

    def test_fixed_mode_keeps_size_and_leaves_rho_empty(self, basic):
        problem, cset = basic
        res = run_spgd_adaptive(problem, cset, cfg(iters=25, test=None), np.ones(20))
        assert {r.sample_size for r in res.records} == {10}
        assert all(r.rho is None for r in res.records)

    def test_tiny_theta_explodes_to_cap(self, basic):
        problem, cset = basic
        c = cfg(iters=10, theta=1e-6, test_kw={"max_sample_size": 5000})
        res = run_spgd_adaptive(problem, cset, c, np.ones(20))
        sizes = [r.sample_size for r in res.records]
        assert 5000 in sizes[:4]

    @pytest.mark.parametrize("make", [make_basic_example, make_portfolio])
    def test_an_overflowing_step_raises_without_a_warning(self, make):
        # x - alpha * mean gradient overflowed with a RuntimeWarning, and the
        # basic run then stopped as stationary on the projected infinities
        problem, cset = make(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="projected step .* overflows at alpha=1.7e"):
                run_spgd_adaptive(problem, cset, cfg(alpha=1.7e308, iters=3),
                                  np.full(problem.dim, 0.01))

    def test_a_reduced_gradient_whose_norm_overflows_warns_nothing(self):
        # at alpha ~ 1e-243 the step from the uniform start rounds to x; from
        # a start with a zero weight that weight moves, and the stationarity
        # guard's norm of the reduced gradient (x - x_next) / alpha overflowed
        # with a RuntimeWarning
        problem, cset = make_portfolio(3)
        c = cfg(alpha=1.2173085604029835e-243, iters=1, s0=222, seed=3, test=None)
        uniform = np.full(100, 0.01)
        zero_weight = uniform.copy()
        zero_weight[0], zero_weight[1] = 0.0, 0.02
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = [run_spgd_adaptive(problem, cset, c, x0) for x0 in (uniform, zero_weight)]
        assert [(len(r.records), r.status) for r in runs] == [(1, "step-too-small"), (1, "completed")]

    def test_a_squared_reduced_gradient_that_overflows_is_the_named_error(self):
        # the zero-weight start above, tested: ||R||^2 overflowed in the norm
        # test with a RuntimeWarning before its own error
        problem, cset = make_portfolio(3)
        c = cfg(alpha=1.2173085604029835e-243, iters=1, s0=222, seed=3, theta=1.0)
        x0 = np.full(100, 0.01)
        x0[0], x0[1] = 0.0, 0.02
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite squared reduced-gradient norm"):
                run_spgd_adaptive(problem, cset, c, x0)

    @pytest.mark.parametrize("driver", ["spgd", "spgd-fixed", "cvar-extended", "cvar-nested"])
    def test_a_step_below_the_rounding_of_x_ends_step_too_small(self, driver):
        # at alpha = 1e-20 the step x - alpha * mean gradient rounds to x:
        # the reduced gradient was exactly 0 (a false "stationary") or
        # Dykstra's rounding over alpha (rho ~ 5e-7, a false passed test)
        problem, cset = make_portfolio(0)
        c = cfg(alpha=1e-20, iters=3, theta=1.5)
        x0 = np.full(100, 0.01)
        if driver == "spgd-fixed":
            c = dataclasses.replace(c, test=None)
        if driver.startswith("cvar"):
            run = run_cvar_extended if driver == "cvar-extended" else run_nested_quantile
            res = run(problem, cset, 0.9, 0.1, c, x0)
        else:
            res = run_spgd_adaptive(problem, cset, c, x0)
        assert res.status == "step-too-small"
        assert len(res.records) == 1 and res.records[0].rho is None

    def test_stationary_stop_on_constant_objective(self):
        problem = quadratic_deterministic(np.zeros(3))
        res = run_spgd_adaptive(problem, full_space(3), cfg(iters=50), np.zeros(3))
        assert res.status == "stationary"
        assert len(res.records) == 1

    def test_q_linear_slope_negative_for_moderate_theta(self, basic):
        # log-error slope over iterations 10..150 stays negative at theta = 1.0
        # as well, not just at the tighter 0.5 setting
        problem, cset = basic
        c = cfg(iters=150, theta=1.0, test_kw={"max_sample_size": 100_000})
        res = run_spgd_adaptive(problem, cset, c, np.ones(20))
        ks = np.array([r.iteration for r in res.records])
        errs = np.array([r.error_norm for r in res.records])
        window = ks >= 10
        slope = np.polyfit(ks[window], np.log(errs[window]), 1)[0]
        assert slope < 0


class TestReferenceSpgd:
    """``run_spgd_adaptive`` against ``oracles.reference_spgd``, the same run
    written out as a plain loop. The sets cross a keyed block (2048 rows)
    and the split size of ``set_workers`` (4096 rows) on their way to the
    cap, so at two workers the run also splits its passes and reads ahead."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "make, alpha, theta, iters, start",
        [(make_basic_example, 0.025, 0.02, 30, 1.0), (make_portfolio, 0.02, 0.3, 20, 0.01)],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_records_and_status_of_the_plain_loop(
        self, monkeypatch, tmp_path, workers, make, alpha, theta, iters, start, seed
    ):
        problem, cset = make(seed)
        c = cfg(alpha=alpha, iters=iters, theta=theta, seed=seed, test_kw={"max_sample_size": 6000})
        x0 = np.full(problem.dim, start)
        set_workers(monkeypatch, workers)
        res = run_spgd_adaptive(problem, cset, c, x0)
        want, status = reference_spgd(problem, cset, c, x0)
        write_csv(res.records, tmp_path / "run.csv")
        write_csv(want, tmp_path / "reference.csv")
        assert csv_body(tmp_path / "run.csv") == csv_body(tmp_path / "reference.csv")
        assert res.status == status
        sizes = [r.sample_size for r in res.records]
        assert sizes[-1] == 6000
        # a set read ahead at two workers is taken and grown by the next draw
        assert any(2048 <= n < 4096 and m > n for n, m in zip(sizes, sizes[1:]))

    @pytest.mark.parametrize(
        "make, start, alpha",
        [(make_basic_example, 1.0, 1e-20), (make_basic_example, 1.0, 1e-17),
         (make_portfolio, 0.01, 1e-20)],
    )
    def test_a_step_below_the_rounding_of_x(self, make, start, alpha):
        # at 1e-17 the basic run takes one step before x - alpha * mean rounds to x
        problem, cset = make(0)
        c = cfg(alpha=alpha, iters=5, theta=1.5)
        x0 = np.full(problem.dim, start)
        res = run_spgd_adaptive(problem, cset, c, x0)
        want, status = reference_spgd(problem, cset, c, x0)
        assert [dataclasses.replace(r, wall_time_ms=0.0) for r in res.records] == want
        assert res.status == status == "step-too-small"


class TestReferenceCvar:
    """``run_cvar_extended`` and ``run_nested_quantile`` against
    ``oracles.reference_extended`` and ``oracles.reference_nested``, the
    same runs written out as plain loops over explicit row arrays. The sets
    cross a keyed block (2048 rows) and the split size of ``set_workers``
    (4096 rows), so at two workers the runs also split their passes and read
    ahead."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "driver, reference, make, alpha, theta, iters, start",
        [
            (run_cvar_extended, reference_extended, make_basic_example, 0.005, 0.018, 4, 1.0),
            (run_cvar_extended, reference_extended, make_portfolio, 0.02, 0.3, 14, 0.01),
            (run_nested_quantile, reference_nested, make_basic_example, 0.2, 0.05, 18, 1.0),
            (run_nested_quantile, reference_nested, make_portfolio, 0.2, 0.3, 10, 0.01),
        ],
        ids=["extended-basic", "extended-portfolio", "nested-basic", "nested-portfolio"],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_records_and_status_of_the_plain_loop(
        self, monkeypatch, tmp_path, workers, driver, reference, make, alpha, theta, iters, start,
        seed,
    ):
        problem, cset = make(seed)
        c = cfg(alpha=alpha, iters=iters, theta=theta, seed=seed, test_kw={"max_sample_size": 6000})
        x0 = np.full(problem.dim, start)
        set_workers(monkeypatch, workers)
        res = driver(problem, cset, 0.9, 0.1, c, x0)
        want, status = reference(problem, cset, 0.9, 0.1, c, x0)
        write_csv(res.records, tmp_path / "run.csv")
        write_csv(want, tmp_path / "reference.csv")
        assert csv_body(tmp_path / "run.csv") == csv_body(tmp_path / "reference.csv")
        assert res.status == status
        sizes = [r.sample_size for r in res.records]
        assert max(sizes) > 4096
        # a set read ahead at two workers is taken and grown by the next draw
        assert any(2048 <= n < 4096 and m > n for n, m in zip(sizes, sizes[1:]))


def cli_sqp(make, seed):
    """(problem, sphere constraint, x0, known optimum) as the CLI's sqp mode
    builds them for a packaged problem."""
    problem, _ = make(seed)
    sphere = EqualityConstraint(
        value=lambda x: float(x @ x) - 1.0, grad=lambda x: 2.0 * np.asarray(x, dtype=float)
    )
    known = None
    if "A" in problem.params:
        known = problem.params["A"] / np.linalg.norm(problem.params["A"])
    return problem, sphere, np.ones(problem.dim) / np.sqrt(problem.dim), known


class TestReferenceSqp:
    """``run_sqp_adaptive`` against ``oracles.reference_sqp``, the same run
    written out as a plain loop over explicit direction arrays. The sets
    cross a keyed block (2048 rows) and the split size of ``set_workers``
    (4096 rows), drawn whole and by augmentation, so at two workers the
    direction pass is split and the stream read ahead."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "make, alpha, theta, iters",
        [(make_basic_example, 0.2, 0.2, 6), (make_portfolio, 0.05, 0.45, 7)],
        ids=["basic", "portfolio"],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_records_and_status_of_the_plain_loop(
        self, monkeypatch, tmp_path, workers, make, alpha, theta, iters, seed
    ):
        problem, sphere, x0, known = cli_sqp(make, seed)
        c = cfg(alpha=alpha, iters=iters, theta=theta, seed=seed, test_kw={"max_sample_size": 8000})
        set_workers(monkeypatch, workers)
        res = run_sqp_adaptive(problem, sphere, c, x0, known_optimum=known)
        want, status = reference_sqp(problem, c, x0, known)
        write_csv(res.records, tmp_path / "run.csv")
        write_csv(want, tmp_path / "reference.csv")
        assert csv_body(tmp_path / "run.csv") == csv_body(tmp_path / "reference.csv")
        assert res.status == status
        sizes = [r.sample_size for r in res.records]
        assert max(sizes) > 4096
        assert sum(res.extras["augment_rounds"]) > 0

    @pytest.mark.parametrize("alpha", [1e-200, 1e-20])
    def test_a_step_below_the_rounding_of_x(self, alpha):
        # x + mean direction rounds to x: at 1e-200 the norm test squared the
        # mean direction to 0.0 and raised, at 1e-20 the run completed with
        # x never moved
        problem, sphere, x0, known = cli_sqp(make_basic_example, 0)
        c = cfg(alpha=alpha, iters=5, theta=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_sqp_adaptive(problem, sphere, c, x0, known_optimum=known)
        assert res.status == "step-too-small"
        assert len(res.records) == 1 and res.records[0].rho is None
        assert np.array_equal(res.state.x, x0)
        want, status = reference_sqp(problem, c, x0, known)
        assert [dataclasses.replace(r, wall_time_ms=0.0) for r in res.records] == want
        assert status == "step-too-small"


class TestSqpDirection:
    def test_parallel_gradients_give_zero_direction(self):
        g = np.array([1.0, -2.0, 0.5])
        d = sqp_directions(np.atleast_2d(3.0 * g), g, 0.0, 0.1)[0]
        np.testing.assert_allclose(d, np.zeros(3), atol=1e-15)

    def test_coordinate_constraint_zeroes_first_component(self):
        grad_F = np.array([4.0, -1.0, 2.0])
        d = sqp_directions(np.atleast_2d(grad_F), np.array([1.0, 0.0, 0.0]), 0.0, 0.2)[0]
        np.testing.assert_allclose(d, -0.2 * np.array([0.0, -1.0, 2.0]), atol=1e-14)

    def test_matches_kkt_oracle(self):
        for _ in range(100):
            dim = int(RNG.integers(2, 8))
            grad_F = RNG.normal(size=dim) * 3
            grad_G = RNG.normal(size=dim)
            grad_G[0] += np.sign(grad_G[0] or 1.0)
            G_val = float(RNG.normal())
            alpha = float(RNG.uniform(0.01, 1.0))
            d = sqp_directions(np.atleast_2d(grad_F), grad_G, G_val, alpha)[0]
            want = kkt_sqp_oracle(grad_F, grad_G, G_val, alpha)
            assert np.linalg.norm(d - want) <= 1e-10
            assert abs(grad_G @ d + G_val) <= 1e-10

    def test_zero_constraint_gradient_rejected_when_inconsistent(self):
        with pytest.raises(ValueError):
            sqp_directions(np.atleast_2d(np.ones(2)), np.zeros(2), 1.0, 0.1)

    def test_vacuous_constraint_gives_unconstrained_step(self):
        d = sqp_directions(np.atleast_2d(np.array([2.0, -4.0])), np.zeros(2), 0.0, 0.1)[0]
        np.testing.assert_allclose(d, [-0.2, 0.4])


class TestRunSqpAdaptive:
    def test_deterministic_affine_matches_lagrange_closed_form(self):
        c = np.array([2.0, -1.0, 0.5, 1.5])
        a = np.array([1.0, 1.0, -1.0, 2.0])
        b = 1.5
        problem = quadratic_deterministic(c)
        constraint = EqualityConstraint(
            value=lambda x: float(a @ x) - b, grad=lambda x: a
        )
        res = run_sqp_adaptive(problem, constraint, cfg(alpha=0.1, iters=200, s0=4), np.zeros(4))
        x_star = c - ((a @ c - b) / (a @ a)) * a
        assert np.linalg.norm(res.state.x - x_star) <= 1e-6
        assert len(res.records) <= 200
        # identical per-sample gradients: the test passes with rho = 0 and
        # never augments
        assert sum(res.extras["augment_rounds"]) == 0
        assert all(r.rho in (0.0, None) for r in res.records)
        assert {r.sample_size for r in res.records} == {4}

    def test_sphere_constraint_with_stochastic_linear_objective(self):
        c = np.array([1.0, 0.5, -0.3, 0.8, 0.2])
        problem = noisy_linear(c, 0.05)
        sphere = EqualityConstraint(
            value=lambda x: float(x @ x) - 1.0, grad=lambda x: 2.0 * np.asarray(x, float)
        )
        run_cfg = cfg(
            alpha=0.1, iters=120, theta=1.0, s0=8, seed=2,
            test_kw={"max_sample_size": 20000},
        )
        res = run_sqp_adaptive(problem, sphere, run_cfg, np.full(5, 0.7))
        g_vals = np.abs(res.extras["constraint_values"])
        assert abs(sphere.value(res.state.x)) <= 1e-3
        assert abs(sphere.value(res.state.x)) < g_vals[0]
        assert np.median(g_vals[-10:]) < np.median(g_vals[:10])
        # the linearized constraint holds exactly at every accepted step
        assert max(res.extras["lin_residuals"]) <= 1e-10
        # high beta-free noise at small theta makes it augment along the way
        assert sum(res.extras["augment_rounds"]) > 0
        # within-iteration augmentation appends to the same set: accounting
        # still matches the final sizes exactly
        assert res.records[-1].cumulative_grad_evals == sum(
            r.sample_size for r in res.records
        )

    def test_recorded_rho_is_the_direction_variance_of_the_final_set(self):
        problem = noisy_linear(np.array([1.0, 0.5, -0.3, 0.8, 0.2]), 0.05)
        sphere = EqualityConstraint(
            value=lambda x: float(x @ x) - 1.0, grad=lambda x: 2.0 * np.asarray(x, float)
        )
        c = cfg(alpha=0.1, iters=60, theta=1.0, s0=8, seed=2, test_kw={"max_sample_size": 20000})
        res = run_sqp_adaptive(problem, sphere, c, np.full(5, 0.7))
        assert sum(res.extras["augment_rounds"]) > 0
        for k, (rec, x) in enumerate(zip(res.records, res.iterates)):
            # by prefix stability the augmented set is the fresh draw of its size
            grads = -draw_samples(problem, rec.sample_size, k, c.seed).realizations
            G_val, grad_G = sphere.value(x), sphere.grad(x)
            lams = (G_val - c.alpha * grads @ grad_G) / (c.alpha * float(grad_G @ grad_G))
            dirs = -c.alpha * (grads + lams[:, None] * grad_G)
            mean = dirs.mean(axis=0)
            n = len(dirs)
            num = sum(float((d - mean) @ (d - mean)) for d in dirs)
            want = num / (c.test.theta**2 * (n - 1) * n * float(mean @ mean))
            assert rec.rho == pytest.approx(want, rel=1e-12), k

    def test_sample_cap_exhaustion_terminates_with_status(self):
        problem = noisy_linear(np.array([1.0, 0.4]), 1.0)
        sphere = EqualityConstraint(
            value=lambda x: float(x @ x) - 1.0, grad=lambda x: 2.0 * np.asarray(x, float)
        )
        run_cfg = cfg(
            alpha=0.1, iters=400, theta=0.05, s0=4, seed=3,
            test_kw={"max_sample_size": 64},
        )
        res = run_sqp_adaptive(problem, sphere, run_cfg, np.array([0.9, 0.1]))
        assert res.status == "sample-budget-exhausted"
        assert res.records[-1].sample_size == 64

    def test_fixed_size_run_takes_no_augmentation_round(self):
        # the same noisy run that augments under a test (above) keeps its
        # size and records no rho without one
        problem = noisy_linear(np.array([1.0, 0.5, -0.3, 0.8, 0.2]), 0.05)
        sphere = EqualityConstraint(
            value=lambda x: float(x @ x) - 1.0, grad=lambda x: 2.0 * np.asarray(x, float)
        )
        res = run_sqp_adaptive(problem, sphere, cfg(alpha=0.1, iters=60, s0=8, seed=2, test=None),
                               np.full(5, 0.7))
        assert len(res.records) == 60
        assert res.extras["augment_rounds"] == [0] * 60
        assert {r.sample_size for r in res.records} == {8}
        assert all(r.rho is None for r in res.records)

    def test_overflowing_directions_raise_the_norm_test_error_without_a_warning(self, portfolio):
        # alpha * <grad_G, g_i> overflowed with a RuntimeWarning from
        # sqp_directions before the norm test named the non-finite directions
        problem, _ = portfolio
        sphere = EqualityConstraint(
            value=lambda x: float(x @ x) - 1.0, grad=lambda x: 2.0 * np.asarray(x, float)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"non-finite variance statistic \(nan\)"):
                run_sqp_adaptive(problem, sphere, cfg(alpha=1e307, iters=3), np.full(100, 0.1))


class TestRunCvarExtended:
    @pytest.mark.parametrize("driver", [run_cvar_extended, run_nested_quantile])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_both_cvar_drivers_reject_beta_outside_the_open_interval(self, basic, driver, beta):
        problem, cset = basic
        with pytest.raises(ValueError, match="beta"):
            driver(problem, cset, beta, 0.1, cfg(iters=2), np.ones(20))

    def test_t_recorded_and_t0_is_initial_sample_mean(self, basic):
        problem, cset = basic
        c = cfg(iters=10, theta=2.0, seed=4)
        res = run_cvar_extended(problem, cset, 0.5, 0.1, c, np.ones(20))
        s0 = draw_samples(problem, 10, 0, 4)
        x0 = project(cset, np.ones(20)).point
        a, b = problem.params["a"], problem.params["b"]
        t0 = float(np.mean(((x0 - b * s0.realizations) ** 2) @ a))
        assert res.extras["t0"] == pytest.approx(t0, rel=1e-12)
        assert res.records[0].t_aux == pytest.approx(t0, rel=1e-12)
        assert all(r.t_aux is not None for r in res.records)
        assert res.state.t is not None

    def test_x_iterates_stay_feasible_and_t_free(self, portfolio):
        problem, cset = portfolio
        c = cfg(alpha=0.02, iters=15, theta=1.5, seed=5)
        res = run_cvar_extended(problem, cset, 0.9, 0.1, c, np.full(100, 0.01))
        for z in res.iterates:
            assert feasibility_residual(cset, z[:-1]) <= 1e-8
        assert res.state.x.shape == (100,)
        sizes = [r.sample_size for r in res.records]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_extended_gradient_matches_finite_differences_mid_run(self, portfolio):
        problem, cset = portfolio
        c = cfg(alpha=0.02, iters=12, theta=1.5, seed=5)
        res = run_cvar_extended(problem, cset, 0.9, 0.1, c, np.full(100, 0.01))
        z = res.iterates[6]
        extended = ExtendedProblem(problem, 0.9, 0.1)
        s = draw_samples(extended, 40, 6, 5)
        fd = central_diff(
            lambda w: float(np.mean(extended.value_many(w, s.realizations))), z
        )
        mean_grad = np.asarray(extended.grad_many(z, s.realizations)).mean(axis=0)
        assert rel_err(fd, mean_grad) <= 1e-6

    def test_error_norm_empty_for_risk_averse_run(self, basic):
        problem, cset = basic
        res = run_cvar_extended(problem, cset, 0.5, 0.1, cfg(iters=5, theta=2.0), np.ones(20))
        assert all(r.error_norm is None for r in res.records)


class TestRunNestedQuantile:
    def test_deterministic_samples_reduce_to_scaled_gradient_step(self):
        beta, eps, alpha = 0.8, 0.1, 0.5
        x0 = np.array([1.0, -2.0])
        problem = rowwise_problem(
            2,
            lambda s, n: fill_rows(s, n, 1, lambda g, out: g.random(out=out)),
            lambda x, xi: 0.5 * float(x @ x) + 3.0,
            lambda x, xi: np.asarray(x, dtype=float),
        )
        c = OptimizerConfig(
            alpha=alpha, max_iters=2, test=TestConfig(theta=1.0),
            initial_sample_size=6, seed=1,
        )
        res = run_nested_quantile(problem, full_space(2), beta, eps, c, x0)
        f0 = 0.5 * float(x0 @ x0) + 3.0
        t_want = f0 - eps * math.log((1.0 - beta) / beta)
        assert res.records[0].t_aux == pytest.approx(t_want, abs=1e-8)
        # all sample values equal: the weight is sigma(ln((1-b)/b)) = 1 - beta
        np.testing.assert_allclose(
            res.iterates[1], x0 - alpha * (1.0 - beta) * x0, atol=1e-9
        )
        assert all(r.rho == 0.0 for r in res.records)

    def test_sample_sizes_ratchet_on_portfolio(self, portfolio):
        problem, cset = portfolio
        c = cfg(alpha=0.2, iters=40, theta=4.0, seed=5)
        res = run_nested_quantile(problem, cset, 0.9, 0.1, c, np.full(100, 0.01))
        sizes = [r.sample_size for r in res.records]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))
        assert res.records[-1].cumulative_grad_evals == sum(sizes)
        assert all(r.t_aux is not None for r in res.records)

    def test_logs_smoothed_cvar_of_each_set(self, portfolio):
        # the logged (t, objective) is smoothed_cvar of the iterate's values
        # on that iteration's set, bit for bit
        problem, cset = portfolio
        beta, eps = 0.9, 0.1
        c = cfg(alpha=0.2, iters=8, theta=1.0, seed=3)
        res = run_nested_quantile(problem, cset, beta, eps, c, np.full(100, 0.01))
        assert len({r.sample_size for r in res.records}) > 1
        for k, (rec, x) in enumerate(zip(res.records, res.iterates)):
            s = draw_samples(problem, rec.sample_size, k, c.seed)
            fs = batch_values(problem, x, s.realizations)
            assert (rec.t_aux, rec.objective_estimate) == smoothed_cvar(fs, beta, eps)

    def test_rejects_bad_beta_and_epsilon(self, basic):
        problem, cset = basic
        with pytest.raises(ValueError):
            run_nested_quantile(problem, cset, 0.0, 0.1, cfg(iters=2), np.ones(20))
        with pytest.raises(ValueError):
            run_nested_quantile(problem, cset, 0.5, 0.0, cfg(iters=2), np.ones(20))


class TestOptimizerConfigValidation:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            cfg(alpha=0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            cfg(alpha=alpha)

    def test_rejects_single_sample_start_when_adaptive(self):
        with pytest.raises(ValueError):
            cfg(s0=1)

    def test_test_is_required(self):
        # leaving it out is an error, never a silent fixed-size run
        with pytest.raises(TypeError, match="test"):
            OptimizerConfig(alpha=0.1, max_iters=3)

    def test_fixed_mode_allows_single_sample(self):
        assert cfg(s0=1, test=None).initial_sample_size == 1

    def test_rejects_adaptive_start_above_the_cap(self):
        # a failed test sizes the next set to min(ceil(rho n), cap) < n:
        # basic spgd with s0 = 500 and cap 100 dropped to 100 rows
        with pytest.raises(ValueError, match="max_sample_size"):
            cfg(s0=500, test_kw={"max_sample_size": 100})
        assert cfg(s0=100, test_kw={"max_sample_size": 100}).initial_sample_size == 100
        fixed = cfg(s0=500, test=None)
        assert fixed.initial_sample_size == 500


class TestGradientOwnership:
    # a grad_many that hands back the sample array itself must not corrupt
    # the sample set, and must run like one that returns a copy

    def test_sample_gradient_leaves_realizations_unchanged(self):
        problem = linear_returning(lambda x, xis: xis)
        s = draw_samples(problem, 12, 0, 4)
        before = s.realizations.copy()
        stats = sample_gradient(problem, np.ones(3), s)
        assert np.array_equal(s.realizations, before)
        assert np.array_equal(stats.mean_grad, before.mean(axis=0))

    def test_aliasing_grad_many_runs_like_a_copying_one(self):
        def run(problem):
            result = run_spgd_adaptive(
                problem, NonNegativeOrthant(3), cfg(alpha=0.1, iters=3), np.ones(3)
            )
            return result, [dataclasses.replace(r, wall_time_ms=0.0) for r in result.records]

        aliasing, aliasing_records = run(linear_returning(lambda x, xis: xis))
        copying, copying_records = run(linear_returning(lambda x, xis: xis.copy()))
        assert len(aliasing_records) == 3
        assert aliasing_records == copying_records
        assert np.array_equal(aliasing.state.x, copying.state.x)


def counting(problem):
    """``problem`` with value_many/grad_many that count the rows they see."""
    rows = {"value": 0, "grad": 0}

    def count(kind, fn):
        def counted(x, xis):
            rows[kind] += len(xis)
            return fn(x, xis)
        return counted

    counted = dataclasses.replace(
        problem,
        value_many=count("value", problem.value_many),
        grad_many=count("grad", problem.grad_many),
    )
    return counted, rows


class TestEvaluatorCounts:
    # one gradient evaluation per sample, one value pass per iteration (two
    # through the extended problem), one projection per projected step

    @pytest.fixture
    def projections(self, monkeypatch):
        calls = []
        original = algorithms.project

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(algorithms, "project", counted)
        return calls

    def test_spgd(self, basic, projections):
        problem, rows = counting(basic[0])
        res = run_spgd_adaptive(problem, basic[1], cfg(iters=30), np.ones(20))
        cum = res.state.cumulative_grad_evals
        assert rows == {"value": cum, "grad": cum}
        assert len(projections) == len(res.records) + 1

    def test_cvar_extended(self, portfolio, projections):
        problem, rows = counting(portfolio[0])
        c = cfg(alpha=0.02, iters=10, theta=1.5, seed=5)
        res = run_cvar_extended(problem, portfolio[1], 0.9, 0.1, c, np.full(100, 0.01))
        cum = res.state.cumulative_grad_evals
        # t0 reads s0 values; the extended value and gradient passes each
        # evaluate the base values
        assert rows == {"value": 2 * cum + c.initial_sample_size, "grad": cum}
        # x0, then (x0, t0), then one per iteration
        assert len(projections) == len(res.records) + 2

    def test_cvar_nested(self, portfolio, projections):
        problem, rows = counting(portfolio[0])
        c = cfg(alpha=0.2, iters=10, theta=4.0, seed=5)
        res = run_nested_quantile(problem, portfolio[1], 0.9, 0.1, c, np.full(100, 0.01))
        cum = res.state.cumulative_grad_evals
        assert rows == {"value": cum, "grad": cum}
        assert len(projections) == len(res.records) + 1

    def test_sqp_with_augmentation(self, projections, monkeypatch):
        problem, rows = counting(noisy_linear(np.array([1.0, 0.5, -0.3, 0.8, 0.2]), 0.05))
        sphere = EqualityConstraint(
            value=lambda x: float(x @ x) - 1.0, grad=lambda x: 2.0 * np.asarray(x, float)
        )
        run_cfg = cfg(
            alpha=0.1, iters=120, theta=1.0, s0=8, seed=2,
            test_kw={"max_sample_size": 20000},
        )
        direction_rows = []
        original = algorithms.sqp_directions

        def counted(grads, *args):
            direction_rows.append(len(grads))
            return original(grads, *args)

        monkeypatch.setattr(algorithms, "sqp_directions", counted)
        res = run_sqp_adaptive(problem, sphere, run_cfg, np.full(5, 0.7))
        assert sum(res.extras["augment_rounds"]) > 0
        cum = res.state.cumulative_grad_evals
        assert rows == {"value": cum, "grad": cum}
        # each sampled row's direction is formed once, augmentation included
        assert sum(direction_rows) == cum
        assert projections == []

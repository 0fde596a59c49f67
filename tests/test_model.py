import dataclasses
import math
import os
import re
import sys
import threading
import time
import warnings
from concurrent.futures import wait

import numpy as np
import pytest

from adasamp import model, problems
from adasamp.algorithms import (
    EqualityConstraint,
    OptimizerConfig,
    run_cvar_extended,
    run_spgd_adaptive,
    run_sqp_adaptive,
)
from adasamp.cli import ExperimentConfig, run_experiment
from adasamp.geometry import NonNegativeOrthant
from adasamp.model import (
    Rows,
    SampleSet,
    ScaledRows,
    StochasticProblem,
    _blocked_matmul,
    Stream,
    batch_grads,
    draw_samples,
    extend_samples,
    fill_rows,
    gradient_stats,
    sample_gradient,
    sample_objective,
    stream_rng,
)
from adasamp.problems import make_basic_example, make_portfolio
from adasamp.records import csv_body
from adasamp.sizing import TestConfig
from oracles import (
    blocked_moments,
    blocked_product,
    central_diff,
    counting_drains,
    keyed_rows,
    rel_err,
    rowwise_problem,
    set_workers,
)


# rows per keyed block of the sample stream
BLOCK = model._STREAM_BLOCK_ROWS


@pytest.fixture(scope="module")
def basic():
    return make_basic_example(7)


class TestDrawSamples:
    def test_same_key_is_bitwise_identical(self, basic):
        problem, _ = basic
        a = draw_samples(problem, 25, 4, 99)
        b = draw_samples(problem, 25, 4, 99)
        np.testing.assert_array_equal(a.realizations, b.realizations)

    def test_iterations_use_disjoint_streams(self, basic):
        problem, _ = basic
        a = draw_samples(problem, 5, 0, 99)
        b = draw_samples(problem, 5, 1, 99)
        assert not np.array_equal(a.realizations, b.realizations)

    def test_prefix_stability(self, basic):
        # a larger set from the same stream extends the smaller one exactly,
        # so realization i depends only on (seed, iteration, i)
        problem, _ = basic
        small = draw_samples(problem, 6, 3, 42)
        big = draw_samples(problem, 40, 3, 42)
        np.testing.assert_array_equal(big.realizations[:6], small.realizations)

    def test_zero_samples_rejected(self, basic):
        problem, _ = basic
        with pytest.raises(ValueError):
            draw_samples(problem, 0, 0, 0)

    def test_negative_seed_rejected(self, basic):
        problem, _ = basic
        with pytest.raises(ValueError, match="base_seed must be non-negative"):
            draw_samples(problem, 5, 0, -1)
        with pytest.raises(ValueError, match="base_seed must be non-negative"):
            stream_rng(-1, 0)

    def test_uniform_coordinates_have_mean_half(self, basic):
        problem, _ = basic
        n = 100_000
        xis = draw_samples(problem, n, 0, 2024).realizations
        sigma = np.sqrt(1.0 / 12.0)
        assert np.all(np.abs(xis.mean(axis=0) - 0.5) <= 3.0 * sigma / np.sqrt(n))


class TestKeyedStream:
    """Block b of iteration k comes from the generator keyed by
    (seed, STREAM_SAMPLES, k, b), whatever the draw's size or CPU count."""

    @pytest.mark.parametrize("make", [make_basic_example, make_portfolio])
    def test_same_bits_at_one_two_and_three_workers(self, monkeypatch, make):
        sampler = make(3)[0].sampler
        sizes = (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 5 * BLOCK + 700)
        set_workers(monkeypatch, 1)
        serial = [sampler(Stream(2, 6), n) for n in sizes]
        for workers in (2, 3):
            set_workers(monkeypatch, workers)
            for n, want in zip(sizes, serial):
                assert np.array_equal(sampler(Stream(2, 6), n), want), (workers, n)

    @pytest.mark.parametrize("make", [make_basic_example, make_portfolio])
    def test_prefix_stability_across_block_edges(self, make):
        sampler = make(3)[0].sampler
        big = sampler(Stream(4, 1), 3 * BLOCK)
        for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
            assert np.array_equal(sampler(Stream(4, 1), n), big[:n]), n

    def test_basic_rows_are_the_keyed_uniform_blocks(self, basic):
        problem, _ = basic
        n = 2 * BLOCK + 5
        want = keyed_rows(9, 2, n, lambda g, rows: g.random((rows, 20)))
        assert np.array_equal(draw_samples(problem, n, 2, 9).realizations, want)

    def test_a_stream_start_inside_a_block(self, basic):
        problem, _ = basic
        full = problem.sampler(Stream(9, 2), 3 * BLOCK)
        for start, n in ((1, 5), (BLOCK - 1, 2), (BLOCK + 7, BLOCK), (2 * BLOCK, 3)):
            got = problem.sampler(Stream(9, 2, start), n)
            assert np.array_equal(got, full[start : start + n]), (start, n)

    def test_keys_are_disjoint_across_iterations_blocks_and_parameters(self):
        # the first row of blocks 0-2 of iterations 0-3, and the first row
        # of the parameter stream: all different
        def uniform(g, out):
            g.random(out=out)

        firsts = [fill_rows(Stream(5, k), 3 * BLOCK, 4, uniform)[::BLOCK] for k in range(4)]
        params = model.stream_rng(5, model.STREAM_PARAMS, 0).random((1, 4))
        rows = np.concatenate(firsts + [params])
        assert len({row.tobytes() for row in rows}) == rows.shape[0] == 13


class TestFillRows:
    """``fill_rows`` against the keyed blocks written out one by one."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "start, n",
        [(0, 1), (0, BLOCK), (0, 3 * BLOCK + 1), (1, BLOCK), (BLOCK - 1, 2), (BLOCK + 7, 2 * BLOCK + 5)],
    )
    def test_equals_the_keyed_blocks_written_out(self, monkeypatch, workers, start, n):
        set_workers(monkeypatch, workers)
        want = keyed_rows(1, 3, start + n, lambda g, rows: g.random((rows, 3)))[start:]
        got = fill_rows(Stream(1, 3, start), n, 3, lambda g, out: g.random(out=out))
        assert got.shape == (n, 3)
        assert np.array_equal(got, want)


def uniform(g, out):
    g.random(out=out)


def on_the_pool():
    return threading.current_thread() is not threading.main_thread()


class TestReadAhead:
    """Inside ``_reading_ahead``, ``fill_rows`` fills the next iteration's
    first n rows on the pool, and the next call of that key takes them."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [10, BLOCK - 1, BLOCK, BLOCK + 1, 10940])
    def test_a_set_read_ahead_equals_a_cold_draw(self, monkeypatch, workers, n):
        monkeypatch.setattr(model, "_workers", lambda: workers)
        for m in (n, n + 1, (n // BLOCK + 1) * BLOCK, 2 * n):
            with model._reading_ahead():
                fill_rows(Stream(4, 6), n, 5, uniform)
                assert bool(model._local.ahead) == (workers > 1 and n >= BLOCK)
                got = fill_rows(Stream(4, 7), m, 5, uniform)
                if workers > 1 and n >= BLOCK:  # taken, and the next one read ahead
                    assert model._local.ahead[0][1:] == (Stream(4, 8), 5, uniform)
                    assert model._local.ahead[1].shape == (m, 5)
            assert model._local.ahead is None
            assert got.shape == (m, 5)
            assert np.array_equal(got, fill_rows(Stream(4, 7), m, 5, uniform)), m

    def test_only_inside_the_scope_from_a_block_to_the_parallel_size(self, monkeypatch):
        monkeypatch.setattr(model, "_workers", lambda: 2)
        fill_rows(Stream(4, 6), BLOCK, 5, uniform)
        assert model._local.ahead is None
        with model._reading_ahead():
            for n in (BLOCK - 1, model._PARALLEL_MIN_ROWS):
                fill_rows(Stream(4, 6), n, 5, uniform)
                assert model._local.ahead == ()

    def test_each_thread_has_its_own(self, monkeypatch):
        # two threads may run drivers at once: neither takes nor drops the
        # other's read-ahead
        monkeypatch.setattr(model, "_workers", lambda: 2)
        seen = []

        def other():
            seen.append(model._local.ahead)
            with model._reading_ahead():
                fill_rows(Stream(4, 6), BLOCK, 5, uniform)
                seen.append(model._local.ahead[0][1:])

        with model._reading_ahead():
            fill_rows(Stream(4, 6), BLOCK, 5, uniform)
            ahead = model._local.ahead
            thread = threading.Thread(target=other)
            thread.start()
            thread.join(10)
            assert not thread.is_alive()
            assert model._local.ahead is ahead
        assert seen == [None, (Stream(4, 7), 5, uniform)]

    @pytest.mark.parametrize(
        "stream, d, fill",
        [
            (Stream(5, 7), 5, uniform),  # seed
            (Stream(4, 8), 5, uniform),  # iteration
            (Stream(4, 7), 6, uniform),  # d
            (Stream(4, 7), 5, lambda g, out: g.random(out=out)),  # fill
            (Stream(4, 7, 3), 5, uniform),  # start
        ],
    )
    def test_a_call_off_its_key_is_drawn_cold_and_leaves_it(self, monkeypatch, stream, d, fill):
        monkeypatch.setattr(model, "_workers", lambda: 2)
        cold = fill_rows(stream, BLOCK, d, fill)
        with model._reading_ahead():
            fill_rows(Stream(4, 6), BLOCK, 5, uniform)
            ahead = model._local.ahead
            assert np.array_equal(fill_rows(stream, BLOCK, d, fill), cold)
            assert model._local.ahead is ahead
            got = fill_rows(Stream(4, 7), BLOCK, 5, uniform)
            assert model._local.ahead is not ahead
        assert np.array_equal(got, fill_rows(Stream(4, 7), BLOCK, 5, uniform))

    def test_an_error_surfaces_from_the_call_that_takes_its_rows_only(self, monkeypatch):
        set_workers(monkeypatch, 2)  # passes of three blocks split
        submitted = counting_drains(monkeypatch)

        def failing(g, out):
            if on_the_pool():
                raise ArithmeticError("fill failed")
            g.random(out=out)

        with model._reading_ahead():
            fill_rows(Stream(4, 6), BLOCK, 5, failing)  # one block, on this thread
            wait(model._local.ahead[2][1])  # the read-ahead's block has failed
            fill_rows(Stream(9, 7), BLOCK, 5, failing)
            drains = len(submitted)
            model._in_parallel(lambda rows: None, 3 * BLOCK)
            gradient_stats(np.ones((3 * BLOCK, 2)))
            assert len(submitted) == drains + 2  # both passes split
            with pytest.raises(ArithmeticError, match="fill failed"):
                fill_rows(Stream(4, 7), BLOCK, 5, failing)
            # the next read-ahead started before the join raised; the scope
            # drops it
            assert model._local.ahead[0][1:] == (Stream(4, 8), 5, failing)
        # a read-ahead that nothing takes fails silently
        with model._reading_ahead():
            fill_rows(Stream(4, 6), BLOCK, 5, failing)
            wait(model._local.ahead[2][1])

    @pytest.mark.parametrize("ending", ["return", "error"])
    def test_no_fill_starts_after_the_driver_returns(self, monkeypatch, ending):
        # every correlate sleeps, so the read-ahead is in flight when the
        # loop ends; the driver cancels it and waits for the running block
        problem, cset = make_portfolio(0)
        lock = threading.Lock()
        started, finished = [], []
        product = problems._blocked_matmul

        def slow(u, w, out):
            with lock:
                started.append(on_the_pool())
            threading.Event().wait(0.005)
            product(u, w, out)
            with lock:
                finished.append(u.shape[0])
            return out  # as _blocked_matmul does: a Rows write returns its rows

        monkeypatch.setattr(problems, "_blocked_matmul", slow)
        monkeypatch.setattr(model, "_workers", lambda: 2)
        read_ahead, join = [], model._join

        def recorded(handle, cancel=False):
            read_ahead.append(bool(model._local.ahead))
            join(handle, cancel)

        monkeypatch.setattr(model, "_join", recorded)
        if ending == "error":
            grad_many, calls = problem.grad_many, []

            def failing(x, xis):
                calls.append(x)
                if len(calls) == 3:
                    raise ArithmeticError("gradient failed")
                return grad_many(x, xis)

            problem = dataclasses.replace(problem, grad_many=failing)
        # sets of three blocks, 15 ms or more of draw against a few ms of
        # step, so the last read-ahead has blocks left when the loop ends
        cfg = OptimizerConfig(alpha=0.02, max_iters=4, test=None, initial_sample_size=3 * BLOCK)
        try:
            run_spgd_adaptive(problem, cset, cfg, np.full(100, 0.01))
        except ArithmeticError:
            assert ending == "error"
        with lock:
            at_return = (len(started), len(finished))
        threading.Event().wait(0.05)
        assert (len(started), len(finished)) == at_return
        assert at_return[0] == at_return[1]
        assert any(read_ahead)
        assert model._local.ahead is None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_draws_its_next_set_cold(self, monkeypatch):
        # the parent's read-ahead is held in flight across the fork; the
        # child, which has none of the parent's pool threads, must not wait
        # for it
        monkeypatch.setattr(model, "_workers", lambda: 2)
        running, release = threading.Event(), threading.Event()

        def held(g, out):
            if on_the_pool():
                running.set()
                release.wait(10)
            g.random(out=out)

        want = fill_rows(Stream(4, 7), BLOCK, 5, uniform)
        with model._reading_ahead():
            fill_rows(Stream(4, 6), BLOCK, 5, held)
            assert running.wait(10)
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    code = 0 if np.array_equal(fill_rows(Stream(4, 7), BLOCK, 5, held), want) else 3
                finally:
                    os._exit(code)
            release.set()
        deadline = time.monotonic() + 20
        while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
            time.sleep(0.01)
        if not done[0]:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert done[0] == pid, "the child hung"
        assert os.waitstatus_to_exitcode(done[1]) == 0

    @pytest.mark.parametrize(
        "problem, algorithm, flags",
        [
            ("basic", "spgd", dict(alpha=0.025, theta=0.003, max_iters=10)),
            ("portfolio", "cvar-extended",
             dict(alpha=0.02, theta=0.1, beta=0.9, epsilon=0.1, max_iters=8)),
            ("basic", "sqp", dict(alpha=0.1, theta=0.1, max_iters=10)),
        ],
    )
    def test_drivers_give_the_same_records_at_one_and_two_workers(
        self, monkeypatch, tmp_path, problem, algorithm, flags
    ):
        # the sets grow from 10 rows to 10^4-2*10^4, and from 2048 to 4096
        # rows they are read ahead at two workers
        bodies = []
        for workers in (1, 2):
            set_workers(monkeypatch, workers)
            out = tmp_path / f"{workers}.csv"
            run_experiment(ExperimentConfig(problem=problem, algorithm=algorithm, s0=10,
                                            max_sample_size=20000, output=str(out), **flags))
            bodies.append(csv_body(out))
        assert bodies[0] == bodies[1]


class TestExtendSamples:
    # drawing n rows and then m more from one stream equals a fresh draw of
    # n + m rows, on both packaged samplers; from the middle of a keyed
    # block the append redraws that block's head from its key
    @pytest.mark.parametrize("make", [make_basic_example, make_portfolio])
    @pytest.mark.parametrize(
        "n, m",
        [(10, 3), (511, 2), (512, 513), (1000, 4001), (6003, 20003), (50000, 77777),
         (BLOCK - 1, 1), (BLOCK - 1, 2), (BLOCK, 1), (BLOCK + 100, 50), (BLOCK + 100, 2 * BLOCK)],
    )
    def test_append_equals_fresh_draw(self, make, n, m):
        problem, _ = make(3)
        grown = extend_samples(problem, draw_samples(problem, n, 4, 11), n + m)
        fresh = draw_samples(problem, n + m, 4, 11)
        assert np.array_equal(grown.realizations, fresh.realizations)
        # the grown set keeps the key of its first row, as the fresh draw
        assert grown.stream == fresh.stream == Stream(11, 4)

    def test_leaves_the_given_set_and_its_stream_alone(self, basic):
        problem, _ = basic
        small = draw_samples(problem, 6, 0, 5)
        rows = small.realizations.copy()
        first = extend_samples(problem, small, 20)
        second = extend_samples(problem, small, 20)
        assert np.array_equal(first.realizations, second.realizations)
        assert np.array_equal(small.realizations, rows)

    def test_rejects_a_smaller_size(self, basic):
        problem, _ = basic
        with pytest.raises(ValueError, match="cannot extend"):
            extend_samples(problem, draw_samples(problem, 4, 0, 0), 4)


class TestSamplerShape:
    # a sampler returns (n, xi_dim) rows; any other shape is an error that
    # names it, at the first draw and at an append
    @staticmethod
    def shaped(reshape):
        def sampler(stream, n):
            return reshape(fill_rows(stream, n, 2, lambda g, out: g.random(out=out)))

        return StochasticProblem(2, sampler, lambda x, xis: xis @ x, lambda x, xis: xis)

    @pytest.mark.parametrize(
        "reshape, shape",
        [
            (lambda rows: rows[:, 0], "(8,)"),
            (lambda rows: rows[:, :, None], "(8, 2, 1)"),
            (lambda rows: rows[1:], "(7, 2)"),
        ],
        ids=["1-d", "3-d", "a row short"],
    )
    def test_draw_and_extend_name_a_wrong_shape(self, reshape, shape):
        good = draw_samples(self.shaped(lambda rows: rows), 8, 0, 0)
        bad = self.shaped(reshape)
        message = re.escape(f"sampler returned rows of shape {shape}, expected (8, xi_dim)")
        with pytest.raises(ValueError, match=message):
            draw_samples(bad, 8, 0, 0)
        with pytest.raises(ValueError, match=message):
            extend_samples(bad, good, 16)


def readme_rows(generator, out):
    """The README's user problem: xi ~ N(c, I) with c = (1, -0.5, 2), and
    f(x; xi) = ||x - xi||^2 / 2 (``readme_values``, ``readme_grads``)."""
    generator.standard_normal(out=out)
    out += np.array([1.0, -0.5, 2.0])


def readme_values(x, xis):
    return 0.5 * np.sum((x - xis) ** 2, axis=1)


def readme_grads(x, xis):
    return x - xis


class TestEvaluatorShape:
    # the README's user problem, 10 rows in iteration 0, with one evaluator
    # result of the wrong shape: the run fails at its first call, naming the
    # evaluator, instead of miscounting the cost or reading other rows
    CFG = OptimizerConfig(alpha=0.1, max_iters=5, test=TestConfig(0.5), initial_sample_size=10)

    @staticmethod
    def run(value_many, grad_many, calls):
        def counted(x, xis):
            calls.append(len(xis))
            return grad_many(x, xis)

        problem = StochasticProblem(
            3, lambda stream, n: fill_rows(stream, n, 3, readme_rows), value_many, counted
        )
        return run_spgd_adaptive(problem, NonNegativeOrthant(3), TestEvaluatorShape.CFG, np.zeros(3))

    @pytest.mark.parametrize(
        "value_many, grad_many, message",
        [
            (readme_values, lambda x, xis: (x - xis)[1:],
             "grad_many returned rows of shape (9, 3), expected (10, 3)"),
            (readme_values, lambda x, xis: (x - xis)[:1],
             "grad_many returned rows of shape (1, 3), expected (10, 3)"),
            (readme_values, lambda x, xis: np.hstack([x - xis] * 2),
             "grad_many returned rows of shape (10, 6), expected (10, 3)"),
            (readme_values,
             lambda x, xis: Rows((len(xis) - 1, 3), lambda p, out: np.subtract(x, xis[p], out=out)),
             "grad_many returned rows of shape (9, 3), expected (10, 3)"),
            (lambda x, xis: readme_values(x, xis)[1:], readme_grads,
             "value_many returned rows of shape (9,), expected (10,)"),
        ],
        ids=["a row short", "one row", "twice dim columns", "Rows a row short", "a value short"],
    )
    def test_a_wrong_shape_fails_in_iteration_0_naming_the_evaluator(
        self, value_many, grad_many, message
    ):
        calls = []
        with pytest.raises(ValueError, match=re.escape(message)):
            self.run(value_many, grad_many, calls)
        assert calls == [10]  # one gradient call: iteration 0's

    def test_the_well_shaped_problem_counts_each_drawn_row(self):
        calls = []
        result = self.run(readme_values, readme_grads, calls)
        sizes = [r.sample_size for r in result.records]
        assert calls == sizes and sizes[0] == 10
        assert [r.cumulative_grad_evals for r in result.records] == list(np.cumsum(sizes))


class TestBlockedMatmul:
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 1300])
    @pytest.mark.parametrize("cols", [None, 100])
    def test_plain_product_in_padded_blocks(self, n, cols):
        # a vector, or a transposed matrix as the sampler's B.T
        rng = np.random.default_rng(8)
        m = rng.standard_normal((n, 100))
        w = rng.uniform(0.0, 0.1, size=100 if cols is None else (cols, 100)).T
        out = np.empty((n,) + w.shape[1:])
        _blocked_matmul(m, w, out)
        assert np.array_equal(out, blocked_product(m, w))
        np.testing.assert_allclose(out, m @ w, rtol=1e-13, atol=1e-15)


# 4097 = 32 * 128 + 1 and 12289 = 96 * 128 + 1 end in a one-row block of
# 128 rows, which is zero-padded; 5000 ends in a partial block of 8 rows
PASS_SIZES = (4097, 5000, 12289)


class TestRowParallelPasses:
    """The parallel passes give the same bits at one, two and three workers."""

    @pytest.fixture(scope="class")
    def inputs(self):
        problem, _ = make_basic_example(4)
        xis = draw_samples(problem, max(PASS_SIZES), 2, 8).realizations
        return problem, xis, np.linspace(-0.5, 1.5, 20)

    def at_workers(self, monkeypatch, workers, fn):
        set_workers(monkeypatch, workers)
        submitted = counting_drains(monkeypatch)
        results = []
        for n in PASS_SIZES:
            submitted.clear()
            results.append(fn(n))
            assert bool(submitted) == (workers > 1), (workers, n)  # a parallel run splits
        return results

    @pytest.mark.parametrize("workers", [2, 3])
    def test_basic_value_and_grad_passes(self, monkeypatch, inputs, workers):
        problem, xis, x = inputs
        a, b = problem.params["a"], problem.params["b"]

        def passes(n):
            rows = xis[:n]
            return np.asarray(problem.value_many(x, rows)), np.asarray(problem.grad_many(x, rows))

        serial = self.at_workers(monkeypatch, 1, passes)
        parallel = self.at_workers(monkeypatch, workers, passes)
        for n, (values, grads), (pvalues, pgrads) in zip(PASS_SIZES, serial, parallel):
            # the formula, in zero-padded blocks
            ref = blocked_product((x - b * xis[:n]) ** 2, a)
            assert np.array_equal(values, ref) and np.array_equal(pvalues, ref)
            assert np.array_equal(grads, 2.0 * a * (x - b * xis[:n]))
            assert np.array_equal(pgrads, grads)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_rows_of_a_blocked_product(self, monkeypatch, workers):
        m = np.random.default_rng(0).normal(size=(max(PASS_SIZES), 100))
        v = np.random.default_rng(1).normal(size=100)

        def product(n):
            return np.asarray(Rows((n,), lambda part, out: _blocked_matmul(m[part], v, out)))

        serial = self.at_workers(monkeypatch, 1, product)
        parallel = self.at_workers(monkeypatch, workers, product)
        for n, got, want in zip(PASS_SIZES, parallel, serial):
            assert np.array_equal(want, blocked_product(m[:n], v))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_gradient_stats(self, monkeypatch, workers):
        # every size spans several 2048-row blocks of the moment kernel, so
        # the merge differs from the two-pass sums in the last bits only
        grads = np.random.default_rng(2).normal(size=(max(PASS_SIZES), 20))
        serial = self.at_workers(monkeypatch, 1, lambda n: gradient_stats(grads[:n]))
        parallel = self.at_workers(monkeypatch, workers, lambda n: gradient_stats(grads[:n]))
        for n, s1, s2 in zip(PASS_SIZES, serial, parallel):
            assert np.array_equal(s2.mean_grad, s1.mean_grad)
            assert s2.variance_stat == s1.variance_stat
            mean, var = two_pass_stats(grads[:n])
            np.testing.assert_allclose(s1.mean_grad, mean, rtol=1e-13, atol=1e-16)
            assert s1.variance_stat == pytest.approx(var, rel=1e-13)

    @pytest.mark.parametrize("kind", ["cold draw", "rows", "array stats", "rows stats"])
    def test_one_split_rule_for_every_pass(self, monkeypatch, kind):
        # at two workers, every pass runs on the calling thread one row short
        # of the split size and splits from there on
        set_workers(monkeypatch, 2)
        submitted = counting_drains(monkeypatch)
        split = model._PARALLEL_MIN_ROWS
        m = np.random.default_rng(3).normal(size=(split, 3))

        def rows(n):
            return Rows((n, 3), lambda part, out: np.multiply(m[part], 2.0, out=out))

        run = {
            "cold draw": lambda n: fill_rows(Stream(1, 3), n, 3, uniform),
            "rows": lambda n: np.asarray(rows(n)),
            "array stats": lambda n: gradient_stats(m[:n]),
            "rows stats": lambda n: gradient_stats(rows(n)),
        }[kind]
        for n in (split - 1, split):
            submitted.clear()
            run(n)
            assert bool(submitted) == (n >= split), n

    def test_every_row_once_with_more_threads_than_cpus(self, monkeypatch):
        # eight threads take chunks from one shared list while the
        # interpreter switches threads as often as it can: a chunk handed
        # out twice or lost shows as a row counted 2 or 0 times
        from concurrent.futures import ThreadPoolExecutor

        set_workers(monkeypatch, 8)
        pool = ThreadPoolExecutor(7)
        monkeypatch.setattr(model, "_pool", (os.getpid(), pool))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in (4096, 4097, 20000, 100001):
                seen = np.zeros(n, dtype=np.int64)

                def mark(rows):
                    seen[rows] += 1

                model._in_parallel(mark, n)
                assert np.all(seen == 1), n
            want = keyed_rows(3, 0, 100001, lambda g, rows: g.random((rows, 20)))
            got = fill_rows(Stream(3, 0), 100001, 20, lambda g, out: g.random(out=out))
            assert np.array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()

    @pytest.mark.parametrize("failing", ["calling thread", "pool thread"])
    def test_an_error_propagates_once_every_chunk_has_returned(self, monkeypatch, failing):
        # the first chunk that a thread of the given kind takes raises while
        # slower chunks are in flight on the others: the error may propagate
        # only once those have returned, and no chunk may start after it
        from concurrent.futures import ThreadPoolExecutor

        set_workers(monkeypatch, 4)
        pool = ThreadPoolExecutor(3)
        monkeypatch.setattr(model, "_pool", (os.getpid(), pool))
        lock = threading.Lock()
        started, finished, failed = [], [], []

        def chunk(rows):
            on_main = threading.current_thread() is threading.main_thread()
            with lock:
                started.append(rows.start)
                raising = not failed and on_main == (failing == "calling thread")
                if raising:
                    failed.append(rows.start)
                slow = len(started) <= 4
            if raising:
                raise ArithmeticError("chunk failed")
            threading.Event().wait(0.03 if slow else 0.002)
            with lock:
                finished.append(rows.start)

        try:
            with pytest.raises(ArithmeticError, match="chunk failed"):
                model._in_parallel(chunk, 20 * BLOCK)
            with lock:
                at_return = (sorted(started), sorted(finished))
            threading.Event().wait(0.1)
            assert (sorted(started), sorted(finished)) == at_return
        finally:
            pool.shutdown()
        assert len(failed) == 1
        assert sorted(started) == sorted(finished + failed)

    def test_a_drain_queued_behind_a_busy_pool_thread_is_cancelled(self, monkeypatch):
        # the pool's only thread runs a 0.5 s job, so the pass's drain stays
        # queued: the calling thread takes every chunk, and the pass returns
        # without waiting for the pool thread to dequeue the drain
        from concurrent.futures import ThreadPoolExecutor

        set_workers(monkeypatch, 2)
        pool = ThreadPoolExecutor(1)
        monkeypatch.setattr(model, "_pool", (os.getpid(), pool))
        submit, submitted = pool.submit, []

        def recorded(fn, *args):
            submitted.append(submit(fn, *args))
            return submitted[-1]

        monkeypatch.setattr(pool, "submit", recorded)
        ends = []

        def chunk(rows):
            threading.Event().wait(0.001)
            ends.append(time.perf_counter())

        try:
            busy = submit(threading.Event().wait, 0.5)
            model._in_parallel(chunk, 20 * BLOCK)
            returned = time.perf_counter()
            assert not busy.done()
        finally:
            pool.shutdown()
        assert len(ends) == 20
        assert returned - max(ends) < 0.1
        assert len(submitted) == 1 and submitted[0].cancelled()

    def test_problem_fields_run_on_the_calling_thread_only(self, monkeypatch):
        # worker threads run numpy kernels only: the benchmark's tracer
        # wraps the problem's fields with one shared span stack
        set_workers(monkeypatch, 2)
        submitted = counting_drains(monkeypatch)
        threads = []

        def on_thread(fn):
            def recorded(*args):
                threads.append(threading.current_thread())
                return fn(*args)
            return recorded

        def recorded(problem):
            return dataclasses.replace(
                problem,
                sampler=on_thread(problem.sampler),
                value_many=on_thread(problem.value_many),
                grad_many=on_thread(problem.grad_many),
            )

        problem, cset = make_basic_example(0)
        cfg = OptimizerConfig(alpha=0.025, max_iters=3, test=TestConfig(theta=0.5),
                              initial_sample_size=6000)
        run_spgd_adaptive(recorded(problem), cset, cfg, np.ones(20))
        assert len(threads) == 9
        assert set(threads) == {threading.main_thread()}
        assert submitted  # the passes did split

        # the portfolio's keyed blocks are drawn and correlated on pool threads
        threads.clear()
        submitted.clear()
        problem, cset = make_portfolio(0)
        cfg = dataclasses.replace(cfg, initial_sample_size=2 * BLOCK + 1, max_iters=2)
        run_cvar_extended(recorded(problem), cset, 0.9, 0.1, cfg, np.full(100, 0.01))
        assert threads and set(threads) == {threading.main_thread()}
        assert submitted

        # an SQP run that augments: its direction passes split, and its
        # fields run here, in the augmentation rounds too
        threads.clear()
        submitted.clear()
        problem, _ = make_basic_example(0)
        sphere = EqualityConstraint(value=lambda x: float(x @ x) - 1.0, grad=lambda x: 2.0 * x)
        cfg = dataclasses.replace(cfg, initial_sample_size=6000,
                                  test=TestConfig(theta=0.005, max_sample_size=40_000))
        result = run_sqp_adaptive(recorded(problem), sphere, cfg, np.full(20, 20**-0.5))
        assert sum(result.extras["augment_rounds"]) > 0
        assert threads and set(threads) == {threading.main_thread()}
        assert submitted


class TestSampleObjective:
    def test_empty_set_rejected(self, basic):
        problem, _ = basic
        empty = SampleSet(np.empty((0, 20)), Stream(0, 0))
        with pytest.raises(ValueError, match="empty sample set"):
            sample_objective(problem, np.zeros(20), empty)
        with pytest.raises(ValueError, match="empty sample set"):
            sample_gradient(problem, np.zeros(20), empty)

    def test_single_sample_identity(self, basic):
        problem, _ = basic
        a, b = problem.params["a"], problem.params["b"]
        s = draw_samples(problem, 1, 0, 3)
        x = np.full(20, 0.3)
        xi = s.realizations[0]
        assert sample_objective(problem, x, s) == pytest.approx(
            float(np.sum(a * (x - b * xi) ** 2))
        )

    def test_linearity_over_disjoint_halves(self, basic):
        problem, _ = basic
        s = draw_samples(problem, 10, 0, 3)
        x = np.full(20, 0.1)
        halves = np.array_split(s.realizations, 2)
        a, b = problem.params["a"], problem.params["b"]
        sub_means = [np.mean(((x - b * half) ** 2) @ a) for half in halves]
        assert sample_objective(problem, x, s) == pytest.approx(np.mean(sub_means))

    def test_matches_hand_integrated_expectation_at_optimum(self, basic):
        # E[(x - b xi)^2] = x^2 - b x E[2 xi]/2 + b^2 E[xi^2]
        #                 = x^2 - b x + b^2 / 3 for xi ~ Unif(0, 1)
        problem, _ = basic
        a, b = problem.params["a"], problem.params["b"]
        x_star = np.maximum(0.0, b / 2.0)
        analytic = float(np.sum(a * (x_star**2 - b * x_star + b**2 / 3.0)))
        s = draw_samples(problem, 100_000, 1, 77)
        vals = (x_star - b * s.realizations) ** 2 @ a
        se = vals.std(ddof=1) / np.sqrt(len(s))
        assert abs(sample_objective(problem, x_star, s) - analytic) <= 3.0 * se


class TestSampleGradient:
    def test_identical_samples_have_zero_variance(self):
        problem = rowwise_problem(
            3,
            lambda stream, n: np.ones((n, 3)),
            lambda x, xi: float(x @ xi),
            lambda x, xi: np.asarray(xi, dtype=float),
        )
        s = draw_samples(problem, 8, 0, 0)
        stats = sample_gradient(problem, np.zeros(3), s)
        assert stats.variance_stat == 0.0

    def test_two_sample_closed_form(self, basic):
        problem, _ = basic
        s = draw_samples(problem, 2, 0, 11)
        x = np.full(20, 0.4)
        g = np.asarray(batch_grads(problem, x, s.realizations))
        stats = sample_gradient(problem, x, s)
        want = float(np.sum((g[0] - g[1]) ** 2)) / 4.0
        assert stats.variance_stat == pytest.approx(want, rel=1e-12)

    def test_mean_grad_matches_finite_differences_of_sample_objective(self, basic):
        problem, _ = basic
        s = draw_samples(problem, 50, 0, 21)
        x = np.abs(np.random.default_rng(1).normal(size=20))
        stats = sample_gradient(problem, x, s)
        fd = central_diff(lambda z: sample_objective(problem, z, s), x, h=1e-5)
        assert rel_err(fd, stats.mean_grad) <= 1e-6

    def test_single_sample_variance_flagged(self, basic):
        problem, _ = basic
        s = draw_samples(problem, 1, 0, 0)
        stats = sample_gradient(problem, np.zeros(20), s)
        assert np.isnan(stats.variance_stat)

    def test_loop_fallback_matches_vectorized(self, basic):
        problem, _ = basic
        a, b = problem.params["a"], problem.params["b"]
        # the per-sample formulas, looped over the rows
        bare = rowwise_problem(
            problem.dim,
            problem.sampler,
            lambda x, xi: float(np.sum(a * (x - b * xi) ** 2)),
            lambda x, xi: 2.0 * a * (x - b * xi),
        )
        s = draw_samples(problem, 7, 0, 9)
        x = np.full(20, 0.2)
        fast = sample_gradient(problem, x, s)
        slow = sample_gradient(bare, x, s)
        np.testing.assert_allclose(slow.mean_grad, fast.mean_grad, rtol=1e-12)
        assert slow.variance_stat == pytest.approx(fast.variance_stat, rel=1e-12)


def two_pass_stats(grads):
    """Reference for gradient_stats: mean, then the deviations in a new array."""
    g = np.array(grads, dtype=float)
    n = g.shape[0]
    mean = g.mean(axis=0)
    if n < 2:
        return mean, float("nan")
    dev = g - mean
    return mean, float(np.einsum("ij,ij->", dev, dev) / ((n - 1) * n))


class TestGradientStats:
    @pytest.mark.parametrize("n", [2, 3, 17, 1000])
    def test_matches_two_pass_reference_exactly(self, n):
        grads = np.random.default_rng(n).normal(size=(n, 20)) * 3.0 + 1.0
        mean, var = two_pass_stats(grads)
        stats = gradient_stats(grads.copy())
        assert np.array_equal(stats.mean_grad, mean)
        assert stats.variance_stat == var
        assert stats.n == n

    def test_only_reads_its_argument(self):
        grads = np.random.default_rng(3).normal(size=(50, 4))
        work = grads.copy()
        stats = gradient_stats(work)
        assert np.array_equal(work, grads)
        assert stats.variance_stat == two_pass_stats(grads)[1]

    def test_read_only_rows_are_copied_not_overwritten(self):
        grads = np.random.default_rng(4).normal(size=(50, 4))
        frozen = grads.copy()
        frozen.setflags(write=False)
        stats = gradient_stats(frozen)
        want = gradient_stats(grads.copy())
        assert np.array_equal(stats.mean_grad, want.mean_grad)
        assert stats.variance_stat == want.variance_stat
        assert np.array_equal(frozen, grads)

    def test_integer_rows_are_converted_not_overwritten(self):
        grads = np.array([[1, 2], [3, 5], [4, 4]])
        _, var = two_pass_stats(grads)
        assert gradient_stats(grads).variance_stat == var
        assert np.array_equal(grads, [[1, 2], [3, 5], [4, 4]])

    def test_identical_rows_give_exact_zero(self):
        grads = np.tile(np.array([0.1, -0.7, 1.0 / 3.0]), (9, 1))
        assert gradient_stats(grads.copy()).variance_stat == 0.0

    def test_equal_first_rows_still_scan_the_rest(self):
        grads = np.tile(np.array([0.1, -0.7, 1.0 / 3.0]), (9, 1))
        grads[5, 1] = 2.0
        _, var = two_pass_stats(grads)
        assert var > 0.0
        assert gradient_stats(grads.copy()).variance_stat == var

    def test_two_rows(self):
        grads = np.array([[1.0, 2.0, -3.0], [0.5, 2.5, 4.0]])
        _, var = two_pass_stats(grads)
        assert gradient_stats(grads.copy()).variance_stat == var

    def test_single_row_is_nan(self):
        stats = gradient_stats(np.array([[1.0, 2.0]]))
        assert math.isnan(stats.variance_stat)
        assert np.array_equal(stats.mean_grad, [1.0, 2.0])


# row counts around the moment kernel's 2048-row blocks: one block, a
# block and a row, two blocks and a row, and 98 blocks, the last of one row
MOMENT_SIZES = (2, 2047, 2048, 2049, 4097, 200001)


class TestMoments:
    """The blocked moment kernel ``model._moments``, its tiled row-vector
    broadcast ``model._rowwise``, and the block-height tiles of the basic
    problem's writes."""

    @pytest.fixture(scope="class")
    def rows(self):
        return np.random.default_rng(9).normal(size=(max(MOMENT_SIZES), 20)) * 3.0 + 1.0

    @pytest.mark.parametrize("n", MOMENT_SIZES)
    def test_same_bits_at_one_two_and_three_workers(self, monkeypatch, rows, n):
        results = []
        for workers in (1, 2, 3):
            set_workers(monkeypatch, workers)
            results.append(model._moments(rows[:n]))
        for mean, m2 in results[1:]:
            assert np.array_equal(mean, results[0][0]) and m2 == results[0][1]

    @pytest.mark.parametrize("n", MOMENT_SIZES)
    def test_equals_the_blocked_reference(self, rows, n):
        mean, m2 = model._moments(rows[:n])
        want_mean, want_m2 = blocked_moments(rows[:n])
        assert np.array_equal(mean, want_mean) and m2 == want_m2

    @pytest.mark.parametrize("n", MOMENT_SIZES)
    def test_agrees_with_two_pass_stats(self, rows, n):
        stats = gradient_stats(rows[:n])
        mean, var = two_pass_stats(rows[:n])
        if n <= model._STREAM_BLOCK_ROWS:  # one block: the two-pass bits
            assert np.array_equal(stats.mean_grad, mean) and stats.variance_stat == var
        np.testing.assert_allclose(stats.mean_grad, mean, rtol=1e-13)
        assert stats.variance_stat == pytest.approx(var, rel=1e-13)

    @pytest.mark.parametrize("n", [2049, 4097])
    def test_only_reads_its_argument(self, rows, n):
        work = rows[:n].copy()
        frozen = rows[:n].copy()
        frozen.setflags(write=False)
        ints = np.arange(n * 3).reshape(n, 3) % 7
        want_mean, want_m2 = model._moments(rows[:n])
        for arg in (work, frozen):
            mean, m2 = model._moments(arg)
            assert np.array_equal(mean, want_mean) and m2 == want_m2
            assert np.array_equal(arg, rows[:n])
        assert model._moments(ints)[1] == model._moments(ints.astype(float))[1]
        assert np.array_equal(ints, np.arange(n * 3).reshape(n, 3) % 7)

    @pytest.mark.parametrize("n", [1, 5, 127, 128, 129, 640, 1000, BLOCK - 1, BLOCK])
    def test_tiled_broadcast_gives_the_plain_broadcast_bits(self, n):
        # the moment kernel's 128-row slabs (n % 128 == 0 has no remainder
        # slab; the other sizes have one), and the basic writes' tiles of
        # one block's height sliced to a part of one block or less
        assert model._SLAB_ROWS == 128
        rng = np.random.default_rng(n)
        m, v = rng.normal(size=(n, 20)), rng.normal(size=20)

        def tiles(w):
            return np.tile(w, (model._SLAB_ROWS, 1)), np.tile(w, (BLOCK, 1))[:n]

        slab, tall = tiles(v)
        for op in (np.add, np.subtract, np.multiply):
            out = np.empty_like(m)
            model._rowwise(op, m, slab, out)
            assert np.array_equal(out, op(m, v))
            assert np.array_equal(op(m, tall, out=out), op(m, v))
        work = m.copy()  # in place, as the moment kernel runs it
        model._rowwise(np.add, work, slab, work)
        assert np.array_equal(work, m + v)
        # the basic writes form x - b*xi as (-b)*xi + x, in place
        (_, neg), (_, x) = tiles(-v), tiles(m[0])
        np.multiply(m, neg, out=work)
        np.add(work, x, out=work)
        assert np.array_equal(work, m[0] - v * m)
        np.multiply(work, tall, out=work)
        assert np.array_equal(work, (m[0] - v * m) * v)


# row counts around the 2048-row blocks of the fold, up to 32 blocks and a
# row, which the parallel pass splits between workers
FOLD_SIZES = (2, 3, 2047, 2048, 2049, 4097, 65537)


class TestScaledRows:
    """``gradient_stats`` of ``ScaledRows`` forms the rows a block at a time
    and gives the bits of the (n, d + 1) array they stand for."""

    @pytest.fixture(scope="class")
    def parts(self):
        rng = np.random.default_rng(17)
        n = max(FOLD_SIZES)
        return rng.normal(size=(n, 20)) * 3.0 + 1.0, rng.random(n) * 10.0

    @staticmethod
    def materialized(grads, scale, tail):
        """The array the extended and nested steps formed before the fold."""
        if not tail:
            return grads * scale[:, None]
        out = np.empty((grads.shape[0], grads.shape[1] + 1))
        np.multiply(scale[:, None], grads, out=out[:, :-1])
        np.subtract(1.0, scale, out=out[:, -1])
        return out

    @pytest.mark.parametrize("tail", [True, False], ids=["extended", "nested"])
    @pytest.mark.parametrize("n", FOLD_SIZES)
    def test_same_bits_as_the_array_at_one_two_and_three_workers(
        self, monkeypatch, parts, n, tail
    ):
        grads, scale = parts[0][:n], parts[1][:n]
        rows = ScaledRows(grads, scale, 1.0 - scale if tail else None)
        whole = self.materialized(grads, scale, tail)
        assert np.array_equal(np.asarray(rows), whole)
        set_workers(monkeypatch, 1)
        want = gradient_stats(whole)
        for workers in (1, 2, 3):
            set_workers(monkeypatch, workers)
            stats = gradient_stats(rows)
            assert np.array_equal(stats.mean_grad, want.mean_grad)
            assert stats.variance_stat == want.variance_stat and stats.n == n

    @pytest.mark.parametrize("n", [9, 4097])
    def test_identical_rows_give_exact_zero(self, monkeypatch, n):
        set_workers(monkeypatch, 2)
        grads = np.tile(np.array([0.1, -0.7, 1.0 / 3.0]), (n, 1))
        scale = np.full(n, 0.7)
        rows = ScaledRows(grads, scale, 1.0 - scale)
        assert gradient_stats(rows).variance_stat == 0.0
        grads[n - 1, 1] = 2.0  # equal first rows, one other row in the last block
        stats = gradient_stats(rows)
        assert stats.variance_stat > 0.0
        assert stats.variance_stat == gradient_stats(np.asarray(rows)).variance_stat

    def test_single_row_is_nan(self):
        rows = ScaledRows(np.array([[1.0, 2.0]]), np.array([0.5]), np.array([0.5]))
        stats = gradient_stats(rows)
        assert math.isnan(stats.variance_stat)
        assert np.array_equal(stats.mean_grad, [0.5, 1.0, 0.5])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowed_rows_give_a_non_finite_statistic_without_a_warning(
        self, monkeypatch, workers
    ):
        set_workers(monkeypatch, workers)
        grads = np.random.default_rng(5).normal(size=(4097, 3)) * 1e307
        grads[100] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rows in (grads, ScaledRows(grads, np.full(4097, 10.0))):
                assert not math.isfinite(gradient_stats(rows).variance_stat)


class TestGradientOwnership:
    # the statistics only read the gradients, so a grad_many result that
    # aliases the samples or is read-only is used as it is

    def test_aliasing_view_leaves_the_samples_and_gives_the_two_pass_stats(self):
        # f(x; xi) = <x, xi[1:]>: the batched gradient is a view of xis
        problem = StochasticProblem(
            dim=3,
            sampler=lambda s, n: fill_rows(s, n, 4, lambda g, out: g.random(out=out)),
            value_many=lambda x, xis: xis[:, 1:] @ x,
            grad_many=lambda x, xis: xis[:, 1:],
        )
        s = draw_samples(problem, 6, 0, 0)
        before = s.realizations.copy()
        stats = sample_gradient(problem, np.zeros(3), s)
        assert np.array_equal(s.realizations, before)
        mean, var = two_pass_stats(before[:, 1:])
        assert np.array_equal(stats.mean_grad, mean) and stats.variance_stat == var

    def test_read_only_broadcast_gives_the_two_pass_stats(self):
        # f(x; xi) = 2 xi (x_0 + x_1); the batched gradient is a read-only
        # broadcast of one column
        problem = StochasticProblem(
            dim=2,
            sampler=lambda s, n: fill_rows(s, n, 1, lambda g, out: g.random(out=out)),
            value_many=lambda x, xis: 2.0 * xis[:, 0] * (x[0] + x[1]),
            grad_many=lambda x, xis: np.broadcast_to(2.0 * xis, (xis.shape[0], 2)),
        )
        s = draw_samples(problem, 5, 0, 1)
        before = s.realizations.copy()
        stats = sample_gradient(problem, np.zeros(2), s)
        assert np.array_equal(s.realizations, before)
        mean, var = two_pass_stats(np.broadcast_to(2.0 * before, (5, 2)))
        assert np.array_equal(stats.mean_grad, mean) and stats.variance_stat == var

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_array_read_as_rows_forms_an_equal_copy(self, monkeypatch, workers):
        # an evaluator's array becomes Rows whose writes return views of it;
        # np.asarray forms a new array, so the caller may write it
        set_workers(monkeypatch, workers)
        grads = np.random.default_rng(3).normal(size=(4097, 3))
        rows = model._as_rows(grads)
        formed = np.asarray(rows)
        assert np.array_equal(formed, grads) and not np.shares_memory(formed, grads)
        assert model._as_rows(rows) is rows

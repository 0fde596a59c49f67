"""Independent oracles used by the test suite.

These deliberately avoid the library's own algorithms: projections are
verified against an exhaustive active-set QP enumeration, SQP steps against a
dense KKT linear system, and gradients against central finite differences.

Reference code that only the tests use lives here too: the box and the
hyperplane (leaf sets no driver or CLI path projects onto), the exact
empirical VaR and CVaR, one projected gradient step as the drivers take it,
a Monte-Carlo check of the moments the sample-size theory controls, the
setting of the worker count under which the parallel passes run, the
keyed sample stream, the blocked product and the blocked moment kernel
written out block by block, and the adaptive spgd, extended CVaR,
nested-quantile and SQP runs on the packaged problems written out as plain
loops over them.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from adasamp import algorithms, model, records, risk
from adasamp.geometry import (
    ConstraintSet,
    Halfspace,
    Intersection,
    NonNegativeOrthant,
    UnitSimplex,
    _as_vector,
    project,
)
from adasamp.model import StochasticProblem, batch_grads, draw_samples, sample_gradient


@dataclass(frozen=True, eq=False)
class Box(ConstraintSet):
    """The box {x : lower <= x <= upper}, a leaf set projected by clipping;
    infinite bounds are allowed."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper componentwise")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def _project(self, y):
        return np.clip(y, self.lower, self.upper)


@dataclass(frozen=True, eq=False)
class Hyperplane(ConstraintSet):
    """The set {x : <normal, x> = offset}, a leaf set projected in closed
    form: the linearization of an equality constraint."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        normal = _as_vector(self.normal, "normal")
        if not np.any(normal):
            raise ValueError("hyperplane normal must be nonzero")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def _project(self, y):
        shift = (float(self.normal @ y) - self.offset) / float(self.normal @ self.normal)
        return y - shift * self.normal


def var_empirical(values, beta: float) -> float:
    """Empirical beta-quantile: the ceil(beta*N)-th order statistic
    (1-indexed, with ceil(0) treated as 1)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty value list")
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    k = max(1, math.ceil(beta * values.size))
    return float(np.sort(values)[k - 1])


def cvar_empirical(values, beta: float) -> float:
    """Exact empirical CVaR via the dual form min_t t + mean((v-t)_+)/(1-beta).

    The objective is convex piecewise linear with breakpoints at the order
    statistics, so evaluating it at every order statistic and taking the
    minimum is exact.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty value list")
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    v = np.sort(values)
    n = v.size
    # mean((v - t)_+) at t = v[k] is (suffix_sum[k] - (n-k-1) * v[k]) / n
    suffix = np.concatenate([np.cumsum(v[::-1])[::-1][1:], [0.0]])
    tail_means = (suffix - (n - 1 - np.arange(n)) * v) / n
    return float(np.min(v + tail_means / (1.0 - beta)))


def spgd_step(problem, cset, x, sample_set, alpha):
    """One projected gradient step on a sample-average gradient, as the
    drivers take it: ``sample_gradient``, then the drivers' own
    ``_projected_step`` (with no test, so no norm test runs).

    Returns (x_next, reduced_grad, stats) with x_next = P(x - alpha * mean
    gradient) and reduced_grad = (x - x_next) / alpha.
    """
    x = np.asarray(x, dtype=float)
    stats = sample_gradient(problem, x, sample_set)
    cfg = algorithms.OptimizerConfig(alpha=alpha, max_iters=1, test=None)
    step = algorithms._projected_step(cset, x, stats, cfg)
    return step.x_next, step.reduced_grad, stats


def set_workers(monkeypatch, workers):
    """Run the row passes as on ``workers`` CPUs. Passes split from 4096 rows
    on, so that small sizes cover the split: a pass of 4096 rows or more
    runs on two or more of its 2048-row blocks, as every pass does."""
    monkeypatch.setattr(model, "_workers", lambda: workers)
    monkeypatch.setattr(model, "_PARALLEL_MIN_ROWS", 4096)


def counting_drains(monkeypatch):
    """A list that gets one entry per drain submitted to the row pool."""
    submitted, executor = [], model._executor

    class Counting:
        def submit(self, fn, *args):
            submitted.append(fn)
            return executor().submit(fn, *args)

    monkeypatch.setattr(model, "_executor", Counting)
    return submitted


def keyed_rows(seed, iteration, n, draw):
    """The first n sample rows of iteration ``iteration`` under ``seed``,
    written out: block b holds ``draw(generator, rows)`` of the SFC64
    generator keyed by (seed, 0, iteration, b), the blocks have
    ``model._STREAM_BLOCK_ROWS`` rows, and the last one is truncated."""
    size = model._STREAM_BLOCK_ROWS
    blocks = []
    for b, start in enumerate(range(0, n, size)):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(0, iteration, b))
        blocks.append(draw(np.random.Generator(np.random.SFC64(seq)), min(size, n - start)))
    return np.concatenate(blocks)


def blocked_product(m, w):
    """``model._blocked_matmul`` written out: m @ w with one new array per
    block of ``model._BLOCK_ROWS`` rows, and the last partial block
    zero-padded to the full block shape."""
    size = model._BLOCK_ROWS
    blocks = []
    for lo in range(0, m.shape[0], size):
        rows = m[lo : lo + size]
        padded = np.zeros((size, m.shape[1]))
        padded[: rows.shape[0]] = rows
        blocks.append((padded @ w)[: rows.shape[0]])
    return np.concatenate(blocks)


def blocked_moments(rows):
    """``model._moments`` written out: (mean, M2) from blocks of
    ``model._STREAM_BLOCK_ROWS`` rows, each with its column sum s_b and its
    deviation sum M2_b about its mean c_b, merged in block order as mean =
    sum_b s_b / n and M2 = sum_b M2_b + sum_b n_b ||c_b - mean||^2; M2 is
    0.0 for identical rows."""
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    size = model._STREAM_BLOCK_ROWS
    blocks = [rows[lo : lo + size] for lo in range(0, n, size)]
    sums = [block.sum(axis=0) for block in blocks]
    total = sums[0]
    for s in sums[1:]:
        total = total + s
    mean = total / n
    if n >= 2 and np.all(rows == rows[0]):
        return mean, 0.0
    m2 = spread = 0.0
    for block, s in zip(blocks, sums):
        c_b = s / len(block)
        dev = block - c_b
        m2 += np.einsum("ij,ij->", dev, dev)
        spread += ((c_b - mean) ** 2).sum() * len(block)
    return mean, m2 + spread


def _packaged(problem, cset):
    """A packaged problem written out with numpy broadcasting in the
    library's order, with the per-row products of ``blocked_product``:
    (draw, grads, values, proj, optimum). ``proj`` is ``np.maximum`` on the
    basic problem's orthant and ``project`` on the portfolio set. Only the
    frozen parameters are read from ``problem.params``."""
    params = problem.params
    if "a" in params:  # the basic problem: f = sum_l a_l (x_l - b_l xi_l)^2 on x >= 0
        a, b = params["a"], params["b"]
        draw = lambda g, rows: g.random((rows, a.size))
        grads = lambda x, xis: ((-b) * xis + x) * (2.0 * a)
        values = lambda x, xis: blocked_product(np.square((-b) * xis + x), a)
        return draw, grads, values, (lambda y: np.maximum(y, 0.0)), np.maximum(0.0, b / 2.0)
    # the portfolio: f = -<xi, x> with xi = A + B u
    A, B = params["A"], params["B"]
    draw = lambda g, rows: blocked_product(g.standard_normal((rows, A.size)), B.T) + A
    grads = lambda x, xis: -xis
    values = lambda x, xis: blocked_product(xis, -x)
    return draw, grads, values, (lambda y: project(cset, y).point), None


def _reference_loop(cfg, x, draw, proj, iterate, optimum=None):
    """The drivers' loop written out: (records, status). Set k is the first
    n rows of ``keyed_rows`` of iteration k, and ``iterate(x, xis)`` gives
    its rows, objective and t; the statistics are ``blocked_moments``; then
    come the step-too-small rule (a nonzero mean whose step rounds to x),
    the stationarity guard and the norm test's formula."""
    test, n = cfg.test, cfg.initial_sample_size
    cum, out, status = 0, [], "completed"
    for k in range(cfg.max_iters):
        xis = keyed_rows(cfg.seed, k, n, draw)
        rows, objective, t = iterate(x, xis)
        mean, m2 = blocked_moments(rows)
        point = x - cfg.alpha * mean
        x_next = proj(point)
        reduced = (x - x_next) / cfg.alpha
        rho, next_n = None, n
        if np.array_equal(point, x) and mean.any():
            status = "step-too-small"
        elif np.linalg.norm(reduced) <= algorithms.STATIONARITY_TOL * (1.0 + np.linalg.norm(x)):
            status = "stationary"
        elif test is not None:
            rho = m2 / ((n - 1) * n) / (test.theta**2 * float(reduced @ reduced))
            if rho > 1.0:
                next_n = math.ceil(min(rho * n, test.max_sample_size))
        cum += n
        err = None if optimum is None else float(np.linalg.norm(x - optimum))
        out.append(records.RunRecord(k, n, cum, objective, err, rho, t))
        if status != "completed":
            break
        x, n = x_next, next_n
    return out, status


def reference_spgd(problem, cset, cfg, x0):
    """``algorithms.run_spgd_adaptive`` on a packaged problem written out as
    one plain loop with no ``Rows``, no pool and no read-ahead: (records,
    status), from ``_packaged`` and ``_reference_loop``."""
    draw, grads, values, proj, optimum = _packaged(problem, cset)

    def iterate(x, xis):
        return grads(x, xis), float(np.mean(values(x, xis))), None

    return _reference_loop(cfg, proj(np.asarray(x0, dtype=float)), draw, proj, iterate, optimum)


def reference_extended(problem, cset, beta, epsilon, cfg, x0):
    """``algorithms.run_cvar_extended`` on a packaged problem written out as
    one plain loop over z = (x, t): (records, status). t0 is the mean of the
    values at the projected x0 over the first s0 rows of iteration 0; the
    rows are the explicit (n, d+1) array [s_i g_i, 1 - s_i] with s =
    expit((f - t)/epsilon)/(1 - beta); the objective is the mean of t +
    smooth_plus(f - t)/(1 - beta); t passes through the projection."""
    draw, grads, values, proj, _ = _packaged(problem, cset)
    x = proj(np.asarray(x0, dtype=float))
    t0 = float(np.mean(values(x, keyed_rows(cfg.seed, 0, cfg.initial_sample_size, draw))))
    proj_z = lambda z: np.append(proj(z[:-1]), z[-1])

    def iterate(z, xis):
        x, t = z[:-1], float(z[-1])
        f = values(x, xis)
        s = risk.expit((f - t) / epsilon) / (1.0 - beta)
        rows = np.column_stack([s[:, None] * grads(x, xis), 1.0 - s])
        return rows, float(np.mean(t + risk.smooth_plus(f - t, epsilon) / (1.0 - beta))), t

    return _reference_loop(cfg, proj_z(np.append(x, t0)), draw, proj_z, iterate)


def reference_nested(problem, cset, beta, epsilon, cfg, x0):
    """``algorithms.run_nested_quantile`` on a packaged problem written out
    as one plain loop: (records, status). Each set's t and objective are
    ``risk.smoothed_cvar`` of its values f, and its rows are w_i g_i with
    w = expit((f - t)/epsilon)."""
    draw, grads, values, proj, _ = _packaged(problem, cset)

    def iterate(x, xis):
        f = values(x, xis)
        t, objective = risk.smoothed_cvar(f, beta, epsilon)
        return risk.expit((f - t) / epsilon)[:, None] * grads(x, xis), objective, t

    return _reference_loop(cfg, proj(np.asarray(x0, dtype=float)), draw, proj, iterate)


def reference_sqp(problem, cfg, x0, known_optimum=None):
    """``algorithms.run_sqp_adaptive`` on a packaged problem under the CLI's
    unit-sphere constraint G(x) = ||x||^2 - 1, written out as one plain
    loop: (records, status). Set k is the first n rows of ``keyed_rows`` of
    iteration k, and row i's direction is d_i = -alpha (g_i + lambda_i
    grad_G) with lambda_i = (G - alpha <g_i, grad_G>) / (alpha ||grad_G||^2),
    the products from ``blocked_product``; the statistics are
    ``blocked_moments``; then come the step-too-small rule on x + mean, the
    stationarity guard on -mean / alpha and the norm test's formula with
    the mean. A failed test takes the first ceil(min(rho n, cap)) rows of
    the same iteration, until the test passes or the set is at the cap. The
    objective is the mean value over the final set."""
    draw, grads, values, _, _ = _packaged(problem, None)
    test, n, x, alpha = cfg.test, cfg.initial_sample_size, np.asarray(x0, dtype=float), cfg.alpha
    cum, out, status = 0, [], "completed"
    for k in range(cfg.max_iters):
        G, grad_G, rho = float(x @ x) - 1.0, 2.0 * x, None
        while True:
            xis = keyed_rows(cfg.seed, k, n, draw)
            g = grads(x, xis)
            lams = (G - alpha * blocked_product(g, grad_G)) / (alpha * float(grad_G @ grad_G))
            mean, m2 = blocked_moments((g + lams[:, None] * grad_G) * -alpha)
            tol = algorithms.STATIONARITY_TOL * (1.0 + np.linalg.norm(x))
            if np.array_equal(x + mean, x) and mean.any():
                status = "step-too-small"
            elif np.linalg.norm(-mean / alpha) <= tol:
                status = "stationary"
            elif test is not None:
                rho = m2 / ((n - 1) * n) / (test.theta**2 * float(mean @ mean))
                if rho > 1.0:
                    grown = math.ceil(min(rho * n, test.max_sample_size))
                    if grown > n:
                        n = grown
                        continue
                    status = "sample-budget-exhausted"
            break
        cum += n
        err = None if known_optimum is None else float(np.linalg.norm(x - known_optimum))
        out.append(records.RunRecord(k, n, cum, float(np.mean(values(x, xis))), err, rho, None))
        if status != "completed":
            break
        x = x + mean
    return out, status


def full_space(dim):
    """The unconstrained set R^dim, as a box with infinite bounds."""
    return Box(np.full(dim, -np.inf), np.full(dim, np.inf))


def feasibility_residual(cset, y):
    """Distance from y to the set, measured through its projection."""
    y = np.asarray(y, dtype=float)
    return float(np.linalg.norm(y - project(cset, y).point))


def rowwise_problem(dim, sampler, value, grad):
    """A problem whose batched evaluators loop the per-sample formulas
    ``value(x, xi)`` and ``grad(x, xi)`` over the rows of xis."""
    return StochasticProblem(
        dim=dim,
        sampler=sampler,
        value_many=lambda x, xis: np.array([value(x, xi) for xi in xis], dtype=float),
        grad_many=lambda x, xis: np.array([grad(x, xi) for xi in xis], dtype=float),
    )


def linear_constraints(cset):
    """Express a constraint set as (equalities, inequalities) with rows
    (vector a, scalar b) meaning <a, x> = b and <a, x> <= b respectively."""
    dim = cset.dim
    eye = np.eye(dim)
    if isinstance(cset, NonNegativeOrthant):
        return [], [(-eye[i], 0.0) for i in range(dim)]
    if isinstance(cset, Box):
        ineqs = []
        for i in range(dim):
            if np.isfinite(cset.upper[i]):
                ineqs.append((eye[i], float(cset.upper[i])))
            if np.isfinite(cset.lower[i]):
                ineqs.append((-eye[i], -float(cset.lower[i])))
        return [], ineqs
    if isinstance(cset, UnitSimplex):
        return [(np.ones(dim), 1.0)], [(-eye[i], 0.0) for i in range(dim)]
    if isinstance(cset, Halfspace):
        return [], [(-cset.normal, -cset.offset)]
    if isinstance(cset, Hyperplane):
        return [(cset.normal, cset.offset)], []
    if isinstance(cset, Intersection):
        eqs, ineqs = [], []
        for m in cset.members:
            e, i = linear_constraints(m)
            eqs.extend(e)
            ineqs.extend(i)
        return eqs, ineqs
    raise TypeError(f"no linear form for {type(cset).__name__}")


def _equality_projection(y, rows, rhs):
    """argmin ||y - x||^2 s.t. rows @ x = rhs, via the normal equations of
    the KKT system; returns None when the rows are inconsistent."""
    E = np.asarray(rows, dtype=float)
    f = np.asarray(rhs, dtype=float)
    gram = E @ E.T
    resid = E @ y - f
    try:
        lam = np.linalg.solve(gram, resid)
    except np.linalg.LinAlgError:
        lam, *_ = np.linalg.lstsq(gram, resid, rcond=None)
    x = y - E.T @ lam
    if np.max(np.abs(E @ x - f)) > 1e-8:
        return None
    return x


def qp_projection_oracle(cset, y):
    """Exhaustive active-set projection: enumerate every subset of the
    inequality constraints as active, solve the equality-constrained
    projection, and keep the feasible candidate closest to y."""
    y = np.asarray(y, dtype=float)
    eqs, ineqs = linear_constraints(cset)
    if len(ineqs) > 16:
        raise ValueError("too many inequalities for exhaustive enumeration")
    A = np.array([a for a, _ in ineqs]) if ineqs else np.zeros((0, y.size))
    b = np.array([v for _, v in ineqs])

    best = None
    best_dist = np.inf
    for r in range(len(ineqs) + 1):
        for active in itertools.combinations(range(len(ineqs)), r):
            rows = [a for a, _ in eqs] + [ineqs[i][0] for i in active]
            rhs = [v for _, v in eqs] + [ineqs[i][1] for i in active]
            if rows:
                x = _equality_projection(y, rows, rhs)
                if x is None:
                    continue
            else:
                x = y.copy()
            if A.shape[0] and np.max(A @ x - b) > 1e-9:
                continue
            dist = float(np.linalg.norm(y - x))
            if dist < best_dist:
                best, best_dist = x, dist
    if best is None:
        raise ValueError("oracle found no feasible candidate (empty set?)")
    return best


def random_sets(dim, rng):
    """One instance of every projectable constraint-set variant, with
    well-conditioned random geometry."""
    a = rng.normal(size=dim)
    a[np.abs(a) < 0.1] += 0.2
    lower = rng.normal(size=dim) - 1.0
    sets = [
        NonNegativeOrthant(dim),
        Box(lower, lower + np.abs(rng.normal(size=dim)) + 0.5),
        UnitSimplex(dim),
        Halfspace(a, float(rng.normal() * 0.3)),
        Hyperplane(a, float(rng.normal() * 0.3)),
        Hyperplane(a, -float(rng.normal() * 0.5)),
        Intersection((NonNegativeOrthant(dim), Hyperplane(np.ones(dim), 1.0))),
    ]
    # normal entries spaced by factors of about 2, in random order: a cut
    # whose entries are nearly equal is nearly parallel to the simplex, and
    # Dykstra then needs thousands of cycles
    z = np.abs(rng.normal(size=dim))
    normal = 2.0 ** np.argsort(np.argsort(z)) * (1.0 + 0.1 * np.minimum(z, 1.0))
    return sets + [simplex_cut(normal)]


def simplex_cut(normal):
    """The unit simplex cut by the halfspace <normal, x> >= offset, with the
    offset halfway between the two largest normal entries. On the simplex
    <normal, x> ranges from the smallest to the largest entry, so the set is
    never empty (the vertex of the largest entry is in it), and the cut is
    proper when the two largest entries differ."""
    normal = np.asarray(normal, dtype=float)
    top = np.sort(normal)[-2:]
    return Intersection((UnitSimplex(normal.size), Halfspace(normal, float(top.mean()))))


def kkt_sqp_oracle(grad_F, grad_G, G_val, alpha):
    """Dense KKT solve of min <grad_F, d> + ||d||^2/(2 alpha)
    s.t. <grad_G, d> + G_val = 0."""
    grad_F = np.asarray(grad_F, dtype=float)
    grad_G = np.asarray(grad_G, dtype=float)
    n = grad_F.size
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = np.eye(n) / alpha
    K[:n, n] = grad_G
    K[n, :n] = grad_G
    rhs = np.concatenate([-grad_F, [-float(G_val)]])
    sol = np.linalg.solve(K, rhs)
    return sol[:n]


def central_diff(fun, x, h=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (fun(x + step) - fun(x - step)) / (2.0 * h)
    return g


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    denom = np.linalg.norm(exact)
    if denom == 0.0:
        return float(np.linalg.norm(approx))
    return float(np.linalg.norm(approx - exact) / denom)


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


def _mean_se(values):
    m = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(values.shape[0]))
    return m, se


def condition_diagnostic(problem, cset, x, n, M, alpha, ref_size, seed):
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
    ref_grad = np.asarray(batch_grads(problem, x, ref_set.realizations)).mean(axis=0)
    ref_q = project(cset, x - alpha * ref_grad).point
    ref_r = (x - ref_q) / alpha
    ref_r_norm = float(np.linalg.norm(ref_r))

    rs_sq = np.empty(M)
    grad_err_sq = np.empty(M)
    r_err_sq = np.empty(M)
    q_diff = np.empty((M, x.shape[0]))
    for m in range(M):
        s = draw_samples(problem, n, m + 1, seed)
        g = np.asarray(batch_grads(problem, x, s.realizations)).mean(axis=0)
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

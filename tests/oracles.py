"""Independent oracles used by the test suite.

These deliberately avoid the library's own algorithms: projections are
verified against an exhaustive active-set QP enumeration, SQP steps against a
dense KKT linear system, and gradients against central finite differences.
"""

import itertools

import numpy as np

from adasamp.geometry import (
    Box,
    Halfspace,
    Hyperplane,
    Intersection,
    NonNegativeOrthant,
    UnitSimplex,
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
    return [
        NonNegativeOrthant(dim),
        Box(lower, lower + np.abs(rng.normal(size=dim)) + 0.5),
        UnitSimplex(dim),
        Halfspace(a, float(rng.normal() * 0.3)),
        Hyperplane(a, float(rng.normal() * 0.3)),
        Hyperplane(a, -float(rng.normal() * 0.5)),
        Intersection((NonNegativeOrthant(dim), Hyperplane(np.ones(dim), 1.0))),
        Intersection(
            (UnitSimplex(dim), Halfspace(np.abs(rng.normal(size=dim)) + 0.2, 0.3))
        ),
    ]


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

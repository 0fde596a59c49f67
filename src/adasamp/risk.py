"""VaR/CVaR computation, softplus-style smoothing of (.)_+, the smoothed-CVaR
scalar minimization, and the extended problem over (x, t)."""

from __future__ import annotations

import math

import numpy as np

from .model import StochasticProblem, Stream, batch_grads, batch_values

__all__ = [
    "ExtendedProblem",
    "smooth_plus",
    "smooth_plus_deriv",
    "var_empirical",
    "cvar_empirical",
    "quantile_solve",
    "smoothed_cvar",
]

# Bracket width at which quantile_solve stops bisecting.
QUANTILE_TOL = 1e-12


def expit(x):
    """The logistic function 1/(1 + exp(-x)), elementwise.

    This is scipy.special.expit itself, imported on the first call so that
    importing adasamp (and running the expectation and SQP drivers) does not
    load scipy. Callers in this module look the name up at call time, so
    replacing ``adasamp.risk.expit`` replaces it for them too.
    """
    from scipy.special import expit as scipy_expit

    return scipy_expit(x)


def smooth_plus(y, epsilon: float):
    """Smooth approximation of max(y, 0): y + epsilon*ln(1 + exp(-y/epsilon)).

    Computed as max(y, 0) + epsilon*log1p(exp(-|y|/epsilon)), which is the
    same function on both branches but never overflows. Total function;
    satisfies max(y, 0) <= result <= max(y, 0) + epsilon*ln 2.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    y = np.asarray(y, dtype=float)
    out = np.maximum(y, 0.0) + epsilon * np.log1p(np.exp(-np.abs(y) / epsilon))
    return float(out) if out.ndim == 0 else out


def smooth_plus_deriv(y, epsilon: float):
    """Derivative of smooth_plus in y: the logistic sigma(y/epsilon)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    y = np.asarray(y, dtype=float)
    out = expit(y / epsilon)
    return float(out) if out.ndim == 0 else out


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


def quantile_solve(values, beta: float, epsilon: float) -> float:
    """The unique t with mean(sigma((v_i - t)/epsilon)) = 1 - beta, by bisection.

    The left side is continuous and strictly decreasing in t, and the bracket
    [min(v) - epsilon*B, max(v) + epsilon*B] with B = ln(N / min(beta, 1-beta))
    guarantees a sign change. Terminates when the bracket width is at most
    QUANTILE_TOL. A NaN or infinite value has no such t and is rejected.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty value list")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly in (0, 1)")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    # min and max propagate NaN, so these two cover every entry
    v_min, v_max = float(values.min()), float(values.max())
    if not (math.isfinite(v_min) and math.isfinite(v_max)):
        raise ValueError("quantile_solve needs finite values (got NaN or inf)")
    target = 1.0 - beta
    pad = epsilon * math.log(values.size / min(beta, 1.0 - beta))
    lo = v_min - pad
    hi = v_max + pad

    def resid(t):
        return float(np.mean(expit((values - t) / epsilon))) - target

    for _ in range(200):
        if hi - lo <= QUANTILE_TOL:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket at floating-point resolution
        if resid(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def smoothed_cvar(values, beta: float, epsilon: float) -> float:
    """Smoothed CVaR: t* + mean(smooth_plus(v - t*, epsilon))/(1-beta) with t*
    the quantile_solve minimizer. Differs from cvar_empirical by at most
    epsilon*ln(2)/(1-beta)."""
    values = np.asarray(values, dtype=float)
    t_star = quantile_solve(values, beta, epsilon)
    return float(t_star + np.mean(smooth_plus(values - t_star, epsilon)) / (1.0 - beta))


class ExtendedProblem:
    """The (x, t) reformulation of smoothed-CVaR minimization.

    The per-sample value is t + smooth_plus(f(x; xi) - t, epsilon)/(1-beta);
    its gradient splits into sigma((f-t)/epsilon) * grad f / (1-beta) in x and
    1 - sigma((f-t)/epsilon)/(1-beta) in t. The feasible set is C x R: the
    trailing t coordinate is unconstrained.
    """

    def __init__(self, base: StochasticProblem, beta: float, epsilon: float):
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must lie strictly in (0, 1)")
        if epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        self.base = base
        self.beta = float(beta)
        self.epsilon = float(epsilon)
        self.dim = base.dim + 1

    def sampler(self, stream: Stream, n: int) -> np.ndarray:
        return self.base.sampler(stream, n)

    def _split(self, z):
        z = np.asarray(z, dtype=float)
        return z[:-1], float(z[-1])

    def value_many(self, z, xis) -> np.ndarray:
        x, t = self._split(z)
        fs = batch_values(self.base, x, xis)
        return t + smooth_plus(fs - t, self.epsilon) / (1.0 - self.beta)

    def grad_many(self, z, xis) -> np.ndarray:
        x, t = self._split(z)
        fs = batch_values(self.base, x, xis)
        gs = batch_grads(self.base, x, xis)
        s = smooth_plus_deriv(fs - t, self.epsilon) / (1.0 - self.beta)
        out = np.empty((gs.shape[0], gs.shape[1] + 1))
        np.multiply(s[:, None], gs, out=out[:, :-1])
        np.subtract(1.0, s, out=out[:, -1])
        return out


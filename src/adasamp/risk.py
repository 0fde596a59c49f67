"""Softplus-style smoothing of (.)_+, the smoothed-CVaR scalar minimization
over t and its value, and the extended problem over (x, t)."""

from __future__ import annotations

import math

import numpy as np

from .model import ScaledRows, SettingError, StochasticProblem, Stream, batch_grads, batch_values

__all__ = [
    "ExtendedProblem",
    "check_cvar",
    "smooth_plus",
    "quantile_solve",
    "smoothed_cvar",
]

# Bracket width at which quantile_solve stops bisecting.
QUANTILE_TOL = 1e-12


def expit(x):
    """The logistic function 1/(1 + exp(-x)), elementwise.

    exp(-x) overflows to inf below x = -709.78, where the quotient is the
    limit 0; the overflow warning is silenced, so no float64 input warns.
    Callers in this module look the name up at call time, so replacing
    ``adasamp.risk.expit`` replaces it for them too.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(np.negative(x)))


def check_cvar(beta: float | None, epsilon: float) -> None:
    """The rules of the CVaR level ``beta`` (skipped when None) and of the
    smoothing width ``epsilon``; a breach raises ``SettingError``."""
    if beta is not None and not 0.0 < beta < 1.0:
        raise SettingError("beta", "must lie strictly in (0, 1)")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise SettingError("epsilon", "must be positive and finite")


def smooth_plus(y, epsilon: float):
    """Smooth approximation of max(y, 0): y + epsilon*ln(1 + exp(-y/epsilon)).

    Computed as max(y, 0) + epsilon*log1p(exp(-|y|/epsilon)), which is the
    same function on both branches but never overflows. Total function;
    satisfies max(y, 0) <= result <= max(y, 0) + epsilon*ln 2.
    """
    check_cvar(None, epsilon)
    y = np.asarray(y, dtype=float)
    out = np.maximum(y, 0.0) + epsilon * np.log1p(np.exp(-np.abs(y) / epsilon))
    return float(out) if out.ndim == 0 else out


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
    check_cvar(beta, epsilon)
    # min and max propagate NaN, so these two cover every entry
    v_min, v_max = float(values.min()), float(values.max())
    if not (math.isfinite(v_min) and math.isfinite(v_max)):
        raise ValueError("quantile_solve needs finite values (got NaN or inf)")
    target = 1.0 - beta
    pad = epsilon * math.log(values.size / min(beta, 1.0 - beta))
    lo = v_min - pad
    hi = v_max + pad

    def resid(t):
        return float(expit((values - t) / epsilon).sum() / values.size) - target

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


def smoothed_cvar(values, beta: float, epsilon: float) -> tuple[float, float]:
    """The smoothed CVaR of ``values`` and its minimizer: returns (t, value)
    with t the quantile_solve root and value t + mean(smooth_plus(v - t,
    epsilon))/(1-beta).

    t minimizes the smoothed objective, and smooth_plus lies within
    epsilon*ln(2) above (.)_+, so the value lies within epsilon*ln(2)/(1-beta)
    above the exact empirical CVaR min_t t + mean((v-t)_+)/(1-beta).
    """
    values = np.asarray(values, dtype=float)
    t_star = quantile_solve(values, beta, epsilon)
    return t_star, float(t_star + np.mean(smooth_plus(values - t_star, epsilon)) / (1.0 - beta))


class ExtendedProblem:
    """The (x, t) reformulation of smoothed-CVaR minimization.

    The per-sample value is t + smooth_plus(f(x; xi) - t, epsilon)/(1-beta);
    its gradient splits into sigma((f-t)/epsilon) * grad f / (1-beta) in x and
    1 - sigma((f-t)/epsilon)/(1-beta) in t. The feasible set is C x R: the
    trailing t coordinate is unconstrained.
    """

    def __init__(self, base: StochasticProblem, beta: float, epsilon: float):
        check_cvar(beta, epsilon)
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

    def grad_many(self, z, xis) -> ScaledRows:
        """The rows [s_i grad f_i, 1 - s_i] with s_i = sigma((f_i - t)/epsilon)
        / (1 - beta), as ``ScaledRows`` over the base gradients' ``Rows``
        (``batch_grads``): ``gradient_stats`` reads them without the (n, dim)
        array, and ``np.asarray`` forms it."""
        x, t = self._split(z)
        fs = batch_values(self.base, x, xis)
        gs = batch_grads(self.base, x, xis)
        s = expit((fs - t) / self.epsilon) / (1.0 - self.beta)
        return ScaledRows(gs, s, 1.0 - s)

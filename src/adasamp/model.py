"""Stochastic problem abstraction, reproducible sampling, and sample-average
objective/gradient evaluation.

Random draws come from counter-based Philox streams keyed by
(base_seed, stream tag, iteration). Each iteration therefore gets a fresh
i.i.d. sample set that is independent of every previous set, and realization
``i`` of a set is a deterministic function of (base_seed, iteration, i): a set
of size ``m > n`` drawn from the same stream starts with exactly the same
``n`` realizations (prefix stability), which is what makes runs reproducible
and makes within-iteration sample augmentation an exact append.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "StochasticProblem",
    "SampleSet",
    "GradientStats",
    "stream_rng",
    "draw_samples",
    "batch_values",
    "batch_grads",
    "sample_objective",
    "sample_gradient",
]

# Stream tags keep sample draws and frozen problem-parameter draws on
# disjoint Philox keys even when they share a base seed.
STREAM_SAMPLES = 0
STREAM_PARAMS = 1

# Rows per block of the blocked per-sample passes.
_BLOCK_ROWS = 512


def stream_rng(base_seed: int, *stream: int) -> np.random.Generator:
    """A Philox generator on the stream keyed by (base_seed, *stream)."""
    if base_seed < 0:
        raise ValueError("base_seed must be non-negative")
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class StochasticProblem:
    """Evaluator bundle for min F(x) = R[f(x; xi)].

    ``sampler(rng, n)`` must return an (n, xi_dim) array and draw in a
    prefix-stable way (one vectorized call, row i depending only on the
    first i+1 blocks of the stream). ``value_many(x, xis)`` returns the (n,)
    values f(x; xi_i) and ``grad_many(x, xis)`` the (n, dim) gradients, one
    row per realization; a single realization is the one-row block
    ``xi[None]``.

    Ownership: the array ``grad_many`` returns passes to the caller, which
    may overwrite it (``gradient_stats`` does). Return a fresh array, or
    ``xis`` itself, a view of it or a read-only array, which ``batch_grads``
    copies; never a writable array the problem keeps and reads again.
    """

    dim: int
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    value_many: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_many: Callable[[np.ndarray, np.ndarray], np.ndarray]
    known_optimum: Optional[np.ndarray] = None
    params: Optional[dict] = None


@dataclass(frozen=True)
class SampleSet:
    """An ordered collection of realizations."""

    realizations: np.ndarray

    def __len__(self) -> int:
        return self.realizations.shape[0]


@dataclass(frozen=True)
class GradientStats:
    """Sample-average gradient and the unbiased per-estimator variance
    statistic sum_i ||g_i - mean||^2 / ((n - 1) n).

    ``variance_stat`` is NaN when n < 2 (undefined)."""

    mean_grad: np.ndarray
    variance_stat: float
    n: int


def draw_samples(problem, n: int, iteration: int, base_seed: int) -> SampleSet:
    """Draw n i.i.d. realizations on the stream keyed by (base_seed, iteration)."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    rng = stream_rng(base_seed, STREAM_SAMPLES, iteration)
    xis = np.asarray(problem.sampler(rng, n), dtype=float)
    if xis.ndim == 1:
        xis = xis[:, None]
    if xis.shape[0] != n:
        raise ValueError(f"sampler returned {xis.shape[0]} realizations, expected {n}")
    return SampleSet(xis)


def _row_blocks(n: int):
    """Row slices of a blocked pass over n rows.

    Blocks start at multiples of 512, so the BLAS kernel groups rows as one
    single-threaded call over all n rows does: same bits. A one-row block
    would go through numpy's dot, which sums in another order, so a one-row
    tail joins the block before it. The blocked results were also the same
    at one to four BLAS threads, whereas one large call is split between
    threads, and the rows at the split change in the last bit.
    """
    start = 0
    while start < n:
        stop = min(start + _BLOCK_ROWS, n)
        if stop == n - 1:
            stop = n
        yield slice(start, stop)
        start = stop


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v, in the row blocks of ``_row_blocks``."""
    out = np.empty(m.shape[0])
    for rows in _row_blocks(m.shape[0]):
        np.matmul(m[rows], v, out=out[rows])
    return out


def batch_values(problem, x: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Per-sample objective values f(x; xi_i), shape (n,)."""
    return np.asarray(problem.value_many(x, xis), dtype=float)


def batch_grads(problem, x: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Per-sample gradients, shape (n, dim).

    The result is always an array the caller owns and may overwrite: a
    ``grad_many`` result that shares memory with ``xis`` (``-xis`` does
    not, ``xis`` or a view of it does) is copied, so that writing into it
    never alters the sample set, and so is a read-only one (such as
    ``np.broadcast_to`` returns).
    """
    grads = np.asarray(problem.grad_many(x, xis), dtype=float)
    if not grads.flags.writeable or np.shares_memory(grads, xis):
        grads = grads.copy()
    return grads


def sample_objective(problem, x, sample_set: SampleSet) -> float:
    """Sample-average objective (1/|S|) sum_i f(x; xi_i)."""
    if len(sample_set) == 0:
        raise ValueError("empty sample set")
    x = np.asarray(x, dtype=float)
    return float(np.mean(batch_values(problem, x, sample_set.realizations)))


def gradient_stats(grads: np.ndarray) -> GradientStats:
    """Statistics of a stack of per-sample gradients (index-ordered reduction,
    so the result is bit-stable).

    A float64 ``grads`` is overwritten: when n >= 2 and its rows differ, it
    holds the deviations g_i - mean on return. Pass a copy to keep the
    gradients.
    """
    grads = np.asarray(grads, dtype=float)
    n = grads.shape[0]
    mean = grads.mean(axis=0)
    if n < 2:
        variance_stat = math.nan
    elif np.all(grads[1] == grads[0]) and np.all(grads == grads[0]):
        # identical rows must give exactly zero, not summation fuzz; the
        # two-row check skips the full scan whenever rows 0 and 1 differ
        variance_stat = 0.0
    else:
        dev = np.subtract(grads, mean, out=grads)
        variance_stat = float(np.einsum("ij,ij->", dev, dev) / ((n - 1) * n))
    return GradientStats(mean, variance_stat, n)


def sample_gradient(problem, x, sample_set: SampleSet) -> GradientStats:
    """Sample-average gradient with its variance statistic.

    One gradient evaluation is spent per realization; callers account for
    cost by adding len(sample_set) to their cumulative counter.
    """
    if len(sample_set) == 0:
        raise ValueError("empty sample set")
    x = np.asarray(x, dtype=float)
    grads = batch_grads(problem, x, sample_set.realizations)
    return gradient_stats(grads)

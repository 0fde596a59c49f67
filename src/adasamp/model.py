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

import copy
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "StochasticProblem",
    "SampleSet",
    "GradientStats",
    "stream_rng",
    "draw_samples",
    "extend_samples",
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

# Passes over fewer rows run on the calling thread. On two CPUs, split
# passes made the extended portfolio iteration at 10^4 rows up to 10%
# slower: waking the pool and handing chunks over cost more than they saved.
_PARALLEL_MIN_ROWS = 32768
# Largest chunk of a parallel pass, in 512-row blocks (8192 rows).
_CHUNK_BLOCKS = 16
# Chunk of a pipelined pass, in 512-row blocks.
_PIPE_CHUNK_BLOCKS = 2


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
    """An ordered collection of realizations.

    ``rng`` is the stream the set was drawn from, positioned after its last
    row, so that ``extend_samples`` can append the rows that follow; None
    for a set built by hand."""

    realizations: np.ndarray
    rng: Optional[np.random.Generator] = field(default=None, repr=False, compare=False)

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


def _sample(problem, rng: np.random.Generator, n: int) -> np.ndarray:
    xis = np.asarray(problem.sampler(rng, n), dtype=float)
    if xis.ndim == 1:
        xis = xis[:, None]
    if xis.shape[0] != n:
        raise ValueError(f"sampler returned {xis.shape[0]} realizations, expected {n}")
    return xis


def draw_samples(problem, n: int, iteration: int, base_seed: int) -> SampleSet:
    """Draw n i.i.d. realizations on the stream keyed by (base_seed, iteration)."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    rng = stream_rng(base_seed, STREAM_SAMPLES, iteration)
    return SampleSet(_sample(problem, rng, n), rng)


def extend_samples(problem, sample_set: SampleSet, m: int) -> SampleSet:
    """The set grown to m realizations by drawing only the m - n rows that
    follow it on its stream. By prefix stability this equals a fresh draw of
    m rows; the given set and its stream are left as they were."""
    n = len(sample_set)
    if sample_set.rng is None:
        raise ValueError("the sample set has no stream to extend")
    if m <= n:
        raise ValueError(f"cannot extend a set of {n} realizations to {m}")
    rng = copy.deepcopy(sample_set.rng)
    tail = _sample(problem, rng, m - n)
    return SampleSet(np.concatenate([sample_set.realizations, tail]), rng)


def _row_blocks(stop: int, start: int = 0, size: int = _BLOCK_ROWS):
    """Row slices of ``size`` rows (a multiple of 512) covering rows
    start..stop-1, where start is 0 or a multiple of 512; a one-row tail
    joins the slice before it.

    With the default size these are the blocks of a blocked pass. Blocks
    start at multiples of 512, so the BLAS kernel groups rows as one
    single-threaded call over all rows does: same bits. A one-row block
    would go through numpy's dot, which sums in another order, hence the
    joined tail. The blocked results were also the same at one to four BLAS
    threads, whereas one large call is split between threads, and the rows
    at the split change in the last bit. A run of whole slices of a larger
    size holds whole blocks.
    """
    while start < stop:
        end = min(start + size, stop)
        if end == stop - 1:
            end = stop
        yield slice(start, end)
        start = end


def _block_matvec(m: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """out[:] = m @ v with one BLAS call per ``_row_blocks`` block of m,
    where the rows of m are a run of whole blocks of the pass. The full
    512-row blocks go through one stacked matmul, which makes the same
    per-block BLAS calls as a loop over them."""
    n = m.shape[0]
    k = n // _BLOCK_ROWS
    if k and n - k * _BLOCK_ROWS == 1:
        k -= 1  # the one-row tail joins the last block
    full = k * _BLOCK_ROWS
    if k:
        np.matmul(m[:full].reshape(k, _BLOCK_ROWS, -1), v, out=out[:full].reshape(k, _BLOCK_ROWS))
    if full < n:
        np.matmul(m[full:], v, out=out[full:])


def _workers() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_pool = None
_pool_pid = None
_pool_lock = threading.Lock()


def _executor():
    """The row-chunk thread pool, created on first use (and again in a
    forked child, which inherits the pool object but not its threads)."""
    global _pool, _pool_pid
    with _pool_lock:
        if _pool is None or _pool_pid != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max(1, (os.cpu_count() or 1) - 1), "adasamp-rows")
            _pool_pid = os.getpid()
        return _pool


def _in_parallel(fn: Callable[[slice], None], n: int) -> None:
    """Call ``fn(rows)`` on row chunks that cover rows 0..n-1 once.

    Each chunk is a run of whole ``_row_blocks(n)`` blocks, so a chunk's
    blocks are the pass's blocks and a blocked BLAS call sees the rows it
    sees in a serial pass. The calling thread and one pool thread per
    further CPU of the process take chunks in turn until none is left, so a
    CPU that another process slows takes fewer; a pass below
    ``_PARALLEL_MIN_ROWS`` rows runs whole on the calling thread. ``fn``
    runs on pool threads, so it may only do numpy work on rows it owns: in
    particular it must not call a problem's evaluators or any traced
    ``adasamp`` function.
    """
    workers = _workers()
    if n < _PARALLEL_MIN_ROWS or workers < 2:
        fn(slice(0, n))
        return
    # at least two chunks per CPU, of at most _CHUNK_BLOCKS blocks
    step = max(1, min(_CHUNK_BLOCKS, n // _BLOCK_ROWS // (2 * workers)))
    chunks = iter(list(_row_blocks(n, 0, step * _BLOCK_ROWS)))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                rows = next(chunks, None)
            if rows is None:
                return
            fn(rows)

    pool = _executor()
    futures = [pool.submit(drain) for _ in range(workers - 1)]
    try:
        drain()
    finally:
        for future in futures:
            future.result()


def _pipelined(produce: Callable[[slice], None], consume: Callable[[slice], None], n: int) -> None:
    """Call ``produce(rows)`` and then ``consume(rows)`` on row chunks that
    cover rows 0..n-1 once; both work in place on rows of an array the
    caller holds.

    The calling thread produces the chunks in row order, so a serial stream
    stays serial; pool threads consume each chunk while the calling thread
    produces the next ones. Chunks are ``_PIPE_CHUNK_BLOCKS`` whole 512-row
    blocks (the last one may end in a partial block). The last chunk is
    consumed on the calling thread, which has nothing left to produce, and
    so is every chunk when there are fewer than two chunks or one CPU; all
    consumes have returned when this returns, on an error too. ``consume``
    follows the rule of ``_in_parallel``: numpy work on its own rows only,
    never a problem's evaluators or a traced ``adasamp`` function.
    """
    step = _PIPE_CHUNK_BLOCKS * _BLOCK_ROWS
    chunks = [slice(start, min(start + step, n)) for start in range(0, n, step)]
    pool = _executor() if len(chunks) > 1 and _workers() > 1 else None
    pending = []
    try:
        for rows in chunks:
            produce(rows)
            if pool is None or rows.stop == n:
                consume(rows)
            else:
                pending.append(pool.submit(consume, rows))
    finally:
        # on an error too: no consume may still run once this returns
        for future in pending:
            future.exception()
    for future in pending:
        future.result()


def _uniform_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """``rng.random((n, d))``, drawn in row chunks on several threads, with
    the same bits and the generator left where the serial draw leaves it.

    Philox is counter-based and a uniform double takes one 64-bit word, four
    per counter step, so the chunk starting at row r reads the stream from
    counter step r * d / 4 on (r is a multiple of 512). The split needs a
    Philox generator with no buffered words; any other draws serially.
    """
    bitgen = rng.bit_generator
    if n < _PARALLEL_MIN_ROWS or type(bitgen) is not np.random.Philox:
        return rng.random((n, d))
    state = bitgen.state
    if state["buffer_pos"] != 4 or state["has_uint32"] != 0:
        return rng.random((n, d))
    out = np.empty((n, d))
    last = []

    def fill(rows):
        g = np.random.Philox(counter=state["state"]["counter"], key=state["state"]["key"])
        g.advance(rows.start * d // 4)
        np.random.Generator(g).random(out=out[rows])
        if rows.stop == n:
            last.append(g)

    _in_parallel(fill, n)
    bitgen.state = last[0].state
    return out


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v, in the row blocks of ``_row_blocks``."""
    out = np.empty(m.shape[0])
    _in_parallel(lambda rows: _block_matvec(m[rows], v, out[rows]), m.shape[0])
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


def _deviation_sum(rows: np.ndarray, center: np.ndarray) -> float:
    """sum_i ||rows_i - center||^2 over n >= 2 rows (index-ordered
    reduction, so the result is bit-stable), exactly 0.0 when all rows are
    equal.

    A writable float64 ``rows`` holds the deviations rows_i - center on
    return, unless all rows are equal; a read-only or non-float64 argument
    is copied first. The deviations are formed in ``_in_parallel`` row
    chunks and summed by one ``einsum``, so the sum has the same bits at any
    CPU count.
    """
    dev = np.asarray(rows, dtype=float)
    if np.all(dev[1] == dev[0]) and np.all(dev == dev[0]):
        # identical rows must give exactly zero, not summation fuzz; the
        # two-row check skips the full scan whenever rows 0 and 1 differ
        return 0.0
    if not dev.flags.writeable:
        dev = dev.copy()
    _in_parallel(lambda r: np.subtract(dev[r], center, out=dev[r]), dev.shape[0])
    return float(np.einsum("ij,ij->", dev, dev))


def gradient_stats(grads: np.ndarray) -> GradientStats:
    """Statistics of a stack of per-sample gradients (index-ordered reduction,
    so the result is bit-stable).

    The statistic is ``_deviation_sum(grads, mean) / ((n - 1) n)``, the
    kernel ``sqp_norm_test`` shares. A writable float64 ``grads`` is
    overwritten: when n >= 2 and its rows differ, it holds the deviations
    g_i - mean on return. Pass a copy to keep the gradients; a read-only
    array is copied.
    """
    grads = np.asarray(grads, dtype=float)
    n = grads.shape[0]
    mean = grads.mean(axis=0)
    variance_stat = _deviation_sum(grads, mean) / ((n - 1) * n) if n >= 2 else math.nan
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

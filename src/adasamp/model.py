"""Stochastic problem abstraction, reproducible sampling, and sample-average
objective/gradient evaluation.

Sample rows come in keyed blocks of ``_STREAM_BLOCK_ROWS`` rows (stream
version 2): block b of iteration k under base seed s is drawn by its own
SFC64 generator, keyed by (s, STREAM_SAMPLES, k, b), and each block draws
its rows in sequence. Each iteration therefore gets a fresh i.i.d. sample
set that is independent of every previous set, and realization ``i`` of a
set is a deterministic function of (s, k, i): a set of size ``m > n`` starts
with exactly the same ``n`` realizations (prefix stability), the blocks can
be drawn on any number of CPUs with the same bits, and within-iteration
sample augmentation is an exact append. Problem parameters are drawn on the
Philox stream keyed by (s, STREAM_PARAMS).
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

__all__ = [
    "SettingError",
    "StochasticProblem",
    "SampleSet",
    "GradientStats",
    "Rows",
    "ScaledRows",
    "Stream",
    "STREAM_VERSION",
    "stream_rng",
    "fill_rows",
    "draw_samples",
    "extend_samples",
    "batch_values",
    "batch_grads",
    "sample_objective",
    "sample_gradient",
    "gradient_stats",
]

# Stream tags keep sample draws and frozen problem-parameter draws on
# disjoint keys even when they share a base seed.
STREAM_SAMPLES = 0
STREAM_PARAMS = 1
# The layout of the sample rows, recorded in every run's metadata:
# 2 = keyed SFC64 blocks of _STREAM_BLOCK_ROWS rows.
STREAM_VERSION = 2
# Rows per keyed block of the sample stream and per unit of work of every
# row pass (``_start``), a multiple of _BLOCK_ROWS. Keying a block costs
# about 21 us.
_STREAM_BLOCK_ROWS = 2048

# Rows per BLAS call of the per-row products (``_blocked_matmul``).
_BLOCK_ROWS = 128
_SLAB_ROWS = 128  # rows per slab of a tiled row-vector broadcast (``_rowwise``)

# Row passes over fewer rows run on the calling thread (``_split``). Split
# passes on two CPUs made the extended portfolio iteration at 10^4 rows up
# to 10% slower: waking the pool and handing blocks over cost more.
_PARALLEL_MIN_ROWS = 32768


class SettingError(ValueError):
    """A setting that breaks its rule: ``field`` names the setting and
    ``reason`` states the rule, so that the message reads "<field> <reason>".
    The CLI reports it under the flag that sets the field."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field} {reason}")
        self.field, self.reason = field, reason


def stream_rng(base_seed: int, *stream: int) -> np.random.Generator:
    """A Philox generator on the stream keyed by (base_seed, *stream)."""
    if base_seed < 0:
        raise ValueError("base_seed must be non-negative")
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class StochasticProblem:
    """Evaluator bundle for min F(x) = R[f(x; xi)].

    ``sampler(stream, n)`` returns the (n, xi_dim) rows of the ``Stream``
    key it is given, from ``stream.start`` on; it draws them through
    ``fill_rows``, which keeps row i a function of the key and i alone.
    ``value_many(x, xis)`` returns the (n,)
    values f(x; xi_i) and ``grad_many(x, xis)`` the (n, dim) gradients, one
    row per realization, each as an array or as ``Rows`` that form them; a
    single realization is the one-row block ``xi[None]``. The drivers only
    read what ``grad_many`` returns.
    """

    dim: int
    sampler: Callable[["Stream", int], np.ndarray]
    value_many: Callable[[np.ndarray, np.ndarray], "np.ndarray | Rows"]
    grad_many: Callable[[np.ndarray, np.ndarray], "np.ndarray | Rows"]
    known_optimum: Optional[np.ndarray] = None
    params: Optional[dict] = None


@dataclass(frozen=True)
class Stream:
    """Key of the sample rows of iteration ``iteration`` under ``seed``,
    from row ``start`` on."""

    seed: int
    iteration: int
    start: int = 0


@dataclass(frozen=True)
class SampleSet:
    """An ordered collection of realizations.

    ``stream`` is the key of its first row, so that ``extend_samples`` can
    append the rows that follow."""

    realizations: np.ndarray
    stream: Stream

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


def _sample(problem, stream: Stream, n: int) -> np.ndarray:
    xis = np.asarray(problem.sampler(stream, n), dtype=float)
    if xis.ndim != 2 or xis.shape[0] != n:
        raise ValueError(f"sampler returned rows of shape {xis.shape}, expected ({n}, xi_dim)")
    return xis


def draw_samples(problem, n: int, iteration: int, base_seed: int) -> SampleSet:
    """Draw n i.i.d. realizations on the stream keyed by (base_seed, iteration)."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if base_seed < 0:
        raise ValueError("base_seed must be non-negative")
    stream = Stream(int(base_seed), int(iteration))
    return SampleSet(_sample(problem, stream, n), stream)


def extend_samples(problem, sample_set: SampleSet, m: int) -> SampleSet:
    """The set grown to m realizations by drawing only the m - n rows that
    follow it on its stream. By prefix stability this equals a fresh draw of
    m rows; the given set is left as it was."""
    n = len(sample_set)
    stream = sample_set.stream
    if m <= n:
        raise ValueError(f"cannot extend a set of {n} realizations to {m}")
    tail = _sample(problem, Stream(stream.seed, stream.iteration, stream.start + n), m - n)
    return SampleSet(np.concatenate([sample_set.realizations, tail]), stream)


def fill_rows(
    stream: Stream, n: int, d: int, fill: Callable[[np.random.Generator, np.ndarray], None]
) -> np.ndarray:
    """Rows ``stream.start`` .. ``stream.start + n - 1`` of the stream, shape (n, d).

    Block b, rows b * ``_STREAM_BLOCK_ROWS`` on, comes from its own SFC64
    generator, keyed by (seed, STREAM_SAMPLES, iteration, b), and
    ``fill(generator, out)`` writes the block's rows into ``out`` in
    sequence. The last block is truncated, so ``fill`` must write the same
    leading rows into a shorter ``out``: one vectorized draw into ``out``,
    then row-wise numpy work. A block that starts before ``stream.start`` is
    drawn from its first row and its head dropped. The draw queues its
    blocks as every row pass does (``_start``), and one that ``_split``
    splits fills blocks on the pool too, so ``fill`` must be numpy work on
    ``out`` only. In ``_reading_ahead`` on two or more CPUs, a call from row
    0 for a block or more that ``_split`` keeps on this thread then draws
    the next iteration's first n rows on the pool (a smaller draw costs less
    than the handover). The next call of that ``Stream``, d and ``fill``
    (best one object) in this process, not a forked child, takes them whole,
    or their error, and draws any rows past them as ``extend_samples`` does.
    """
    ahead, workers = _local.ahead, _workers()
    if ahead and ahead[0] == (os.getpid(), stream, d, fill):  # a forked child's copy never matches
        _local.ahead = ()
        out, handle = ahead[1:]
    else:
        out, handle = _draw(stream, n, d, fill, _split(n))
    # the CPUs that _split leaves idle read ahead
    if (_local.ahead == () and stream.start == 0 and n >= _STREAM_BLOCK_ROWS
            and _split(n) < workers):
        key = (os.getpid(), Stream(stream.seed, stream.iteration + 1), d, fill)
        _local.ahead = (key, *_draw(key[1], n, d, fill, workers))
    _join(handle)
    if n > len(out):  # the rows that follow the rows read ahead
        out = np.vstack([out, fill_rows(replace(stream, start=len(out)), n - len(out), d, fill)])
    return out[:n]


def _draw(stream: Stream, n: int, d: int, fill, workers: int):
    """``_start`` on the keyed blocks of the rows of ``fill_rows``: (rows, handle)."""
    first = stream.start - stream.start % _STREAM_BLOCK_ROWS
    out = np.empty((stream.start + n - first, d))

    def block(rows):
        key = (STREAM_SAMPLES, stream.iteration, (first + rows.start) // _STREAM_BLOCK_ROWS)
        seq = np.random.SeedSequence(entropy=stream.seed, spawn_key=key)
        fill(np.random.Generator(np.random.SFC64(seq)), out[rows])

    return out[stream.start - first :], _start(block, len(out), workers)


def _blocked_matmul(m: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Return out[:] = m @ w in one BLAS call per ``_BLOCK_ROWS`` rows of m,
    for a matrix or vector w; out is C-contiguous and does not overlap m.

    BLAS sums in an order that depends on the operand shape, and one large
    call is split between BLAS threads. So every call here has the full
    block shape: the full blocks go through one stacked matmul, which makes
    the same per-block calls as a loop over them, and a partial block, even
    of one row, is zero-padded to the full block. Row i of out then depends
    on row i of m alone, at any row count and BLAS thread count, as long as
    m starts at a block boundary of its pass.
    """
    n, d = m.shape
    k, r = divmod(n, _BLOCK_ROWS)
    full = n - r
    if k:
        out_blocks = out[:full].reshape((k, _BLOCK_ROWS) + out.shape[1:])
        np.matmul(m[:full].reshape(k, _BLOCK_ROWS, d), w, out=out_blocks)
    if r:
        padded = np.zeros((_BLOCK_ROWS, d))
        padded[:r] = m[full:]
        out[full:] = (padded @ w)[:r]
    return out


def _rowwise(op, rows: np.ndarray, tile: np.ndarray, out: np.ndarray) -> None:
    """out[:] = op(rows, v) for the row vector v that ``tile`` repeats;
    ``out`` may be ``rows`` or a column slice of a wider array. Each slab of
    rows meets the tile as one contiguous operand, so numpy runs one long
    loop per slab instead of a d-element loop per row: the same elementwise
    operations, so the same bits."""
    n, d = rows.shape
    full = n - n % _SLAB_ROWS
    op(rows[:full].reshape(-1, _SLAB_ROWS, d), tile, out=out[:full].reshape(-1, _SLAB_ROWS, d))
    op(rows[full:], tile[: n - full], out=out[full:])


def _workers() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_pool = (None, None)  # (pid of the process that made it, pool)
_pool_lock = threading.Lock()


def _executor():
    """The row-block thread pool, made on first use in each process: a forked
    child inherits its parent's (pid, pool) but none of the pool's threads."""
    global _pool
    with _pool_lock:
        if _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            threads = max(1, (os.cpu_count() or 1) - 1)
            _pool = os.getpid(), ThreadPoolExecutor(threads, "adasamp-rows")
        return _pool[1]


def _split(n: int) -> int:
    """Threads of a row pass over n rows, the one split rule of every pass:
    one per CPU from ``_PARALLEL_MIN_ROWS`` rows on, else the calling thread."""
    return _workers() if n >= _PARALLEL_MIN_ROWS else 1


def _in_parallel(fn: Callable[[slice], None], n: int) -> None:
    """Call ``fn(rows)`` on the keyed blocks of rows 0..n-1 (``_start``):
    the same blocks at any thread count, with small scratch at any n. The
    threads of ``_split(n)`` take blocks in turn until none is left, so a
    CPU that another process or a read-ahead slows takes fewer; on one, the
    calling thread takes them all in order. ``fn`` runs on pool threads, so
    it may only do numpy work on rows it owns: in particular it must not
    call a problem's evaluators or any traced ``adasamp`` function.
    """
    _join(_start(fn, n, _split(n)))


def _start(fn, n: int, workers: int):
    """Queue ``fn`` on the ``_STREAM_BLOCK_ROWS``-row blocks of rows 0..n-1,
    the last one truncated, the one unit of work of every row pass, and
    submit a drain of the queue per worker past the first: the handle
    (queue, futures) of ``_join``."""
    step = _STREAM_BLOCK_ROWS
    blocks = deque([(fn, slice(lo, min(lo + step, n))) for lo in range(0, n, step)])
    return blocks, [_executor().submit(_drain, blocks) for _ in range(workers - 1)]


def _drain(blocks: deque) -> None:
    while True:
        try:
            fn, rows = blocks.popleft()  # thread-safe
        except IndexError:
            return
        fn(rows)


def _join(handle, cancel: bool = False) -> None:
    """Drain the queue here (or drop it), cancel the drains not started, wait
    for the running ones, so that no block writes rows after the call, and
    raise the first error unless cancelled."""
    blocks, futures = handle
    if cancel:
        blocks.clear()
    try:
        _drain(blocks)
    finally:  # waiting on a queued drain, even cancelled, lasts until a thread dequeues it
        for future in [future for future in futures if not future.cancel()]:
            future.exception()  # returns once the drain has ended
    for future in futures:
        if not (cancel or future.cancelled()):
            future.result()


class _Local(threading.local):
    ahead = None  # inside ``_reading_ahead``, () or ((pid, stream, d, fill), rows, handle)


_local = _Local()  # per thread, as each thread runs its own drivers


@contextmanager
def _reading_ahead():
    """Let ``fill_rows`` read ahead; on exit, drop a read-ahead that this
    process started and wait for its blocks."""
    outer, _local.ahead = _local.ahead, ()
    try:
        yield
    finally:
        if _local.ahead and _local.ahead[0][0] == os.getpid():
            _join(_local.ahead[2], cancel=True)
        _local.ahead = outer


def batch_values(problem, x: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Per-sample objective values f(x; xi_i), shape (n,)."""
    return np.asarray(problem.value_many(x, xis), dtype=float)


def batch_grads(problem, x: np.ndarray, xis: np.ndarray):
    """Per-sample gradients: the (n, dim) array, or the ``Rows`` that
    ``grad_many`` returns as they are."""
    grads = problem.grad_many(x, xis)
    return grads if isinstance(grads, Rows) else np.asarray(grads, dtype=float)


def sample_objective(problem, x, sample_set: SampleSet) -> float:
    """Sample-average objective (1/|S|) sum_i f(x; xi_i)."""
    if len(sample_set) == 0:
        raise ValueError("empty sample set")
    x = np.asarray(x, dtype=float)
    return float(np.mean(batch_values(problem, x, sample_set.realizations)))


class Rows:
    """Per-sample rows, shape (n,) or (n, d), that ``write(part, out)``
    writes into ``out`` and returns, by numpy work on ``out`` only, so on
    any thread. ``model`` alone picks the parts: one keyed block of
    ``_in_parallel``, at most ``_STREAM_BLOCK_ROWS`` rows from a multiple of
    it on. ``np.asarray`` forms every row under ``_in_parallel``, and
    ``gradient_stats`` folds them into its moments without the (n, d)
    array."""

    def __init__(self, shape, write):
        self.shape = tuple(shape)
        self.write = write

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, dtype=None, copy=None):  # numpy casts to dtype
        out = np.empty(self.shape)
        _in_parallel(lambda part: self.write(part, out[part]), len(self))
        return out


class ScaledRows(Rows):
    """The rows [scale_i * g_i, tail_i] of per-sample gradients g_i (an
    (n, d) array or ``Rows``), a scale (n,) and an optional tail (n,). A
    write scales the rows g_i in out's first d columns: the array's bits."""

    def __init__(self, grads, scale, tail=None):
        self.grads = grads if isinstance(grads, Rows) else np.asarray(grads, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        self.tail = None if tail is None else np.asarray(tail, dtype=float)
        self.shape = (len(self.grads), self.grads.shape[1] + (tail is not None))

    def write(self, part: slice, out: np.ndarray) -> np.ndarray:
        head = out[:, : self.grads.shape[1]]
        grads = self.grads.write(part, head) if isinstance(self.grads, Rows) else self.grads[part]
        np.multiply(self.scale[part, None], grads, out=head)
        if self.tail is not None:
            out[:, -1] = self.tail[part]
        return out


def _moments(rows):
    """(mean, M2) of n >= 1 rows, an array or ``Rows``, where M2 =
    sum_i ||rows_i - c||^2 about the rows' mean c; M2 is exactly 0.0 when
    n >= 2 and all rows are equal. ``rows`` is only read.

    Each keyed block b of ``_in_parallel`` forms its column sum s_b and its
    M2_b about its own mean c_b = s_b / n_b in a scratch buffer. A ``Rows``
    is written into the buffer in one call, so the calls and bits are those
    of the array and the block is still in cache when it is read (writes of
    four blocks at once made the extended portfolio's statistics up to
    1.16x slower on a 2 MiB L2). The calling thread merges the blocks in
    block order (Chan, Golub and LeVeque 1979): the mean is sum_b s_b / n
    and M2 = sum_b M2_b + sum_b n_b ||c_b - c||^2. So the bits do not
    depend on the CPU count,
    and one block of two or more columns gives the two-pass bits:
    ``mean(axis=0)`` and one ``einsum`` over the deviations. Overflowed or
    non-finite rows give a non-finite M2 without a warning.
    """
    written = isinstance(rows, Rows)
    if not written:
        rows = np.asarray(rows, dtype=float)
    n, d = rows.shape
    sums = np.empty((-(-n // _STREAM_BLOCK_ROWS), d))
    centers = np.empty_like(sums)
    m2 = np.empty(sums.shape[0])
    same = np.empty(m2.size, dtype=bool)
    head = rows.write(slice(0, min(n, 2)), np.empty((min(n, 2), d))) if written else rows[:2]
    # identical rows must give exactly zero, not summation fuzz; the blocks
    # are compared with row 0 only when rows 0 and 1 are equal
    check = n >= 2 and bool(np.all(head[1] == head[0]))

    def fold(part):
        b = part.start // _STREAM_BLOCK_ROWS
        dev, tile = np.empty((part.stop - part.start, d)), np.empty((_SLAB_ROWS, d))
        with np.errstate(over="ignore", invalid="ignore"):
            block = rows.write(part, dev) if written else rows[part]
            np.einsum("ij->j", block, out=sums[b])
            same[b] = check and np.all(block == head[0])
            centers[b] = tile[:] = sums[b] / len(dev)
            _rowwise(np.subtract, block, tile, dev)
            m2[b] = np.einsum("ij,ij->", dev, dev)

    _in_parallel(fold, n)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add.reduce(sums, axis=0) / n
        if check and same.all():
            return mean, 0.0
        counts = np.minimum(n - _STREAM_BLOCK_ROWS * np.arange(m2.size), _STREAM_BLOCK_ROWS)
        spread = np.square(centers - mean).sum(axis=1) * counts
    return mean, sum(m2.tolist()) + sum(spread.tolist())


def gradient_stats(grads) -> GradientStats:
    """Statistics of a stack of per-sample gradients (an array or
    ``Rows``), or of the SQP step's per-sample directions (an
    augmentation round forms those of its new rows only), from
    ``_moments``: the statistic is M2 / ((n - 1) n). ``grads`` is only
    read."""
    mean, m2 = _moments(grads)
    n = len(grads)
    return GradientStats(mean, m2 / ((n - 1) * n) if n >= 2 else math.nan, n)


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

"""Generators for the two packaged test problems.

Both problems freeze their model parameters from a named seed (on a stream
disjoint from sample draws) so that experiments are replayable; the frozen
draws ship with every run log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .geometry import (
    ConstraintSet,
    Halfspace,
    Intersection,
    NonNegativeOrthant,
    UnitSimplex,
)
from .model import (
    STREAM_PARAMS,
    Rows,
    StochasticProblem,
    _STREAM_BLOCK_ROWS,
    _blocked_matmul,
    fill_rows,
    stream_rng,
)

__all__ = [
    "BasicExample",
    "PortfolioProblem",
    "basic_optimum",
    "make_basic_example",
    "make_portfolio",
]

BASIC_DIM = 20
PORTFOLIO_DIM = 100
RETURN_THRESHOLD = 1.05


def _uniform_fill(g, out):  # one object, so that ``fill_rows`` can read ahead
    g.random(out=out)


def basic_optimum(a, b) -> np.ndarray:
    """Closed-form minimizer of the quadratic expectation problem:
    componentwise max(0, b/2). Independent of a."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("a and b must have equal length")
    return np.maximum(0.0, b / 2.0)


@dataclass(frozen=True, eq=False)
class BasicExample:
    """Separable quadratic f(x; xi) = sum_l a_l (x_l - b_l xi_l)^2 with
    xi ~ Unif(0,1)^20 on the nonnegative orthant. a ~ Unif(1,2) and
    b ~ Unif(-1,1) are frozen at generation time."""

    a: np.ndarray
    b: np.ndarray
    seed: int

    @classmethod
    def generate(cls, seed: int) -> "BasicExample":
        rng = stream_rng(seed, STREAM_PARAMS, 0)
        a = rng.uniform(1.0, 2.0, size=BASIC_DIM)
        b = rng.uniform(-1.0, 1.0, size=BASIC_DIM)
        return cls(a, b, int(seed))

    def build(self) -> Tuple[StochasticProblem, ConstraintSet]:
        a, b = self.a, self.b
        # a write gets one keyed block, so each row vector is tiled to a
        # block's height and meets the block's rows as one contiguous operand
        block = (_STREAM_BLOCK_ROWS, 1)
        neg_b, two_a = np.tile(-b, block), np.tile(2.0 * a, block)

        def residual(x, xis):
            # the one writer of the rows x - b*xi, formed as (-b)*xi + x, the same bits
            x_rows = np.tile(x, block)

            def write(part, out):
                np.multiply(xis[part], neg_b[: len(out)], out=out)
                return np.add(out, x_rows[: len(out)], out=out)

            return write

        def value_many(x, xis):
            # (x - b*xi)^2 @ a: the residual in scratch rows, the matmul per block
            residual_rows = residual(x, xis)

            def write(part, out):
                r = residual_rows(part, np.empty((len(out), BASIC_DIM)))
                return _blocked_matmul(np.square(r, out=r), a, out)

            return Rows(xis.shape[:1], write)

        def grad_many(x, xis):
            # 2a*(x - b*xi), formed in the rows model asks for
            residual_rows = residual(x, xis)

            def write(part, out):
                return np.multiply(residual_rows(part, out), two_a[: len(out)], out=out)

            return Rows(xis.shape, write)

        problem = StochasticProblem(
            dim=BASIC_DIM,
            sampler=lambda stream, n: fill_rows(stream, n, BASIC_DIM, _uniform_fill),
            value_many=value_many,
            grad_many=grad_many,
            known_optimum=basic_optimum(a, b),
            params={"a": a, "b": b, "seed": self.seed},
        )
        return problem, NonNegativeOrthant(BASIC_DIM)


def _max_return_infeasible(A: np.ndarray) -> bool:
    # the best single-asset portfolio must clear the return threshold,
    # otherwise the admissible set could be empty for this draw
    return float(np.max(A)) < RETURN_THRESHOLD


@dataclass(frozen=True, eq=False)
class PortfolioProblem:
    """Linear loss f(x; xi) = -<xi, x> with xi = A + B u, u ~ N(0, I), over
    normalized portfolios with expected return at least 1.05. A ~ Unif(0.9,1.2)
    and B ~ Unif(0,0.1) entrywise are frozen at generation time; ``redraws``
    counts how many seeds were skipped before the feasibility witness held.

    The sampler draws the normals u of each keyed block of the stream
    (``fill_rows``) and writes their correlated and shifted rows into the
    block's output rows, with ``_blocked_matmul`` from the block's first
    row, so realization i is a function of (seed, iteration, i) alone at any
    row count, CPU count and BLAS thread count (prefix stability)."""

    A: np.ndarray
    B: np.ndarray
    seed: int
    redraws: int = 0

    @classmethod
    def generate(cls, seed: int) -> "PortfolioProblem":
        redraws = 0
        while True:
            rng = stream_rng(seed + redraws, STREAM_PARAMS, 0)
            A = rng.uniform(0.9, 1.2, size=PORTFOLIO_DIM)
            B = rng.uniform(0.0, 0.1, size=(PORTFOLIO_DIM, PORTFOLIO_DIM))
            if not _max_return_infeasible(A):
                return cls(A, B, int(seed + redraws), redraws)
            redraws += 1
            if redraws > 1000:
                raise RuntimeError("could not draw a feasible portfolio model")

    def build(self) -> Tuple[StochasticProblem, ConstraintSet]:
        A, B = self.A, self.B

        def fill(g, out):
            # a separate array of normals: a product written over its own
            # input makes numpy copy that input first
            _blocked_matmul(g.standard_normal(out.shape), B.T, out)
            np.add(out, A, out=out)

        problem = StochasticProblem(
            dim=PORTFOLIO_DIM,
            sampler=lambda stream, n: fill_rows(stream, n, PORTFOLIO_DIM, fill),
            # negation is exact: the bits of -(xis @ x) in blocked calls
            value_many=lambda x, xis: Rows(
                xis.shape[:1], lambda p, out: _blocked_matmul(xis[p], -x, out)
            ),
            grad_many=lambda x, xis: Rows(xis.shape, lambda p, out: np.negative(xis[p], out=out)),
            params={"A": A, "B": B, "seed": self.seed, "redraws": self.redraws},
        )
        cset = Intersection(
            (UnitSimplex(PORTFOLIO_DIM), Halfspace(A, RETURN_THRESHOLD))
        )
        return problem, cset


def make_basic_example(seed: int) -> Tuple[StochasticProblem, ConstraintSet]:
    return BasicExample.generate(seed).build()


def make_portfolio(seed: int) -> Tuple[StochasticProblem, ConstraintSet]:
    return PortfolioProblem.generate(seed).build()

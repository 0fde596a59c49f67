"""Convex constraint sets and Euclidean projection operators.

Every set descriptor is an immutable value object. Leaf sets (orthant,
simplex, halfspace) project in closed form; intersections are projected
with Dykstra's algorithm, which converges to the true Euclidean projection
rather than merely a feasible point. The product with R carries the extended
problem's free t coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProjectionError",
    "ProjectionResult",
    "ConstraintSet",
    "NonNegativeOrthant",
    "UnitSimplex",
    "Halfspace",
    "Intersection",
    "ProductWithFree",
    "project",
    "project_simplex",
]

# Dykstra stops once the iterate change, the correction increments and the
# member residual are all within PROJECTION_TOL, and gives up after
# PROJECTION_MAX_ITER cycles.
PROJECTION_TOL = 1e-10
PROJECTION_MAX_ITER = 10000


class ProjectionError(RuntimeError):
    """Iterative projection failed to converge (empty or nearly parallel sets)."""


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of a projection: the point, iterations used, and the
    maximum remaining distance to any member set."""

    point: np.ndarray
    iterations: int
    residual: float


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    return arr


class ConstraintSet:
    """Base class for convex set descriptors. Subclasses define ``dim`` and,
    for leaf sets, an exact ``_project`` method."""

    dim: int

    def _project(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class NonNegativeOrthant(ConstraintSet):
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def _project(self, y):
        return np.maximum(y, 0.0)


@dataclass(frozen=True, eq=False)
class UnitSimplex(ConstraintSet):
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def _project(self, y):
        return project_simplex(y)


@dataclass(frozen=True, eq=False)
class Halfspace(ConstraintSet):
    """The set {x : <normal, x> >= offset}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        normal = _as_vector(self.normal, "normal")
        if not np.any(normal):
            raise ValueError("halfspace normal must be nonzero")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def _project(self, y):
        gap = self.offset - float(self.normal @ y)
        if gap <= 0.0:
            # already feasible: no-op fast path
            return np.asarray(y, dtype=float)
        return y + (gap / float(self.normal @ self.normal)) * self.normal


@dataclass(frozen=True, eq=False)
class Intersection(ConstraintSet):
    """Intersection of convex sets, projected iteratively with Dykstra's
    algorithm. Feasibility of the intersection is the caller's responsibility
    and is checked lazily through projection convergence."""

    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("intersection requires at least one member set")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise ValueError(f"member sets disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "members", members)

    @property
    def dim(self) -> int:
        return self.members[0].dim


@dataclass(frozen=True, eq=False)
class ProductWithFree(ConstraintSet):
    """Cartesian product of a base set with R: the trailing coordinate is
    unconstrained and passes through projection unchanged."""

    base: ConstraintSet

    @property
    def dim(self) -> int:
        return self.base.dim + 1


def project_simplex(y) -> np.ndarray:
    """Euclidean projection onto {x : x >= 0, sum(x) = 1}.

    Sort-and-threshold method, O(n log n). Ties at the threshold are handled
    by the strict positivity scan, which keeps equal elements together. A
    point with a non-finite entry, or entries too large to scan, is rejected.
    """
    y = _as_vector(y, "y")
    if y.size == 0:
        raise ValueError("cannot project an empty vector")
    u = np.sort(y)[::-1]
    j = np.arange(1, y.size + 1)
    # entries too large to scan overflow it and leave no positive entry,
    # which the error below describes
    with np.errstate(over="ignore", invalid="ignore"):
        css = np.cumsum(u)
        positive = np.flatnonzero(u + (1.0 - css) / j > 0.0)
    if positive.size == 0:
        cause = ("a non-finite entry" if not np.isfinite(y).all() else
                 f"entries of magnitude up to {float(np.abs(y).max())!r}, "
                 "at which the threshold scan loses all precision")
        raise ValueError(f"cannot project onto the simplex: {cause}")
    k = int(positive[-1]) + 1
    tau = (css[k - 1] - 1.0) / k
    return np.maximum(y - tau, 0.0)


def _member_residual(members, x) -> float:
    return max(float(np.linalg.norm(x - project(m, x).point)) for m in members)


def _dykstra(members, y) -> ProjectionResult:
    x = np.array(y, dtype=float)
    corrections = [np.zeros_like(x) for _ in members]
    for it in range(1, PROJECTION_MAX_ITER + 1):
        x_prev = x.copy()
        corr_change_sq = 0.0
        for i, m in enumerate(members):
            w = x + corrections[i]
            px = project(m, w).point
            new_p = w - px
            corr_change_sq += float(np.sum((new_p - corrections[i]) ** 2))
            corrections[i] = new_p
            x = px
        # The iterate can stall for a full cycle at a feasible non-solution
        # while the corrections still move, so convergence needs the
        # correction increments to vanish too, not just the iterate change.
        change = float(np.linalg.norm(x - x_prev))
        if change <= PROJECTION_TOL and math.sqrt(corr_change_sq) <= PROJECTION_TOL:
            residual = _member_residual(members, x)
            if residual <= PROJECTION_TOL:
                return ProjectionResult(x, it, residual)
    raise ProjectionError(
        f"Dykstra did not converge in {PROJECTION_MAX_ITER} cycles: member residual "
        f"{_member_residual(members, x):.3g}, last iterate change {change:.3g}; "
        "the sets may be empty or nearly parallel"
    )


def project(cset: ConstraintSet, y) -> ProjectionResult:
    """Euclidean projection of y onto the set.

    Closed form for leaf sets; Dykstra's alternating projections for
    intersections, terminating when the iterate change, the correction
    increments, and the feasibility residual all fall below PROJECTION_TOL.
    """
    y = _as_vector(y, "y")
    if y.shape[0] != cset.dim:
        raise ValueError(f"point has dimension {y.shape[0]}, set expects {cset.dim}")
    if isinstance(cset, Intersection):
        return _dykstra(cset.members, y)
    if isinstance(cset, ProductWithFree):
        head = project(cset.base, y[: cset.base.dim])
        point = np.concatenate([head.point, y[cset.base.dim:]])
        return ProjectionResult(point, head.iterations, head.residual)
    return ProjectionResult(cset._project(y), 0, 0.0)
